#include "analog/quant.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cn::analog {

float quantize_uniform(float x, float lo, float hi, int levels) {
  if (levels < 2) throw std::invalid_argument("quantize_uniform: levels must be >= 2");
  if (hi <= lo) throw std::invalid_argument("quantize_uniform: bad range");
  x = std::clamp(x, lo, hi);
  const float step = (hi - lo) / static_cast<float>(levels - 1);
  const float q = std::round((x - lo) / step);
  return lo + q * step;
}

void quantize_tensor(Tensor& t, float lo, float hi, int levels) {
  for (int64_t i = 0; i < t.size(); ++i) t[i] = quantize_uniform(t[i], lo, hi, levels);
}

void dac_quantize(Tensor& x, int bits) { dac_quantize_span(x.data(), x.size(), bits); }

void dac_quantize_span(float* x, int64_t n, int bits, int64_t stride) {
  if (bits <= 0 || n == 0) return;
  float lo = x[0], hi = x[0];
  for (int64_t i = 1; i < n; ++i) {
    lo = std::min(lo, x[i * stride]);
    hi = std::max(hi, x[i * stride]);
  }
  if (hi - lo < 1e-12f) return;
  for (int64_t i = 0; i < n; ++i)
    x[i * stride] = quantize_uniform(x[i * stride], lo, hi, 1 << bits);
}

void adc_quantize(Tensor& currents, int bits, float full_scale) {
  if (bits <= 0) return;
  quantize_tensor(currents, -full_scale, full_scale, 1 << bits);
}

}  // namespace cn::analog

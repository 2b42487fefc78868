#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace cn::nn {

namespace {
constexpr uint32_t kMagic = 0x434E5754;  // "CNWT"
constexpr uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ofstream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void read_pod(std::ifstream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("load_weights: truncated file");
}

// Throws unless `bytes` more bytes are left in a file of `size` bytes, so a
// corrupt length field cannot size an allocation beyond the file.
void require_bytes(std::ifstream& is, uint64_t size, uint64_t bytes,
                   const char* field) {
  const uint64_t pos = static_cast<uint64_t>(is.tellg());
  if (bytes > size - pos)
    throw std::runtime_error(std::string("load_weights: ") + field +
                             " exceeds the bytes left in the file");
}
}  // namespace

void save_weights(Sequential& model, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_weights: cannot open " + path);
  auto params = model.params();
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<uint64_t>(params.size()));
  for (Param* p : params) {
    write_pod(os, static_cast<uint32_t>(p->name.size()));
    os.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    write_pod(os, static_cast<uint32_t>(p->value.rank()));
    for (int64_t d : p->value.shape()) write_pod(os, static_cast<int64_t>(d));
    os.write(reinterpret_cast<const char*>(p->value.data()),
             static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
  if (!os) throw std::runtime_error("save_weights: write failed for " + path);
}

void load_weights(Sequential& model, const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw std::runtime_error("load_weights: cannot open " + path);
  const uint64_t size = static_cast<uint64_t>(is.tellg());
  is.seekg(0);
  uint32_t magic = 0, version = 0;
  uint64_t count = 0;
  read_pod(is, magic);
  read_pod(is, version);
  read_pod(is, count);
  if (magic != kMagic) throw std::runtime_error("load_weights: bad magic");
  if (version != kVersion) throw std::runtime_error("load_weights: bad version");
  auto params = model.params();
  if (count != params.size())
    throw std::runtime_error("load_weights: param count mismatch");
  // Parse the whole file into staged tensors before touching the model, so a
  // file rejected part-way leaves every parameter as it was.
  std::vector<Tensor> staged;
  staged.reserve(params.size());
  for (Param* p : params) {
    uint32_t name_len = 0;
    read_pod(is, name_len);
    require_bytes(is, size, name_len, "name length");
    std::string name(name_len, '\0');
    is.read(name.data(), name_len);
    if (!name.empty() && name != p->name)
      throw std::runtime_error("load_weights: stored name '" + name +
                               "' does not match parameter " + p->name);
    uint32_t rank = 0;
    read_pod(is, rank);
    require_bytes(is, size, uint64_t{rank} * sizeof(int64_t), "rank");
    Shape shape(rank);
    for (auto& d : shape) read_pod(is, d);
    if (shape != p->value.shape())
      throw std::runtime_error("load_weights: shape mismatch for " + p->name);
    Tensor t(shape);
    is.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(t.size() * sizeof(float)));
    if (!is) throw std::runtime_error("load_weights: truncated tensor data");
    staged.push_back(std::move(t));
  }
  if (static_cast<uint64_t>(is.tellg()) != size)
    throw std::runtime_error("load_weights: trailing bytes after the last tensor");
  for (size_t i = 0; i < params.size(); ++i)
    std::copy_n(staged[i].data(), staged[i].size(), params[i]->value.data());
}

}  // namespace cn::nn

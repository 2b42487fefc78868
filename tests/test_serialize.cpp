#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "models/lenet.h"
#include "mutation_testutil.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/init.h"
#include "tensor/rng.h"

namespace cn::nn {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Serialize, RoundTripRestoresWeights) {
  Rng rng(1);
  Sequential a = models::lenet5(1, 28, 10, rng);
  const std::string path = temp_path("cn_test_roundtrip.wts");
  save_weights(a, path);

  Rng rng2(99);
  Sequential b = models::lenet5(1, 28, 10, rng2);
  load_weights(b, path);

  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i)
    for (int64_t j = 0; j < pa[i]->size(); ++j)
      ASSERT_FLOAT_EQ(pa[i]->value[j], pb[i]->value[j]);
  std::remove(path.c_str());
}

TEST(Serialize, LoadedModelProducesIdenticalOutputs) {
  Rng rng(2);
  Sequential a = models::lenet5(1, 28, 10, rng);
  const std::string path = temp_path("cn_test_outputs.wts");
  save_weights(a, path);
  Rng rng2(3);
  Sequential b = models::lenet5(1, 28, 10, rng2);
  load_weights(b, path);
  Tensor x({2, 1, 28, 28});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor ya = a.forward(x, false);
  Tensor yb = b.forward(x, false);
  for (int64_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
  std::remove(path.c_str());
}

TEST(Serialize, ShapeMismatchRejected) {
  Rng rng(4);
  Sequential a("a");
  a.emplace<Dense>(4, 4, "d");
  const std::string path = temp_path("cn_test_mismatch.wts");
  save_weights(a, path);
  Sequential b("b");
  b.emplace<Dense>(4, 5, "d");
  EXPECT_THROW(load_weights(b, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, ParamCountMismatchRejected) {
  Rng rng(5);
  Sequential a("a");
  a.emplace<Dense>(2, 2, "d");
  const std::string path = temp_path("cn_test_count.wts");
  save_weights(a, path);
  Sequential b("b");
  b.emplace<Dense>(2, 2, "d1");
  b.emplace<Dense>(2, 2, "d2");
  EXPECT_THROW(load_weights(b, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  Sequential m("m");
  m.emplace<Dense>(2, 2);
  EXPECT_THROW(load_weights(m, "/nonexistent/dir/x.wts"), std::runtime_error);
  EXPECT_THROW(save_weights(m, "/nonexistent/dir/x.wts"), std::runtime_error);
}

TEST(Serialize, CorruptFileRejected) {
  const std::string path = temp_path("cn_test_corrupt.wts");
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a weights file";
  }
  Sequential m("m");
  m.emplace<Dense>(2, 2);
  EXPECT_THROW(load_weights(m, path), std::runtime_error);
  std::remove(path.c_str());
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(is), {});
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Serialize, HostileLengthFieldsAndTruncationRejected) {
  // Length fields are bounded by the bytes left in the file: an inflated
  // name length or rank must throw, not allocate gigabytes.
  Sequential a("a");
  a.emplace<Dense>(4, 4, "d");
  const std::string path = temp_path("cn_test_hostile.wts");
  save_weights(a, path);
  const std::vector<char> valid = read_file(path);
  Sequential b("b");
  b.emplace<Dense>(4, 4, "d");
  // Header: magic u32, version u32, count u64; then the first param's
  // name_len u32, name, rank u32.
  constexpr size_t kNameLen = 16;
  uint32_t name_len = 0;
  std::memcpy(&name_len, valid.data() + kNameLen, sizeof(name_len));
  const size_t rank_at = kNameLen + sizeof(uint32_t) + name_len;
  for (const size_t field : {kNameLen, rank_at}) {
    for (const uint32_t inflated : {0xFFFFFFFFu, 0x10000000u, 1000u}) {
      std::vector<char> bad = valid;
      std::memcpy(bad.data() + field, &inflated, sizeof(inflated));
      write_file(path, bad);
      EXPECT_THROW(load_weights(b, path), std::runtime_error)
          << "field at " << field << " = " << inflated;
    }
  }
  for (size_t len = 0; len < valid.size(); ++len) {
    write_file(path, std::vector<char>(valid.begin(),
                                       valid.begin() + static_cast<std::ptrdiff_t>(len)));
    EXPECT_THROW(load_weights(b, path), std::runtime_error) << "truncated at " << len;
  }
  write_file(path, valid);
  EXPECT_NO_THROW(load_weights(b, path));
  std::remove(path.c_str());
}

TEST(Serialize, MismatchedStoredNameRejected) {
  Sequential a("a");
  a.emplace<Dense>(3, 2, "d");
  const std::string path = temp_path("cn_test_names.wts");
  save_weights(a, path);
  Sequential b("b");
  b.emplace<Dense>(3, 2, "e");
  EXPECT_THROW(load_weights(b, path), std::runtime_error);
  std::remove(path.c_str());
}

// A small conv+dense model whose weights are all drawn from `seed`, so two
// seeds give two bitwise-distinct models of one architecture.
Sequential seeded_model(uint64_t seed) {
  Rng rng(seed);
  Sequential m("m");
  auto& c = m.emplace<Conv2D>(1, 2, 3, 1, 0, 5, 5, "conv");
  auto& d = m.emplace<Dense>(2 * 3 * 3, 3, "fc");
  for (Param* p : {&c.weight(), &c.bias(), &d.weight(), &d.bias()})
    rng.fill_normal(p->value, 0.0f, 1.0f);
  return m;
}

std::vector<std::vector<float>> param_values(Sequential& m) {
  std::vector<std::vector<float>> out;
  for (Param* p : m.params())
    out.emplace_back(p->value.data(), p->value.data() + p->value.size());
  return out;
}

TEST(Serialize, MutatedWeightFilesLoadOrThrowAndLeaveModelUntouched) {
  // Every mutant of a valid file (truncation, bit flips, inflation) either
  // loads cleanly or throws std::runtime_error — and a throw, wherever in
  // the file it happens, leaves the target model bitwise as it was.
  Sequential a = seeded_model(1);
  const std::string path = temp_path("cn_test_mutants.wts");
  save_weights(a, path);
  const std::vector<char> bytes = read_file(path);
  const std::string valid(bytes.begin(), bytes.end());
  std::mt19937_64 rng(18);
  int loaded = 0, rejected = 0;
  for (int i = 0; i < 300; ++i) {
    const auto kind = static_cast<testutil::Mutation>(i % 3);
    const std::string m = testutil::mutate(valid, kind, rng);
    write_file(path, std::vector<char>(m.begin(), m.end()));
    Sequential b = seeded_model(2);
    const auto before = param_values(b);
    try {
      load_weights(b, path);
      ++loaded;
    } catch (const std::runtime_error&) {
      ++rejected;
      EXPECT_TRUE(param_values(b) == before) << "mutant " << i
                                             << " threw but modified the model";
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw an untyped error: " << e.what();
    }
  }
  // Both outcomes occur, so the harness exercises the parser and its checks.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cn::nn

// Functional Sparse-MARLIN kernel: correctness vs the decompressed
// reference, SPTC operand selection, compressed-traffic ratio vs dense.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/marlin_kernel.hpp"
#include "core/sparse_kernel.hpp"
#include "layout/repack.hpp"
#include "quant/uniform.hpp"
#include "sparse/two_four.hpp"
#include "util/rng.hpp"

namespace marlin::core {
namespace {

Matrix<Half> random_activations(index_t m, index_t k, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<Half> a(m, k);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < k; ++j) {
      a(i, j) = Half(static_cast<float>(rng.normal(0.0, 1.0)));
    }
  }
  return a;
}

sparse::Sparse24Weights random_sparse(index_t k, index_t n, index_t group,
                                      std::uint64_t seed,
                                      sparse::SparseMask* mask_out = nullptr,
                                      quant::QuantizedWeights* q_out = nullptr) {
  Rng rng(seed);
  Matrix<float> w(k, n);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      w(i, j) = static_cast<float>(rng.normal(0.0, 0.05));
    }
  }
  const auto mask = sparse::prune_24_magnitude(w.view());
  const auto wm = sparse::apply_mask(w.view(), mask);
  quant::QuantConfig cfg;
  cfg.group_size = group;
  auto q = quant::quantize_rtn(wm.view(), cfg);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (!mask.keep(i, j)) q.codes(i, j) = 8;
    }
  }
  if (mask_out != nullptr) *mask_out = mask;
  if (q_out != nullptr) *q_out = q;
  return sparse::compress_24(q, mask);
}

// All members are 8 bytes wide, so the struct has no padding: gtest prints
// its bytes into the test names, which stay the same in every build.
struct SparseCase {
  index_t m, k, n;
  index_t n_sm;
  index_t group;
  index_t sms;
};

class SparseKernelCorrectness : public ::testing::TestWithParam<SparseCase> {};

TEST_P(SparseKernelCorrectness, MatchesDecompressedReference) {
  const auto c = GetParam();
  const auto a = random_activations(c.m, c.k, 7 + c.m);
  const auto s = random_sparse(c.k, c.n, c.group, 8 + c.k);

  KernelConfig cfg;
  cfg.n_sm_tile = c.n_sm;
  const auto res =
      sparse_marlin_matmul(a.view(), s, cfg, static_cast<int>(c.sms));

  const auto dense = sparse::decompress_24(s);
  const auto ref = reference_matmul(a.view(), dense.view());

  const double tol = 2e-3 * std::sqrt(static_cast<double>(c.k)) + 2e-2;
  for (index_t i = 0; i < c.m; ++i) {
    for (index_t j = 0; j < c.n; ++j) {
      const double err = std::abs(res.c(i, j).to_float() - ref(i, j));
      EXPECT_LT(err / (std::abs(ref(i, j)) + 1.0), tol);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SparseKernelCorrectness,
    ::testing::Values(SparseCase{1, 64, 64, 64, 32, 1},
                      SparseCase{16, 128, 256, 256, 64, 8},
                      SparseCase{16, 256, 128, 128, 128, 72},
                      SparseCase{5, 128, 128, 128, quant::kPerColumn, 4},
                      SparseCase{80, 128, 128, 128, 64, 4}));

TEST(SparseKernel, CompressedTrafficIsThreeQuartersOfDense) {
  const index_t m = 16, k = 256, n = 1024;
  const auto a = random_activations(m, k, 21);

  sparse::SparseMask mask;
  quant::QuantizedWeights q;
  const auto s = random_sparse(k, n, 128, 22, &mask, &q);

  KernelConfig cfg;
  cfg.n_sm_tile = 256;
  const auto sp = sparse_marlin_matmul(a.view(), s, cfg, 4);
  const auto mw = layout::marlin_repack(q);
  const auto de = marlin_matmul(a.view(), mw, cfg, 4);

  // Weight-stream bytes: dense counts K*N/2, sparse K*N/4 codes + K*N/8
  // metadata = 0.75x. Subtract the common A bytes before comparing.
  const auto a_bytes = static_cast<std::int64_t>(m * k * 2);
  const double dense_w =
      static_cast<double>(de.traffic.gmem_read_bytes - a_bytes);
  const double sparse_w =
      static_cast<double>(sp.traffic.gmem_read_bytes - a_bytes);
  EXPECT_NEAR(sparse_w / dense_w, 0.75, 0.05);
}

TEST(SparseKernel, SelectionSkipsPrunedAElements) {
  // With A crafted so pruned positions carry NaN, the kernel must never
  // touch them — metadata-driven operand selection in action.
  const index_t k = 64, n = 64;
  sparse::SparseMask mask;
  const auto s = random_sparse(k, n, 32, 33, &mask);

  // NaN only works per-column if the pruned rows are pruned for ALL
  // columns, so craft a column-0-only test: a single activation row.
  Matrix<Half> a(1, k);
  for (index_t i = 0; i < k; ++i) {
    a(0, i) = mask.keep(i, 0) ? Half(1.0f)
                              : Half(std::numeric_limits<float>::quiet_NaN());
  }
  KernelConfig cfg;
  cfg.n_sm_tile = 64;
  const auto res = sparse_marlin_matmul(a.view(), s, cfg, 1);
  // Column 0 uses only kept rows of column 0 => finite result.
  EXPECT_FALSE(res.c(0, 0).is_nan());
}

TEST(SparseKernel, RejectsShapeMismatch) {
  const auto a = random_activations(4, 128, 44);
  const auto s = random_sparse(64, 64, 32, 45);
  KernelConfig cfg;
  EXPECT_THROW(sparse_marlin_matmul(a.view(), s, cfg, 4), marlin::Error);
}

}  // namespace
}  // namespace marlin::core

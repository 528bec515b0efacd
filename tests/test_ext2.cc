// Tests for apply-Q^H.
#include <gtest/gtest.h>

#include "common/generators.h"
#include "common/norms.h"
#include "core/per_block.h"
#include "core/per_block_ext.h"
#include "cpu/qr.h"
#include "test_util.h"

namespace regla::core {
namespace {

TEST(ApplyQt, RealMatchesCpuApply) {
  simt::Device dev;
  const int m = 40, n = 24, count = 3;
  BatchF batch(count, m, n), taus;
  fill_uniform(batch, 1);
  BatchF orig = batch;
  qr_per_block(dev, batch, &taus);

  BatchF b(count, m, 1);
  fill_uniform(b, 2);
  BatchF b0 = b;
  apply_qt_per_block(dev, batch, taus, b);

  for (int k = 0; k < count; ++k) {
    Matrix<float> packed(m, n), rhs(m, 1);
    std::vector<float> tau(n);
    for (int c = 0; c < n; ++c) tau[c] = taus.at(k, c, 0);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i) packed(i, j) = batch.at(k, i, j);
    for (int i = 0; i < m; ++i) rhs(i, 0) = b0.at(k, i, 0);
    cpu::qr_apply_qt(packed.view(), tau, rhs.view());
    for (int i = 0; i < m; ++i)
      EXPECT_NEAR(b.at(k, i, 0), rhs(i, 0), 2e-3f) << "problem " << k << " row " << i;
  }
}

TEST(ApplyQt, FactorOnceSolveManyLeastSquares) {
  // The repeated-solve path: one factorization, two different right-hand
  // sides, each solved by apply_qt + host back substitution.
  simt::Device dev;
  const int m = 32, n = 8;
  BatchF batch(1, m, n), taus;
  fill_uniform(batch, 5);
  BatchF a0 = batch;
  qr_per_block(dev, batch, &taus);

  for (int rhs_seed : {10, 11}) {
    BatchF x_true(1, n, 1);
    fill_uniform(x_true, rhs_seed);
    BatchF b(1, m, 1);
    for (int i = 0; i < m; ++i) {
      float acc = 0;
      for (int j = 0; j < n; ++j) acc += a0.at(0, i, j) * x_true.at(0, j, 0);
      b.at(0, i, 0) = acc;
    }
    apply_qt_per_block(dev, batch, taus, b);
    // Host back-substitution on the R factor.
    Matrix<float> r(n, n), y(n, 1);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i <= j; ++i) r(i, j) = batch.at(0, i, j);
      y(j, 0) = b.at(0, j, 0);
    }
    cpu::strsm_upper_left(r.view(), y.view());
    for (int j = 0; j < n; ++j)
      EXPECT_NEAR(y(j, 0), x_true.at(0, j, 0), 5e-3f) << "seed " << rhs_seed;
  }
}

TEST(ApplyQt, ComplexMatchesCpuApply) {
  simt::Device dev;
  const int m = 24, n = 12;
  BatchC batch(2, m, n), taus;
  fill_uniform(batch, 7);
  qr_per_block(dev, batch, &taus);
  BatchC b(2, m, 1);
  fill_uniform(b, 8);
  BatchC b0 = b;
  apply_qt_per_block(dev, batch, taus, b);

  MatrixC packed(m, n), rhs(m, 1);
  std::vector<cpu::cfloat> tau(n);
  for (int c = 0; c < n; ++c) tau[c] = taus.at(1, c, 0);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) packed(i, j) = batch.at(1, i, j);
  for (int i = 0; i < m; ++i) rhs(i, 0) = b0.at(1, i, 0);
  cpu::qr_apply_qt(packed.view(), tau, rhs.view());
  for (int i = 0; i < m; ++i)
    EXPECT_LT(std::abs(b.at(1, i, 0) - rhs(i, 0)), 3e-3f) << "row " << i;
}

}  // namespace
}  // namespace regla::core

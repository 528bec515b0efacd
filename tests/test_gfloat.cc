// Tests for the device scalars: FLOP counting, the 22-bit fast-math
// rounding of division and square root, and bitwise agreement of the counted
// and counter-free instantiations.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "simt/gfloat.h"

namespace regla::simt {
namespace {

class GfloatCounting : public ::testing::Test {
 protected:
  void SetUp() override {
    current_stats() = &stats_;
    fast_math_enabled() = true;
  }
  void TearDown() override { current_stats() = nullptr; }
  ThreadStats stats_;
};

TEST_F(GfloatCounting, AddMulCountOneFlopOneInstr) {
  gfloat a(2.0f), b(3.0f);
  gfloat c = a + b;
  gfloat d = a * b;
  EXPECT_EQ(c.value(), 5.0f);
  EXPECT_EQ(d.value(), 6.0f);
  EXPECT_EQ(stats_.flops, 2u);
  EXPECT_EQ(stats_.fp_instrs, 2u);
}

TEST_F(GfloatCounting, FmaCountsTwoFlopsOneInstr) {
  gfloat r = gfma(gfloat(2.0f), gfloat(3.0f), gfloat(4.0f));
  EXPECT_EQ(r.value(), 10.0f);
  EXPECT_EQ(stats_.flops, 2u);
  EXPECT_EQ(stats_.fp_instrs, 1u);
}

TEST_F(GfloatCounting, DivisionCounted) {
  gfloat r = gfloat(1.0f) / gfloat(3.0f);
  EXPECT_NEAR(r.value(), 1.0f / 3.0f, 1e-6f);
  EXPECT_EQ(stats_.divs, 1u);
}

TEST_F(GfloatCounting, SqrtCounted) {
  gfloat r = gsqrt(gfloat(2.0f));
  EXPECT_NEAR(r.value(), std::sqrt(2.0f), 1e-6f);
  EXPECT_EQ(stats_.sqrts, 1u);
}

TEST_F(GfloatCounting, NegationAndCompareFree) {
  gfloat a(2.0f);
  gfloat b = -a;
  bool lt = b < a;
  EXPECT_TRUE(lt);
  EXPECT_EQ(stats_.flops, 0u);
}

TEST_F(GfloatCounting, ComplexMulCountsRealFlops) {
  gcomplex a(gfloat(1.0f), gfloat(2.0f)), b(gfloat(3.0f), gfloat(4.0f));
  gcomplex c = a * b;
  EXPECT_FLOAT_EQ(c.re().value(), -5.0f);
  EXPECT_FLOAT_EQ(c.im().value(), 10.0f);
  // 2 gfma (2 flops each) + 2 muls = 6 real flops.
  EXPECT_EQ(stats_.flops, 6u);
}

TEST(GfloatFastMath, DivisionAccurateTo22Bits) {
  fast_math_enabled() = true;
  Rng rng(1);
  float worst = 0;
  for (int i = 0; i < 10000; ++i) {
    const float a = rng.uniform(0.1f, 10.0f);
    const float b = rng.uniform(0.1f, 10.0f);
    const float fast = (gfloat(a) / gfloat(b)).value();
    const float exact = a / b;
    worst = std::max(worst, std::fabs(fast - exact) / std::fabs(exact));
  }
  // 22 good mantissa bits: relative error ~2^-22; full precision is 2^-24.
  EXPECT_LT(worst, std::pow(2.0f, -21.0f));
  EXPECT_GT(worst, std::pow(2.0f, -25.0f));  // genuinely degraded
}

TEST(GfloatFastMath, SqrtAccurateTo22Bits) {
  fast_math_enabled() = true;
  Rng rng(2);
  float worst = 0;
  for (int i = 0; i < 10000; ++i) {
    const float a = rng.uniform(0.01f, 100.0f);
    const float fast = gsqrt(gfloat(a)).value();
    worst = std::max(worst, std::fabs(fast - std::sqrt(a)) / std::sqrt(a));
  }
  EXPECT_LT(worst, std::pow(2.0f, -21.0f));
}

TEST(GfloatFastMath, FullPrecisionWhenDisabled) {
  fast_math_enabled() = false;
  EXPECT_EQ((gfloat(1.0f) / gfloat(3.0f)).value(), 1.0f / 3.0f);
  EXPECT_EQ(gsqrt(gfloat(2.0f)).value(), std::sqrt(2.0f));
  fast_math_enabled() = true;
}

TEST(Gcomplex, MatchesStdComplex) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::complex<float> a{rng.uniform(-2, 2), rng.uniform(-2, 2)};
    const std::complex<float> b{rng.uniform(-2, 2), rng.uniform(-2, 2)};
    const gcomplex ga(a), gb(b);
    EXPECT_NEAR(std::abs((ga * gb).to_std() - a * b), 0.0f, 1e-5f);
    EXPECT_NEAR(std::abs((ga + gb).to_std() - (a + b)), 0.0f, 1e-6f);
    EXPECT_NEAR(std::abs((ga - gb).to_std() - (a - b)), 0.0f, 1e-6f);
    EXPECT_NEAR(std::abs(ga.conj().to_std() - std::conj(a)), 0.0f, 1e-6f);
    EXPECT_NEAR(ga.norm2().value(), std::norm(a), 1e-5f);
  }
}

std::uint32_t bits(float x) {
  std::uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Bitwise equality, except where two or more operands are NaN: which
/// operand's NaN such an operation returns is left open by IEEE 754, and
/// the compiler may commute + * and fma operands, so there both results
/// need only be NaN.
::testing::AssertionResult same_result(float counted, float counter_free,
                                       int nan_operands) {
  if (nan_operands >= 2 && std::isnan(counted) && std::isnan(counter_free))
    return ::testing::AssertionSuccess();
  if (bits(counted) == bits(counter_free)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::hex << "counted 0x" << bits(counted) << " vs counter-free 0x"
         << bits(counter_free);
}

// The counter-free scalars must compute exactly what the counted ones do —
// the engine swaps one for the other per block — including on signed
// zeros, denormals, infinities and NaNs, in both fast-math modes. Counted
// ops must keep their exact per-op counts; counter-free ops record nothing
// even while a lane's counters are installed.
TEST(GfloatPolicies, CountedAndCounterFreeAreBitwiseEqual) {
  using Free = basic_gfloat<false>;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::vector<float> sweep = {
      0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(), 3.0e-39f, -1.0e-40f,
      std::numeric_limits<float>::min(), 1.0f, -1.0f, 3.0f, 0.1f, -7.25f,
      1.0e30f, std::numeric_limits<float>::max(), kInf, -kInf,
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN()};
  const auto n = static_cast<std::uint64_t>(sweep.size());
  ThreadStats stats;
  current_stats() = &stats;
  for (bool fast : {true, false}) {
    fast_math_enabled() = fast;
    stats.reset();
    for (float x : sweep) {
      const gfloat ca(x);
      const Free fa(x);
      EXPECT_TRUE(same_result(gsqrt(ca).value(), gsqrt(fa).value(), 0)) << x;
      for (float y : sweep) {
        const gfloat cb(y);
        const Free fb(y);
        const int nans = std::isnan(x) + std::isnan(y);
        EXPECT_TRUE(same_result((ca + cb).value(), (fa + fb).value(), nans))
            << x << " + " << y;
        EXPECT_TRUE(same_result((ca - cb).value(), (fa - fb).value(), nans))
            << x << " - " << y;
        EXPECT_TRUE(same_result((ca * cb).value(), (fa * fb).value(), nans))
            << x << " * " << y;
        EXPECT_TRUE(same_result((ca / cb).value(), (fa / fb).value(), nans))
            << x << " / " << y;
        for (float z : sweep)
          EXPECT_TRUE(same_result(gfma(ca, cb, gfloat(z)).value(),
                                  gfma(fa, fb, Free(z)).value(),
                                  nans + std::isnan(z)))
              << "fma " << x << " " << y << " " << z;
      }
    }
    // Per value: one sqrt. Per pair: + - * (one flop and one instruction
    // each) and one divide. Per triple: one FMA (two flops, one
    // instruction). The counter-free ops added nothing.
    EXPECT_EQ(stats.sqrts, n);
    EXPECT_EQ(stats.divs, n * n);
    EXPECT_EQ(stats.fp_instrs, 3 * n * n + n * n * n);
    EXPECT_EQ(stats.flops, n + 4 * n * n + 2 * n * n * n);
  }
  current_stats() = nullptr;
  fast_math_enabled() = true;
}

TEST(Gcomplex, NoCountingWithoutStats) {
  current_stats() = nullptr;
  gfloat a(1.0f), b(2.0f);
  EXPECT_EQ((a + b).value(), 3.0f);  // must not crash
}

}  // namespace
}  // namespace regla::simt

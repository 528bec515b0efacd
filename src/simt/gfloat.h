// gfloat / gcomplex: device scalars, compiled once per counting policy.
//
// Device kernels do arithmetic on basic_gfloat<Counted> instead of float.
// The counted scalars (gfloat, gcomplex) bump the running thread's counters
// on every operation, so the simulator sees exactly the FLOPs, divides and
// square roots the kernel performs — no hand-maintained cost formulas in the
// kernels themselves. The counter-free scalars (basic_gfloat<false>) compute
// the same values bit for bit and compile to plain float arithmetic: the
// engine runs them on blocks whose accounting it already knows (DESIGN.md
// §13). In fast-math mode, division and square root round their results to
// 22 mantissa bits in both policies, reproducing the accuracy of GF100's
// hardware reciprocal/sqrt that the paper uses (--use_fast_math).
#pragma once

#include <cmath>
#include <complex>
#include <cstring>

#include "simt/stats.h"

namespace regla::simt {

namespace detail {
/// Storage behind fast_math_enabled(); header-inline for the same reason as
/// stats.h's t_current_stats — the divide/sqrt hot paths read it per op.
inline thread_local bool t_fast_math = true;
}  // namespace detail

/// Set by the executor for the duration of a launch (fast-math on/off).
inline bool& fast_math_enabled() { return detail::t_fast_math; }

namespace detail {
/// Truncate a float to 22 mantissa bits (keep 22 of 23 explicit fraction
/// bits... GF100's fast functions are *accurate to* 22 bits, i.e. the last
/// bit or two of the fraction are untrusted; we model that by zeroing the
/// low fraction bit after round-to-nearest at bit 22).
inline float round_to_22_bits(float x) {
  std::uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  // Round to nearest at the 2^-22 position of the significand, then clear
  // the low bit. Skip inf/nan (exponent all ones).
  if ((u & 0x7f800000u) != 0x7f800000u) {
    u += 1u;          // round half up at the dropped bit
    u &= ~1u;         // drop the lowest fraction bit
  }
  float out;
  std::memcpy(&out, &u, sizeof(out));
  return out;
}

/// A divide or square-root result as the launch's fast-math mode leaves it.
inline float fast_math_round(float x) {
  return fast_math_enabled() ? round_to_22_bits(x) : x;
}
}  // namespace detail

template <bool Counted>
class basic_gfloat {
 public:
  static constexpr bool counted = Counted;

  basic_gfloat() = default;
  constexpr basic_gfloat(float v) : v_(v) {}  // NOLINT implicit by design

  float value() const { return v_; }
  explicit operator float() const { return v_; }

  // --- arithmetic (counted under the counted policy) ----------------------
  friend basic_gfloat operator+(basic_gfloat a, basic_gfloat b) {
    tick1();
    return {a.v_ + b.v_};
  }
  friend basic_gfloat operator-(basic_gfloat a, basic_gfloat b) {
    tick1();
    return {a.v_ - b.v_};
  }
  friend basic_gfloat operator*(basic_gfloat a, basic_gfloat b) {
    tick1();
    return {a.v_ * b.v_};
  }
  friend basic_gfloat operator/(basic_gfloat a, basic_gfloat b) {
    if constexpr (Counted) {
      auto* s = current_stats();
      if (s) { ++s->divs; ++s->flops; }
    }
    return {detail::fast_math_round(a.v_ / b.v_)};
  }
  basic_gfloat operator-() const { return {-v_}; }  // sign flip is free

  basic_gfloat& operator+=(basic_gfloat b) { *this = *this + b; return *this; }
  basic_gfloat& operator-=(basic_gfloat b) { *this = *this - b; return *this; }
  basic_gfloat& operator*=(basic_gfloat b) { *this = *this * b; return *this; }
  basic_gfloat& operator/=(basic_gfloat b) { *this = *this / b; return *this; }

  // Comparisons: predicate ops, not counted as FLOPs.
  friend bool operator==(basic_gfloat a, basic_gfloat b) { return a.v_ == b.v_; }
  friend bool operator!=(basic_gfloat a, basic_gfloat b) { return a.v_ != b.v_; }
  friend bool operator<(basic_gfloat a, basic_gfloat b) { return a.v_ < b.v_; }
  friend bool operator>(basic_gfloat a, basic_gfloat b) { return a.v_ > b.v_; }
  friend bool operator<=(basic_gfloat a, basic_gfloat b) { return a.v_ <= b.v_; }
  friend bool operator>=(basic_gfloat a, basic_gfloat b) { return a.v_ >= b.v_; }

 private:
  static void tick1() {
    if constexpr (Counted) {
      auto* s = current_stats();
      if (s) { ++s->flops; ++s->fp_instrs; }
    }
  }
  float v_ = 0.0f;
};

/// The counted scalar: what the paper benches, the accounting tests and
/// every instrumented block compute with.
using gfloat = basic_gfloat<true>;

/// Fused multiply-add: one issued instruction, two FLOPs — the dual-issue
/// pipeline behaviour the paper's gamma assumes ("a floating-point
/// multiply-add is counted as one gamma").
template <bool C>
basic_gfloat<C> gfma(basic_gfloat<C> a, basic_gfloat<C> b, basic_gfloat<C> c) {
  if constexpr (C) {
    auto* s = current_stats();
    if (s) { s->flops += 2; ++s->fp_instrs; }
  }
  return {a.value() * b.value() + c.value()};
}

/// Dependency-chained FMA for latency microbenchmarks: like gfma, but also
/// charges the FP pipeline latency to the thread's dependency chain (a
/// register-to-register dependent chain exposes the full pipeline depth,
/// which is how the paper measures gamma).
template <bool C>
basic_gfloat<C> gfma_dep(basic_gfloat<C> a, basic_gfloat<C> b,
                         basic_gfloat<C> c, double pipeline_cycles) {
  if constexpr (C) {
    auto* s = current_stats();
    if (s) {
      s->flops += 2;
      ++s->fp_instrs;
      s->dep_latency_cycles += pipeline_cycles;
    }
  } else {
    (void)pipeline_cycles;
  }
  return {a.value() * b.value() + c.value()};
}

template <bool C>
basic_gfloat<C> gsqrt(basic_gfloat<C> a) {
  if constexpr (C) {
    auto* s = current_stats();
    if (s) { ++s->sqrts; ++s->flops; }
  }
  return {detail::fast_math_round(std::sqrt(a.value()))};
}

template <bool C>
basic_gfloat<C> gabs(basic_gfloat<C> a) {
  return {std::fabs(a.value())};
}

/// Complex device scalar built from two gfloats: all real-FLOP counting is
/// inherited from basic_gfloat, so a complex MAC naturally counts 8 real
/// FLOPs — consistent with the paper's 8mn^2 - 8/3 n^3 complex-QR accounting.
template <bool Counted>
class basic_gcomplex {
 public:
  using real_type = basic_gfloat<Counted>;
  static constexpr bool counted = Counted;

  basic_gcomplex() = default;
  basic_gcomplex(real_type re, real_type im) : re_(re), im_(im) {}
  constexpr basic_gcomplex(float re) : re_(re), im_(0.0f) {}  // NOLINT
  basic_gcomplex(std::complex<float> z)  // NOLINT
      : re_(z.real()), im_(z.imag()) {}

  std::complex<float> to_std() const { return {re_.value(), im_.value()}; }

  real_type re() const { return re_; }
  real_type im() const { return im_; }

  friend basic_gcomplex operator+(basic_gcomplex a, basic_gcomplex b) {
    return {a.re_ + b.re_, a.im_ + b.im_};
  }
  friend basic_gcomplex operator-(basic_gcomplex a, basic_gcomplex b) {
    return {a.re_ - b.re_, a.im_ - b.im_};
  }
  friend basic_gcomplex operator*(basic_gcomplex a, basic_gcomplex b) {
    return {gfma(a.re_, b.re_, -(a.im_ * b.im_)),
            gfma(a.re_, b.im_, a.im_ * b.re_)};
  }
  /// Scale by a real.
  friend basic_gcomplex operator*(basic_gcomplex a, real_type s) {
    return {a.re_ * s, a.im_ * s};
  }
  friend basic_gcomplex operator*(real_type s, basic_gcomplex a) { return a * s; }
  friend basic_gcomplex operator/(basic_gcomplex a, real_type s) {
    return {a.re_ / s, a.im_ / s};
  }
  basic_gcomplex operator-() const { return {-re_, -im_}; }

  basic_gcomplex& operator+=(basic_gcomplex b) { *this = *this + b; return *this; }
  basic_gcomplex& operator-=(basic_gcomplex b) { *this = *this - b; return *this; }

  basic_gcomplex conj() const { return {re_, -im_}; }
  /// |z|^2 = re^2 + im^2.
  real_type norm2() const { return gfma(re_, re_, im_ * im_); }

 private:
  real_type re_{0.0f};
  real_type im_{0.0f};
};

using gcomplex = basic_gcomplex<true>;

}  // namespace regla::simt

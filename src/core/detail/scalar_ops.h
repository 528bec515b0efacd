// Scalar abstraction that lets the per-block kernels be written once for
// real (basic_gfloat) and complex (basic_gcomplex) arithmetic, under either
// counting policy C.
#pragma once

#include <complex>

#include "simt/gfloat.h"

namespace regla::core::detail {

using simt::basic_gcomplex;
using simt::basic_gfloat;

// --- generic helpers ---------------------------------------------------
template <bool C>
basic_gfloat<C> conj_of(basic_gfloat<C> x) { return x; }
template <bool C>
basic_gcomplex<C> conj_of(basic_gcomplex<C> z) { return z.conj(); }

/// acc + |x|^2 (counted as a MAC for the real case).
template <bool C>
basic_gfloat<C> abs2_acc(basic_gfloat<C> x, basic_gfloat<C> acc) {
  return gfma(x, x, acc);
}
template <bool C>
basic_gfloat<C> abs2_acc(basic_gcomplex<C> z, basic_gfloat<C> acc) {
  return gfma(z.re(), z.re(), gfma(z.im(), z.im(), acc));
}

/// acc + conj(a) * b.
template <bool C>
basic_gfloat<C> mac_conj(basic_gfloat<C> a, basic_gfloat<C> b,
                         basic_gfloat<C> acc) {
  return gfma(a, b, acc);
}
template <bool C>
basic_gcomplex<C> mac_conj(basic_gcomplex<C> a, basic_gcomplex<C> b,
                           basic_gcomplex<C> acc) {
  return acc + a.conj() * b;
}

/// Result of the Householder reflector head computation for column c:
/// v_head = 1 implied; the column scales by `inv`; A(c,c) becomes `beta`.
template <typename S>
struct Reflector {
  using Real = basic_gfloat<S::counted>;
  S tau{};     // scalar factor (conjugated form applied in-factorization)
  S inv{};     // 1 / (alpha - beta)
  Real beta{0.0f};
  bool skip = false;
};

/// Real Householder head: alpha = A(c,c), sigma = sum of squares below.
template <bool C>
Reflector<basic_gfloat<C>> make_reflector(basic_gfloat<C> alpha,
                                          basic_gfloat<C> sigma) {
  using F = basic_gfloat<C>;
  Reflector<F> r;
  if (sigma.value() == 0.0f) {
    r.skip = true;
    r.beta = alpha;
    return r;
  }
  F beta = gsqrt(abs2_acc(alpha, sigma));
  if (alpha.value() > 0.0f) beta = -beta;
  r.beta = beta;
  r.tau = (beta - alpha) / beta;
  r.inv = F(1.0f) / (alpha - beta);
  return r;
}

/// Complex Householder head (clarfg with real beta).
template <bool C>
Reflector<basic_gcomplex<C>> make_reflector(basic_gcomplex<C> alpha,
                                            basic_gfloat<C> sigma) {
  using F = basic_gfloat<C>;
  using Z = basic_gcomplex<C>;
  Reflector<Z> r;
  const F alphr = alpha.re();
  const F alphi = alpha.im();
  if (sigma.value() == 0.0f && alphi.value() == 0.0f) {
    r.skip = true;
    r.beta = alphr;
    return r;
  }
  F beta = gsqrt(abs2_acc(alpha, sigma));
  if (alphr.value() > 0.0f) beta = -beta;
  r.beta = beta;
  r.tau = Z((beta - alphr) / beta, -(alphi / beta));
  const Z denom = alpha - Z(beta, F(0.0f));
  // 1/z = conj(z) / |z|^2.
  const F d2 = denom.norm2();
  r.inv = Z(denom.re() / d2, -(denom.im() / d2));
  return r;
}

/// Diagonal replacement after forming a reflector: beta, unless the column
/// was already zero below the diagonal (skip), in which case alpha stays.
template <bool C>
basic_gfloat<C> to_scalar(basic_gfloat<C> beta, basic_gfloat<C> alpha,
                          bool skip) {
  return skip ? alpha : beta;
}
template <bool C>
basic_gcomplex<C> to_scalar(basic_gfloat<C> beta, basic_gcomplex<C> alpha,
                            bool skip) {
  return skip ? alpha : basic_gcomplex<C>(beta, basic_gfloat<C>(0.0f));
}

/// Full scalar division (complex divide kept out of gcomplex's API so its
/// FLOP cost stays explicit: two real divides plus the norm).
template <bool C>
basic_gfloat<C> div_scalar(basic_gfloat<C> a, basic_gfloat<C> b) {
  return a / b;
}
template <bool C>
basic_gcomplex<C> div_scalar(basic_gcomplex<C> a, basic_gcomplex<C> b) {
  const basic_gfloat<C> d = b.norm2();
  const basic_gcomplex<C> num = a * b.conj();
  return {num.re() / d, num.im() / d};
}

}  // namespace regla::core::detail

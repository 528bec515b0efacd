#include "oracle.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/generators.h"
#include "planner/op_traits.h"

namespace perfbench {

using regla::BatchF;
using regla::planner::FillKind;
using regla::planner::Op;

namespace {

void fill(BatchF& batch, FillKind kind, std::uint64_t seed) {
  switch (kind) {
    case FillKind::uniform: regla::fill_uniform(batch, seed); return;
    case FillKind::diag_dominant:
      regla::fill_diag_dominant(batch, seed);
      return;
    case FillKind::spd: regla::fill_spd(batch, seed); return;
  }
}

}  // namespace

regla::ops::Call call_of(Payload& p) {
  regla::ops::Call call;
  call.a = &p.a;
  if (p.b.count() > 0) call.b = &p.b;
  return call;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull +
                    stream * 0xD1B54A32D192ED03ull + index +
                    0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Payload make_inputs(Op op, int count, int n, std::uint64_t seed) {
  Payload p;
  p.a = BatchF(count, n, n);
  if (regla::planner::op_traits(op).rhs != regla::planner::RhsShape::none)
    p.b = BatchF(count, n, 1);
  fill_inputs(op, n, seed, p);
  return p;
}

void fill_inputs(Op op, int n, std::uint64_t seed, Payload& out) {
  const regla::planner::OpTraits& t = regla::planner::op_traits(op);
  REGLA_CHECK(out.a.rows() == n && out.a.cols() == n);
  // The generators write owned batches; borrowed leases get a copy.
  BatchF a(out.a.count(), n, n);
  fill(a, t.fill, seed);
  std::copy(a.data(), a.data() + a.size(), out.a.data());
  if (out.b.count() > 0) {
    BatchF b(out.b.count(), out.b.rows(), 1);
    fill(b, t.rhs_fill, mix(seed, 1, 0));
    std::copy(b.data(), b.data() + b.size(), out.b.data());
  }
}

Payload reference(Op op, const Payload& pristine,
                  regla::cpu::ThreadPool& pool) {
  Payload ref = pristine;  // a deep, owned copy even of a borrowed batch
  regla::ops::run_cpu(op, call_of(ref), pool);
  return ref;
}

double max_rel_error(Op op, const Payload& got, const Payload& ref) {
  const bool solve = op == Op::solve_qr || op == Op::solve_gj;
  const BatchF& g = solve ? got.b : got.a;
  const BatchF& r = solve ? ref.b : ref.a;
  if (g.count() != r.count() || g.rows() != r.rows() || g.cols() != r.cols())
    return INFINITY;
  double worst = 0;
  for (int k = 0; k < r.count(); ++k) {
    double diff = 0, norm = 0;
    for (int j = 0; j < r.cols(); ++j)
      for (int i = 0; i < r.rows(); ++i) {
        if (op == Op::qr && i > j) continue;        // R only
        if (op == Op::cholesky && i < j) continue;  // L only
        // R is unique only up to the sign of each row: a Householder step
        // whose pivot is near zero may reflect either way.
        const double sign =
            op == Op::qr && (g.at(k, i, i) < 0) != (r.at(k, i, i) < 0) ? -1 : 1;
        const double d = sign * double(g.at(k, i, j)) - double(r.at(k, i, j));
        diff += d * d;
        norm += double(r.at(k, i, j)) * double(r.at(k, i, j));
      }
    const double e = std::sqrt(diff) / std::max(std::sqrt(norm), 1e-30);
    worst = std::isnan(e) ? INFINITY : std::max(worst, e);
  }
  return worst;
}

}  // namespace perfbench

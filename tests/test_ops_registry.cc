// The op dispatch registry: completeness of the registered table, typed
// errors on misuse (duplicate registration, missing backend), traits-driven
// validation, and the introspection surface.
#include <gtest/gtest.h>

#include "common/error.h"
#include "obs/metrics.h"
#include "ops/registry.h"
#include "planner/op_traits.h"
#include "simt/engine.h"

namespace regla {
namespace {

using planner::Dtype;
using planner::Op;

// Tier-1 wiring check: every device op must come with its cpu reference (the
// runtime's circuit-breaker fallback and the tests' oracle) and a traits
// operation-count function — an op missing either is a registration bug.
TEST(OpsRegistry, DeviceOpsComplete) {
  const auto entries = ops::list();
  ASSERT_FALSE(entries.empty());
  int device_entries = 0;
  for (const ops::OpInfo& e : entries) {
    if (e.backend != ops::Backend::device) continue;
    ++device_entries;
    EXPECT_TRUE(ops::registered(e.op, e.dtype, ops::Backend::cpu))
        << planner::to_string(e.op) << " " << planner::to_string(e.dtype)
        << " has a device kernel but no cpu reference";
    EXPECT_TRUE(e.has_flops) << planner::to_string(e.op);
    EXPECT_GT(planner::op_traits(e.op).flops(8, 8, e.dtype), 0.0)
        << planner::to_string(e.op);
  }
  EXPECT_GT(device_entries, 0);
}

// The paper's four ops plus the zoo, f32 on both backends; c64 only where
// complex kernels exist (QR, paper §VII).
TEST(OpsRegistry, ListCoversPaperOpsAndZoo) {
  for (Op op : {Op::qr, Op::lu, Op::solve_qr, Op::solve_gj, Op::least_squares,
                Op::cholesky, Op::trsm}) {
    EXPECT_TRUE(ops::registered(op, Dtype::f32, ops::Backend::device))
        << planner::to_string(op);
    EXPECT_TRUE(ops::registered(op, Dtype::f32, ops::Backend::cpu))
        << planner::to_string(op);
  }
  EXPECT_TRUE(ops::registered(Op::qr, Dtype::c64, ops::Backend::device));
  EXPECT_TRUE(ops::registered(Op::qr, Dtype::c64, ops::Backend::cpu));
  EXPECT_FALSE(ops::registered(Op::lu, Dtype::c64, ops::Backend::device));

  // list() is sorted and mirrors registered().
  const auto entries = ops::list();
  for (const ops::OpInfo& e : entries)
    EXPECT_TRUE(ops::registered(e.op, e.dtype, e.backend));
}

TEST(OpsRegistry, DuplicateRegistrationThrows) {
  ops::DeviceFn dummy = [](simt::Device&, const planner::Plan&,
                           const ops::Call&) { return SolveReport{}; };
  EXPECT_THROW(ops::Registration(Op::qr, Dtype::f32, ops::Backend::device,
                                 dummy),
               ops::DuplicateOpError);
  // The losing registration must not have clobbered the live entry.
  EXPECT_TRUE(ops::registered(Op::qr, Dtype::f32, ops::Backend::device));
}

// A lookup miss is a typed error, not a crash — callers (the runtime, user
// code probing run()) can catch and degrade.
TEST(OpsRegistry, MissingBackendIsTypedError) {
  simt::Device dev;
  BatchC a(1, 8, 8);
  ops::Call call;
  call.ca = &a;
  EXPECT_THROW(ops::run_device(dev, Op::lu, planner::Plan{}, call),
               ops::UnregisteredOpError);
  cpu::ThreadPool pool(1);
  EXPECT_THROW(ops::run_cpu(Op::lu, call, pool), ops::UnregisteredOpError);
}

// Static registration published one introspection gauge per entry; nothing
// zeroes an instrument, so the gauges read 1 for the process lifetime.
TEST(OpsRegistry, RegisteredGaugePerEntry) {
  EXPECT_EQ(obs::gauge_value("ops.registered",
                             "op=cholesky,dtype=f32,backend=device"),
            1.0);
  EXPECT_EQ(obs::gauge_value("ops.registered",
                             "op=trsm,dtype=f32,backend=cpu"),
            1.0);
  EXPECT_EQ(obs::gauge_value("ops.registered",
                             "op=qr,dtype=c64,backend=device"),
            1.0);
}

TEST(OpsRegistry, ValidateEnforcesTraits) {
  BatchF square(2, 8, 8), rect(2, 12, 8), rhs(2, 8, 1), bad_rhs(2, 12, 1);

  ops::Call lu_rect;
  lu_rect.a = &rect;
  EXPECT_THROW(ops::validate(Op::lu, lu_rect), Error);

  ops::Call qr_with_rhs;
  qr_with_rhs.a = &square;
  qr_with_rhs.b = &rhs;
  EXPECT_THROW(ops::validate(Op::qr, qr_with_rhs), Error);

  ops::Call solve_bad;
  solve_bad.a = &square;
  solve_bad.b = &bad_rhs;
  EXPECT_THROW(ops::validate(Op::solve_qr, solve_bad), Error);

  ops::Call chol_ok;
  chol_ok.a = &square;
  EXPECT_NO_THROW(ops::validate(Op::cholesky, chol_ok));

  ops::Call trsm_ok;
  trsm_ok.a = &square;
  trsm_ok.b = &rhs;
  EXPECT_NO_THROW(ops::validate(Op::trsm, trsm_ok));

  ops::Call empty;
  BatchF none;
  empty.a = &none;
  EXPECT_THROW(ops::validate(Op::qr, empty), Error);
}

TEST(OpsRegistry, NominalFlopsUsesTraitsFormula) {
  BatchF a(3, 8, 8);
  ops::Call call;
  call.a = &a;
  const double per_problem =
      planner::op_traits(Op::cholesky).flops(8, 8, Dtype::f32);
  EXPECT_DOUBLE_EQ(ops::nominal_flops(Op::cholesky, call), 3 * per_problem);
}

}  // namespace
}  // namespace regla

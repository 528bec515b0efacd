// Golden results for every kernel family the simulator runs.
//
// Each case runs one core driver on fixed-seed inputs with a small ragged
// batch and folds an FNV-1a digest over every output buffer and the exact
// LaunchResult (chip_cycles, seconds, totals, breakdown and the occupancy
// fields, doubles by bit pattern). The pinned digests fix both the numerics
// and the accounting: a change to how the engine executes kernels must leave
// every one of them untouched. Each case is pinned twice:
//  - replay off: every block fully instrumented;
//  - replay on: the same inputs launched twice on a replay-enabled device
//    (a cache miss, then a hit), both launches folded into one digest.
//
// After a deliberate change to kernel numerics or the timing model,
// regenerate the table with REGLA_GOLDEN_PRINT=1 and say why in the commit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string_view>
#include <vector>

#include "common/generators.h"
#include "core/eig_jacobi.h"
#include "core/gemm_block.h"
#include "core/per_block.h"
#include "core/per_block_ext.h"
#include "core/per_thread.h"
#include "core/tiled_qr.h"
#include "simt/engine.h"

namespace regla {
namespace {

struct Digest {
  std::uint64_t h = 14695981039346656037ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  template <typename T>
  void batch(const BatchedMatrix<T>& b) {
    u64(b.size());
    bytes(b.data(), b.bytes());
  }
  void ints(const std::vector<int>& v) {
    u64(v.size());
    bytes(v.data(), v.size() * sizeof(int));
  }
  void launch(const simt::LaunchResult& r) {
    f64(r.chip_cycles);
    f64(r.seconds);
    f64(r.block_cycles_avg);
    u64(static_cast<std::uint64_t>(r.blocks_per_sm));
    u64(static_cast<std::uint64_t>(r.occupancy_limiter));
    u64(static_cast<std::uint64_t>(r.waves));
    u64(r.shared_bytes_per_block);
    const simt::LaunchCounters& t = r.totals;
    for (std::uint64_t v : {t.flops, t.divs, t.sqrts, t.sh_accesses, t.gl_bytes,
                            t.spill_bytes, t.syncs, t.addr_truncations})
      u64(v);
    u64(r.breakdown.size());
    for (const simt::TaggedCycles& c : r.breakdown) {
      u64(static_cast<std::uint64_t>(c.panel));
      u64(static_cast<std::uint64_t>(c.tag));
      f64(c.cycles);
    }
  }
  void tiled(const core::TiledResult& r) {
    f64(r.seconds);
    f64(r.chip_cycles);
    f64(r.nominal_flops);
    u64(static_cast<std::uint64_t>(r.steps));
    u64(static_cast<std::uint64_t>(r.tile_rows));
  }
};

constexpr std::uint64_t kSeed = 20120521;
constexpr int kCount = 5;          // per-block cases: 5 blocks, ragged vs reps
constexpr int kThreadCount = 300;  // per-thread cases: 256 + a 44-lane tail

BatchF uniform(int count, int m, int n, std::uint64_t salt) {
  BatchF b(count, m, n);
  fill_uniform(b, kSeed + salt);
  return b;
}
BatchF dominant(int count, int n, std::uint64_t salt) {
  BatchF b(count, n, n);
  fill_diag_dominant(b, kSeed + salt);
  return b;
}

/// One kernel family: runs its driver on freshly generated inputs and folds
/// the outputs and launch results into `d`.
struct Case {
  const char* name;
  bool data_independent;  ///< mirrors planner::OpTraits; gates replay-on
  std::function<void(simt::Device&, Digest&)> run;
};

/// Digests computed before the engine ran kernels as barrier-delimited
/// phases; every execution strategy since must reproduce them exactly.
struct Pin {
  const char* name;
  std::uint64_t off;  ///< replay off
  std::uint64_t on;   ///< replay on (miss + hit)
};
constexpr Pin kPins[] = {
    {"qr_f32", 0xe64f7c60eafdaeb8ull, 0x24f3421fd9c6a8a1ull},
    {"qr_c64", 0xa267be1bebca8489ull, 0x9eb0fc22d4588705ull},
    {"2d_cyclic", 0xd06a127c7811e991ull, 0x1bc4421f12cc7d65ull},
    {"1d_row_cyclic", 0x4dc1c6f5f638d417ull, 0x4e4636d436763c4dull},
    {"1d_col_cyclic", 0x8767c680b2caa12bull, 0x0a551b183bfff3b1ull},
    {"least_squares", 0x745413d4f0c7cfb2ull, 0x4a2d0649640e63d1ull},
    {"lu", 0x1fc2de7b1a21967cull, 0x3fdc0e68855916d1ull},
    {"gj", 0xf26a41c01307d6d9ull, 0xb1ab47d4ed99a60dull},
    {"cholesky", 0x20d46bcc281a175cull, 0x34ed51819f1520c5ull},
    {"lu_pivot", 0xf8cc7afc13c961ccull, 0x42758a6398e454d5ull},
    {"normal_eq_f32", 0x15b31e727253b753ull, 0xed64c20792587795ull},
    {"normal_eq_c64", 0x147e79f4cd2e0187ull, 0xfa2a9cdd62970a05ull},
    {"trsm", 0xdca404c92aa26bb6ull, 0x0915332dd172031dull},
    {"apply_qt", 0x965a97b147f51855ull, 0x8073e3e9ad1e3465ull},
    {"gemm", 0x399d0ea31c825939ull, 0x278914c5224ce71dull},
    {"eig_jacobi", 0x5316f13a8c1d1046ull, 0x41b63b2da7b21669ull},
    {"qr_per_thread", 0x6e6ce42b85a157e9ull, 0xa465ed9c86be7045ull},
    {"lu_per_thread", 0x9e97ab7a3b42287full, 0x6da75550bc1e9f89ull},
    {"gj_per_thread", 0x9cb0afa91336f740ull, 0x5f2672440aeda665ull},
    {"tiled_qr", 0x9c17abafd6b8aac8ull, 0xf3578b136edd71a1ull},
    {"tiled_least_squares", 0x9f9ac66d47943e25ull, 0xb1fc7eb13d661925ull},
};

const Pin* find_pin(const char* name) {
  for (const Pin& p : kPins)
    if (std::string_view(p.name) == name) return &p;
  return nullptr;
}

std::vector<Case> cases() {
  using namespace core;
  std::vector<Case> v;
  v.push_back({"qr_f32", true, [](simt::Device& dev, Digest& d) {
    BatchF a = uniform(kCount, 20, 16, 1), taus;
    d.launch(qr_per_block(dev, a, &taus).launch);
    d.batch(a);
    d.batch(taus);
  }});
  v.push_back({"qr_c64", true, [](simt::Device& dev, Digest& d) {
    BatchC a(kCount, 14, 12), taus;
    fill_uniform(a, kSeed + 2);
    d.launch(qr_per_block(dev, a, &taus).launch);
    d.batch(a);
    d.batch(taus);
  }});
  for (Layout layout : {Layout::cyclic2d, Layout::row1d, Layout::col1d}) {
    v.push_back({to_string(layout), true, [layout](simt::Device& dev, Digest& d) {
      BatchF a = dominant(kCount, 12, 3), b = uniform(kCount, 12, 1, 4);
      BlockOptions opt;
      opt.layout = layout;
      d.launch(qr_solve_per_block(dev, a, b, opt).launch);
      d.batch(a);
      d.batch(b);
    }});
  }
  v.push_back({"least_squares", true, [](simt::Device& dev, Digest& d) {
    BatchF a = uniform(kCount, 20, 10, 5), b = uniform(kCount, 20, 1, 6);
    d.launch(ls_per_block(dev, a, b).launch);
    d.batch(a);
    d.batch(b);
  }});
  v.push_back({"lu", true, [](simt::Device& dev, Digest& d) {
    BatchF a = dominant(kCount, 16, 7);
    std::vector<int> flags;
    d.launch(lu_per_block(dev, a, &flags).launch);
    d.batch(a);
    d.ints(flags);
  }});
  v.push_back({"gj", true, [](simt::Device& dev, Digest& d) {
    BatchF a = dominant(kCount, 16, 8), b = uniform(kCount, 16, 1, 9);
    std::vector<int> flags;
    d.launch(gj_solve_per_block(dev, a, b, &flags).launch);
    d.batch(b);
    d.ints(flags);
  }});
  v.push_back({"cholesky", true, [](simt::Device& dev, Digest& d) {
    BatchF a(kCount, 16, 16);
    fill_spd(a, kSeed + 10);
    std::vector<int> flags;
    d.launch(cholesky_per_block(dev, a, &flags).launch);
    d.batch(a);
    d.ints(flags);
  }});
  v.push_back({"lu_pivot", false, [](simt::Device& dev, Digest& d) {
    BatchF a = uniform(kCount, 12, 12, 11);
    BatchedMatrix<int> piv;
    std::vector<int> flags;
    d.launch(lu_pivot_per_block(dev, a, &piv, &flags).launch);
    d.batch(a);
    d.batch(piv);
    d.ints(flags);
  }});
  v.push_back({"normal_eq_f32", true, [](simt::Device& dev, Digest& d) {
    BatchF r = dominant(kCount, 12, 12), rhs = uniform(kCount, 12, 1, 13), w;
    d.launch(normal_eq_solve_per_block(dev, r, rhs, w).launch);
    d.batch(w);
  }});
  v.push_back({"normal_eq_c64", true, [](simt::Device& dev, Digest& d) {
    BatchC r(kCount, 12, 12), rhs(kCount, 12, 1), w;
    fill_diag_dominant(r, kSeed + 14);
    fill_uniform(rhs, kSeed + 15);
    d.launch(normal_eq_solve_per_block(dev, r, rhs, w).launch);
    d.batch(w);
  }});
  v.push_back({"trsm", true, [](simt::Device& dev, Digest& d) {
    BatchF l = dominant(kCount, 16, 16), b = uniform(kCount, 16, 1, 17);
    std::vector<int> flags;
    d.launch(trsm_lower_per_block(dev, l, b, &flags).launch);
    d.batch(b);
    d.ints(flags);
  }});
  v.push_back({"apply_qt", true, [](simt::Device& dev, Digest& d) {
    // The factors come from an unpinned device so only apply_qt's own
    // launch lands in the digest.
    BatchF qr = uniform(kCount, 16, 12, 18), taus;
    simt::Device factor_dev;
    qr_per_block(factor_dev, qr, &taus);
    BatchF b = uniform(kCount, 16, 1, 19);
    d.launch(apply_qt_per_block(dev, qr, taus, b).launch);
    d.batch(b);
  }});
  v.push_back({"gemm", true, [](simt::Device& dev, Digest& d) {
    BatchF a = uniform(kCount, 12, 10, 20), b = uniform(kCount, 10, 14, 21), c;
    d.launch(gemm_per_block(dev, a, b, c).launch);
    d.batch(c);
  }});
  v.push_back({"eig_jacobi", false, [](simt::Device& dev, Digest& d) {
    BatchF a = uniform(kThreadCount, 6, 6, 22), ev;
    for (int k = 0; k < a.count(); ++k)  // symmetrize
      for (int j = 0; j < 6; ++j)
        for (int i = 0; i < j; ++i) a.at(k, j, i) = a.at(k, i, j);
    d.launch(eig_sym_per_thread(dev, a, ev, 3).launch);
    d.batch(ev);
  }});
  v.push_back({"qr_per_thread", true, [](simt::Device& dev, Digest& d) {
    BatchF a = uniform(kThreadCount, 8, 8, 23), taus;
    d.launch(qr_per_thread(dev, a, &taus).launch);
    d.batch(a);
    d.batch(taus);
  }});
  v.push_back({"lu_per_thread", true, [](simt::Device& dev, Digest& d) {
    BatchF a = dominant(kThreadCount, 8, 24);
    d.launch(lu_per_thread(dev, a).launch);
    d.batch(a);
  }});
  v.push_back({"gj_per_thread", true, [](simt::Device& dev, Digest& d) {
    BatchF a = dominant(kThreadCount, 8, 25), b = uniform(kThreadCount, 8, 1, 26);
    std::vector<int> flags;
    d.launch(gj_solve_per_thread(dev, a, b, &flags).launch);
    d.batch(b);
    d.ints(flags);
  }});
  v.push_back({"tiled_qr", false, [](simt::Device& dev, Digest& d) {
    BatchF a = uniform(kCount, 160, 8, 27), r;
    d.tiled(tiled_qr_r(dev, a, r));
    d.batch(r);
  }});
  v.push_back({"tiled_least_squares", false, [](simt::Device& dev, Digest& d) {
    BatchF a = uniform(kCount, 160, 8, 28), b = uniform(kCount, 160, 1, 29), x;
    d.tiled(tiled_least_squares(dev, a, b, x));
    d.batch(x);
  }});
  return v;
}

std::uint64_t run_off(const Case& c) {
  simt::Device dev;
  Digest d;
  c.run(dev, d);
  return d.h;
}

std::uint64_t run_on(const Case& c) {
  simt::Device dev;
  dev.set_replay(true);
  simt::Device::ReplayScope scope(dev, c.data_independent, /*salt=*/0x601d);
  Digest d;
  c.run(dev, d);  // miss: representatives instrumented, the rest replayed
  c.run(dev, d);  // hit: every block replayed
  return d.h;
}

TEST(KernelGolden, ResultsAndAccountingMatchPinnedDigests) {
  const bool print = std::getenv("REGLA_GOLDEN_PRINT") != nullptr;
  for (const Case& c : cases()) {
    const std::uint64_t off = run_off(c);
    const std::uint64_t on = run_on(c);
    if (print) {
      std::printf("    {\"%s\", 0x%016llxull, 0x%016llxull},\n", c.name,
                  static_cast<unsigned long long>(off),
                  static_cast<unsigned long long>(on));
      continue;
    }
    const Pin* pin = find_pin(c.name);
    ASSERT_NE(pin, nullptr) << c.name << " has no pinned digest";
    EXPECT_EQ(off, pin->off) << c.name << " (replay off)";
    EXPECT_EQ(on, pin->on) << c.name << " (replay on)";
  }
}

}  // namespace
}  // namespace regla

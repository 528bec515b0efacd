// Tests for the SIMT launch engine: barrier semantics, shared memory,
// instrumentation, occupancy plumbing, determinism.
#include <gtest/gtest.h>

#include <complex>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/generators.h"
#include "core/per_block.h"
#include "simt/simt.h"

namespace regla::simt {
namespace {

TEST(Engine, EveryThreadOfEveryBlockRuns) {
  Device dev;
  std::vector<int> hits(4 * 32, 0);
  int* h = hits.data();
  LaunchSpec spec;
  spec.blocks = 4;
  spec.threads = 32;
  dev.launch(spec, [=](auto& ctx) {
    auto g = ctx.global(h);
    ctx.lanes([&](int t) { g.st(ctx.block() * 32 + t, 1); });
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 4 * 32);
}

TEST(Engine, BarrierOrdersPhases) {
  // Classic neighbor exchange: without a working barrier, thread t would
  // read its neighbor's stale value.
  Device dev;
  LaunchSpec spec;
  spec.blocks = 2;
  spec.threads = 64;
  std::vector<int> out(2 * 64, -1);
  int* op = out.data();
  dev.launch(spec, [=](auto& ctx) {
    auto sh = ctx.template shared<int>(64);
    ctx.lanes([&](int t) { sh.st(t, t * 10); });
    ctx.sync();
    auto g = ctx.global(op);
    ctx.lanes([&](int t) {
      const int neighbor = sh.ld((t + 1) % 64);
      g.st(ctx.block() * 64 + t, neighbor);
    });
  });
  for (int b = 0; b < 2; ++b)
    for (int t = 0; t < 64; ++t) EXPECT_EQ(out[b * 64 + t], ((t + 1) % 64) * 10);
}

TEST(Engine, ManyBarriersAllArrive) {
  Device dev;
  LaunchSpec spec;
  spec.threads = 96;
  std::vector<int> final_val(1, 0);
  int* fv = final_val.data();
  auto res = dev.launch(spec, [=](auto& ctx) {
    auto sh = ctx.template shared<int>(1);
    ctx.lanes([&](int t) {
      if (t == 0) sh.st(0, 0);
    });
    ctx.sync();
    for (int i = 0; i < 10; ++i) {
      ctx.lanes([&](int t) {
        if (t == i % ctx.nthreads()) sh.st(0, sh.ld(0) + 1);
      });
      ctx.sync();
    }
    ctx.lanes([&](int t) {
      if (t == 0) ctx.global(fv).st(0, sh.ld(0));
    });
  });
  EXPECT_EQ(final_val[0], 10);
  EXPECT_EQ(res.totals.syncs, 11u);
}

TEST(Engine, EarlyExitThreadsDoNotBlockBarriers) {
  Device dev;
  LaunchSpec spec;
  spec.threads = 64;
  std::vector<int> count(1, 0);
  int* cp = count.data();
  const auto res = dev.launch(spec, [=](auto& ctx) {
    auto sh = ctx.template shared<int>(32);
    ctx.lanes([&](int t) {
      if (t >= 32) return ctx.retire();  // half the block leaves immediately
      sh.st(t, 1);
    });
    ctx.sync();
    ctx.lanes([&](int t) {
      EXPECT_LT(t, 32) << "a retired lane ran a later phase";
      if (t == 0) {
        int total = 0;
        for (int i = 0; i < 32; ++i) total += sh.ld(i);
        ctx.global(cp).st(0, total);
      }
    });
  });
  EXPECT_EQ(count[0], 32);
  EXPECT_EQ(res.totals.syncs, 1u);
}

TEST(Engine, SamePhaseSharedWritesSeenInAscendingTidOrder) {
  // Within one phase lane t runs after lanes 0..t-1 and before t+1..: it sees
  // its lower neighbor's write and not yet its upper neighbor's.
  Device dev;
  LaunchSpec spec;
  spec.threads = 64;
  std::vector<int> below(64, -1), above(64, -1);
  int* bp = below.data();
  int* ap = above.data();
  dev.launch(spec, [=](auto& ctx) {
    auto sh = ctx.template shared<int>(65);
    auto gb = ctx.global(bp);
    auto ga = ctx.global(ap);
    ctx.lanes([&](int t) {
      sh.st(t + 1, t + 1);
      gb.st(t, sh.ld(t));
      ga.st(t, t + 2 <= 64 ? sh.ld(t + 2) : 0);
    });
  });
  for (int t = 0; t < 64; ++t) {
    EXPECT_EQ(below[t], t) << t;  // lane t-1's write (or the zero fill)
    EXPECT_EQ(above[t], 0) << t;  // lane t+1 has not run yet
  }
}

/// A QR batch's outputs and launch result, for bitwise comparisons.
struct QrRun {
  BatchF a, taus;
  LaunchResult res;
};
QrRun run_qr(Device& dev) {
  QrRun out{BatchF(6, 16, 16), BatchF(), {}};
  fill_uniform(out.a, 7);
  out.res = core::qr_per_block(dev, out.a, &out.taus).launch;
  return out;
}

void expect_same(const QrRun& x, const QrRun& y) {
  ASSERT_EQ(x.a.size(), y.a.size());
  EXPECT_EQ(0, std::memcmp(x.a.data(), y.a.data(), x.a.bytes()));
  EXPECT_EQ(0, std::memcmp(x.taus.data(), y.taus.data(), x.taus.bytes()));
  EXPECT_EQ(x.res.chip_cycles, y.res.chip_cycles);
  EXPECT_EQ(x.res.totals.flops, y.res.totals.flops);
  EXPECT_EQ(x.res.totals.sh_accesses, y.res.totals.sh_accesses);
  EXPECT_EQ(x.res.totals.syncs, y.res.totals.syncs);
  ASSERT_EQ(x.res.breakdown.size(), y.res.breakdown.size());
  for (std::size_t i = 0; i < x.res.breakdown.size(); ++i)
    EXPECT_EQ(x.res.breakdown[i].cycles, y.res.breakdown[i].cycles);
}

TEST(Engine, LaneErrorLeavesLaunchAndDeviceStaysExact) {
  for (int workers : {1, 3}) {
    Device fresh;
    fresh.set_host_workers(workers);
    const QrRun want = run_qr(fresh);

    Device dev;
    dev.set_host_workers(workers);
    LaunchSpec spec;
    spec.blocks = 4;
    spec.threads = 32;
    try {
      dev.launch(spec, [](auto& ctx) {
        using F = real_t<decltype(ctx)>;
        auto sh = ctx.template shared<float>(32);
        auto tile = ctx.lane_state(
            [&](int) { return ctx.template reg_tile<F>(4, 4); });
        ctx.lanes([&](int t) {
          tile[t].set(0, 0, F(1.0f));
          sh.st(t, F(2.0f));
        });
        ctx.sync();
        ctx.lanes([&](int t) {
          // Lane 5 of block 2 fails mid-phase, after its siblings started.
          REGLA_CHECK_MSG(!(ctx.block() == 2 && t == 5), "lane 5 gave up");
          sh.st(t, sh.ld(t) + tile[t].get(0, 0));
        });
        ctx.sync();
      });
      ADD_FAILURE() << "the lane's error did not leave launch()";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("lane 5 gave up"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(current_stats(), nullptr);
    expect_same(run_qr(dev), want);
  }
}

TEST(Engine, SharedAllocationSizeMismatchThrows) {
  Device dev;
  LaunchSpec spec;
  spec.threads = 2;
  EXPECT_THROW(dev.launch(spec,
                          [](auto& ctx) {
                            // Thread-dependent allocation size: illegal, so
                            // shared arrays cannot be declared per lane.
                            ctx.lanes([&](int t) {
                              ctx.template shared<float>(t == 0 ? 8 : 16);
                            });
                          }),
               Error);
}

TEST(Engine, FlopCountsMatchKernelArithmetic) {
  Device dev;
  LaunchSpec spec;
  spec.blocks = 3;
  spec.threads = 16;
  auto res = dev.launch(spec, [](auto& ctx) {
    using F = real_t<decltype(ctx)>;
    ctx.lanes([](int) {
      F acc(0.0f);
      for (int i = 0; i < 10; ++i) acc = gfma(acc, F(1.5f), F(0.5f));
      F d = acc / F(2.0f);
      F s = gsqrt(d);
      (void)s;
    });
  });
  // 3 blocks * 16 threads * (10 FMA = 20 flops + 1 div + 1 sqrt).
  EXPECT_EQ(res.totals.flops, 3u * 16u * 22u);
  EXPECT_EQ(res.totals.divs, 3u * 16u);
  EXPECT_EQ(res.totals.sqrts, 3u * 16u);
}

TEST(Engine, GlobalBytesCounted) {
  Device dev;
  std::vector<float> x(1024, 1.0f);
  float* xp = x.data();
  LaunchSpec spec;
  spec.threads = 128;
  auto res = dev.launch(spec, [=](auto& ctx) {
    using F = real_t<decltype(ctx)>;
    auto g = ctx.global(xp);
    ctx.lanes([&](int t) {
      F v = g.ld(t);
      g.st(512 + t, v);
    });
  });
  EXPECT_EQ(res.totals.gl_bytes, 128u * 2u * 4u);
}

TEST(Engine, TagBreakdownCoversAllCycles) {
  Device dev;
  LaunchSpec spec;
  spec.threads = 32;
  auto res = dev.launch(spec, [](auto& ctx) {
    using F = real_t<decltype(ctx)>;
    ctx.tag(OpTag::form_hh);
    ctx.lanes([](int) {
      F a = F(1.0f) + F(2.0f);
      (void)a;
    });
    ctx.sync();
    ctx.tag(OpTag::rank1);
    ctx.lanes([](int) {
      F b = F(3.0f) * F(3.0f);
      (void)b;
    });
  });
  double tagged = 0;
  for (const auto& t : res.breakdown) tagged += t.cycles;
  EXPECT_NEAR(tagged, res.block_cycles_avg, 1e-6);
  EXPECT_GT(res.cycles_for(OpTag::form_hh), 0.0);
  EXPECT_GT(res.cycles_for(OpTag::rank1), 0.0);
}

TEST(Engine, OccupancyLimitsReported) {
  Device dev;
  LaunchSpec spec;
  spec.blocks = 200;
  spec.threads = 64;
  spec.regs_per_thread = 64;
  auto res = dev.launch(spec, [](auto&) {});
  EXPECT_EQ(res.blocks_per_sm, 8);  // max-blocks limited on GF100
  EXPECT_EQ(res.waves, 2);          // ceil(200 / 112)
}

TEST(Engine, RegisterLimitedOccupancy) {
  Device dev;
  LaunchSpec spec;
  spec.blocks = 64;
  spec.threads = 256;
  spec.regs_per_thread = 64;  // 256 * 64 * K <= 32768 => K = 2
  auto res = dev.launch(spec, [](auto&) {});
  EXPECT_EQ(res.blocks_per_sm, 2);
  EXPECT_EQ(res.occupancy_limiter, Occupancy::Limiter::registers);
}

TEST(Engine, DeterministicAcrossHostWorkerCounts) {
  std::vector<float> data1(256), data2(256);
  for (int workers : {1, 4}) {
    Device dev;
    dev.set_host_workers(workers);
    std::vector<float>& data = workers == 1 ? data1 : data2;
    float* dp = data.data();
    LaunchSpec spec;
    spec.blocks = 8;
    spec.threads = 32;
    dev.launch(spec, [=](auto& ctx) {
      using F = real_t<decltype(ctx)>;
      auto g = ctx.global(dp);
      ctx.lanes([&](int t) {
        const int i = ctx.block() * 32 + t;
        g.st(i, (F(static_cast<float>(i)) / F(7.0f)).value());
      });
    });
  }
  EXPECT_EQ(data1, data2);
}

TEST(Engine, TimingDeterministicAcrossRuns) {
  auto run = [] {
    Device dev;
    LaunchSpec spec;
    spec.blocks = 4;
    spec.threads = 64;
    return dev
        .launch(spec,
                [](auto& ctx) {
                  using F = real_t<decltype(ctx)>;
                  auto sh = ctx.template shared<float>(64);
                  ctx.lanes([&](int t) {
                    sh.st(t, F(1.0f) * F(2.0f));
                  });
                  ctx.sync();
                  ctx.lanes([&](int t) {
                    F v = sh.ld((t * 7) % 64);
                    (void)v;
                  });
                })
        .chip_cycles;
  };
  EXPECT_EQ(run(), run());
}

TEST(Engine, SpillChargedBeyondRegisterBudget) {
  Device dev;
  LaunchSpec spec;
  spec.threads = 1;
  auto res_small = dev.launch(spec, [](auto& ctx) {
    using F = real_t<decltype(ctx)>;
    ctx.lanes([&](int) {
      auto t = ctx.template reg_tile<F>(7, 7);  // 49 words: fits 64 - 15
      for (int i = 0; i < 7; ++i)
        for (int j = 0; j < 7; ++j) t.set(i, j, F(1.0f));
    });
  });
  auto res_big = dev.launch(spec, [](auto& ctx) {
    using F = real_t<decltype(ctx)>;
    ctx.lanes([&](int) {
      auto t = ctx.template reg_tile<F>(10, 10);  // 100 words: 51 spill
      for (int i = 0; i < 10; ++i)
        for (int j = 0; j < 10; ++j) t.set(i, j, F(1.0f));
    });
  });
  EXPECT_EQ(res_small.totals.spill_bytes, 0u);
  EXPECT_EQ(res_big.totals.spill_bytes, 51u * 4u);
}

// The counter-free scalars must be plain floats to the compiler: no hidden
// state, nothing a copy or a register allocation has to preserve.
static_assert(std::is_trivially_copyable_v<basic_gfloat<false>>);
static_assert(sizeof(basic_gfloat<false>) == sizeof(float));
static_assert(std::is_trivially_copyable_v<basic_gcomplex<false>>);
static_assert(sizeof(basic_gcomplex<false>) == sizeof(std::complex<float>));

/// Sets (or, with null, clears) an environment variable for one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (old_)
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// Which instantiation of the kernel ran each block: 1 for the counted one,
/// 2 for the counter-free one.
std::vector<int> instantiation_per_block(Device& dev, int blocks) {
  std::vector<int> marks(static_cast<std::size_t>(blocks), 0);
  int* mp = marks.data();
  LaunchSpec spec;
  spec.blocks = blocks;
  spec.threads = 32;
  spec.name = "instantiation_probe";
  dev.launch(spec, [=](auto& ctx) {
    auto g = ctx.global(mp);
    ctx.lanes([&](int t) {
      if (t != 0) return;
      if constexpr (counted_v<decltype(ctx)>)
        g.st(ctx.block(), 1);
      else
        g.st(ctx.block(), 2);
    });
  });
  return marks;
}

TEST(Engine, ReplayRunsTheCounterFreeInstantiationExactlyWhereItReplays) {
  constexpr int kBlocks = 6;
  const std::vector<int> all_counted(kBlocks, 1);
  ScopedEnv no_verify("REGLA_REPLAY_VERIFY", nullptr);
  {
    Device dev;  // replay off: every block instrumented
    EXPECT_EQ(instantiation_per_block(dev, kBlocks), all_counted);
  }
  Device dev;
  dev.set_replay(true);
  if (!dev.replay_enabled()) GTEST_SKIP() << "REGLA_REPLAY=0 set";
  Device::ReplayScope scope(dev, /*data_independent=*/true, /*salt=*/0x1ce);
  // Uniform miss: the representatives {0, 1, last} counted, the rest not.
  EXPECT_EQ(instantiation_per_block(dev, kBlocks),
            (std::vector<int>{1, 1, 2, 2, 2, 1}));
  // Hit: the cache supplies every block's accounting.
  EXPECT_EQ(instantiation_per_block(dev, kBlocks),
            std::vector<int>(kBlocks, 2));

  // Verify mode re-simulates what a miss extrapolates and what a hit
  // replays: every block counted, on the miss and on the hit.
  ScopedEnv verify("REGLA_REPLAY_VERIFY", "1");
  Device vdev;
  vdev.set_replay(true);
  Device::ReplayScope vscope(vdev, /*data_independent=*/true, /*salt=*/0x1ce);
  EXPECT_EQ(instantiation_per_block(vdev, kBlocks), all_counted);
  EXPECT_EQ(instantiation_per_block(vdev, kBlocks), all_counted);
}

TEST(Engine, InvalidLaunchShapesRejected) {
  Device dev;
  LaunchSpec spec;
  spec.blocks = 0;
  EXPECT_THROW(dev.launch(spec, [](auto&) {}), Error);
  spec.blocks = 1;
  spec.threads = 2048;
  EXPECT_THROW(dev.launch(spec, [](auto&) {}), Error);
}

TEST(Engine, DramFloorBoundsBandwidth) {
  // A pure copy can never beat achievable DRAM bandwidth.
  Device dev;
  const std::size_t words = 1 << 20;
  std::vector<float> x(words, 1.0f), y(words);
  float* xp = x.data();
  float* yp = y.data();
  LaunchSpec spec;
  spec.blocks = 112;
  spec.threads = 256;
  const std::size_t per_thread = words / (112 * 256);
  auto res = dev.launch(spec, [=](auto& ctx) {
    auto gx = ctx.global(xp);
    auto gy = ctx.global(yp);
    ctx.lanes([&](int t) {
      const std::size_t lane = static_cast<std::size_t>(ctx.block()) * 256 + t;
      for (std::size_t i = 0; i < per_thread; ++i)
        gy.st(lane + i * 112 * 256, gx.ld(lane + i * 112 * 256));
    });
  });
  EXPECT_LE(res.dram_gbs(), dev.config().dram_achievable_gbs * 1.01);
  EXPECT_GT(res.dram_gbs(), dev.config().dram_achievable_gbs * 0.8);
}

}  // namespace
}  // namespace regla::simt

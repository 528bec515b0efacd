// The launch engine: runs kernels functionally (each block as a sequence of
// barrier-delimited phases over its lanes, simt/block_ctx.h) and produces
// timing (cycles on the configured chip) plus instrumentation breakdowns.
#pragma once

#include <concepts>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "simt/block_ctx.h"
#include "simt/device_config.h"
#include "simt/fault.h"
#include "simt/occupancy.h"
#include "simt/stats.h"

namespace regla::cpu {
class ThreadPool;
}

namespace regla::simt {

class ReplayCache;

/// A kernel body compiled for both counting policies.
template <typename Body>
concept Kernel = std::invocable<Body&, BlockCtx<true>&> &&
                 std::invocable<Body&, BlockCtx<false>&>;

struct LaunchSpec {
  int blocks = 1;
  int threads = 32;
  /// Register demand per thread, for the occupancy calculator (clamped to the
  /// HW max; tiles that exceed the budget additionally spill — see RegTile).
  int regs_per_thread = 32;
  std::string name;
};

/// Cycle attribution bucket for the Table V / Fig. 8 breakdowns.
struct TaggedCycles {
  int panel = -1;
  OpTag tag = OpTag::other;
  double cycles = 0;  ///< per-block average
};

/// Strict weak ordering over breakdown slices in natural execution order:
/// the panel -1 load slice first, panel slices ascending (ties by tag), the
/// panel -1 store slice last, any other panel -1 slice with the loads. Orders
/// the phase slices the engine projects into the obs trace.
bool slice_before(const TaggedCycles& a, const TaggedCycles& b);

struct LaunchResult {
  double chip_cycles = 0;     ///< whole-launch time on the simulated chip
  double seconds = 0;         ///< chip_cycles / clock
  double block_cycles_avg = 0;
  int blocks_per_sm = 0;
  Occupancy::Limiter occupancy_limiter = Occupancy::Limiter::none;
  int waves = 0;
  std::size_t shared_bytes_per_block = 0;
  LaunchCounters totals;
  std::vector<TaggedCycles> breakdown;

  /// Report throughput against a nominal FLOP count (the paper reports
  /// GFLOP/s from the textbook operation counts, not instrumented FLOPs).
  double gflops(double nominal_flops) const {
    return seconds > 0 ? nominal_flops / seconds / 1e9 : 0;
  }
  /// Effective DRAM bandwidth of the launch.
  double dram_gbs() const {
    return seconds > 0 ? static_cast<double>(totals.gl_bytes) / seconds / 1e9 : 0;
  }
  double cycles_for(OpTag tag) const {
    double c = 0;
    for (const auto& b : breakdown)
      if (b.tag == tag) c += b.cycles;
    return c;
  }
};

/// A simulated GPU. Thread-compatible: one launch at a time per Device, but
/// independent blocks within a launch may run on multiple host threads.
class Device {
 public:
  explicit Device(DeviceConfig cfg = DeviceConfig::quadro6000());
  ~Device();
  Device(Device&&) noexcept;
  Device& operator=(Device&&) noexcept;

  /// Fixed at construction: plans, the plan-cache key and the replay salt
  /// all hash this config, so it never changes under a Device.
  const DeviceConfig& config() const { return cfg_; }

  /// Run `body` once for every block; returns full timing and
  /// instrumentation. Functionally exact: all side effects on host memory
  /// wrapped by ctx.global() have happened when this returns. `body` is
  /// generic over the context (`[&](auto& ctx) { ... }`): blocks the engine
  /// instruments run its BlockCtx<true> instantiation, blocks whose
  /// accounting the replay cache supplies run its counter-free
  /// BlockCtx<false> one. Both compute bit-identical results.
  ///
  /// Fault hooks (config().faults, simt/fault.h): may throw
  /// TransientLaunchFailure *before any block runs* (payload untouched,
  /// retry-safe), stretch the reported timing, or silently skip one block
  /// (poisoned result). Decisions are deterministic in (seed, launch
  /// ordinal); the ordinal advances on every launch() call, thrown or not.
  template <Kernel Body>
  LaunchResult launch(const LaunchSpec& spec, Body&& body) {
    return run(spec, KernelRef(body));
  }

  /// What the fault hooks have injected on this device so far.
  const FaultStats& fault_stats() const { return fault_stats_; }
  void reset_fault_stats() { fault_stats_ = {}; }

  /// Number of host worker threads used to run independent blocks
  /// (defaults to std::thread::hardware_concurrency()). Changing the count
  /// retires the device's persistent worker pool; the next launch rebuilds
  /// it at the new width.
  void set_host_workers(int workers);

  /// Replay memoization (simt/replay.h, DESIGN.md §13). Off by default so
  /// direct Device users (the paper-figure benches) always fully simulate;
  /// the serving runtime opts its stream devices in. Honors the
  /// REGLA_REPLAY=0 kill switch; turning replay off drops the cache.
  /// REGLA_REPLAY_VERIFY=1 (read at Device construction) makes every cache
  /// hit re-simulate all blocks and assert the cached accounting matches.
  void set_replay(bool on);
  bool replay_enabled() const { return replay_on_; }

  /// RAII declaration that the launches inside it have data-independent
  /// accounting (planner::OpTraits::data_independent): same kernel +
  /// geometry + salt implies the same folded phases for every block. `salt`
  /// must cover everything geometry alone does not — problem dims, dtype,
  /// plan knobs, DeviceConfig fingerprint, payload base-address alignment
  /// classes. Scopes nest; the previous scope is restored on destruction.
  class ReplayScope {
   public:
    ReplayScope(Device& dev, bool data_independent, std::uint64_t salt);
    ~ReplayScope();
    ReplayScope(const ReplayScope&) = delete;
    ReplayScope& operator=(const ReplayScope&) = delete;

   private:
    Device& dev_;
    bool prev_di_;
    std::uint64_t prev_salt_;
  };

 private:
  /// Non-owning, type-erased view of a kernel body's two instantiations;
  /// valid for one launch() call.
  class KernelRef {
   public:
    template <typename Body>
    explicit KernelRef(Body& body)
        : body_(const_cast<void*>(static_cast<const void*>(&body))),
          counted_(&call<Body, true>),
          counter_free_(&call<Body, false>) {}

    void operator()(BlockCtx<true>& ctx) const { counted_(body_, ctx); }
    void operator()(BlockCtx<false>& ctx) const { counter_free_(body_, ctx); }

   private:
    template <typename Body, bool C>
    static void call(void* body, BlockCtx<C>& ctx) {
      (*static_cast<Body*>(body))(ctx);
    }

    void* body_;
    void (*counted_)(void*, BlockCtx<true>&);
    void (*counter_free_)(void*, BlockCtx<false>&);
  };

  LaunchResult run(const LaunchSpec& spec, const KernelRef& body);

  DeviceConfig cfg_;
  int host_workers_ = 0;  // 0 = auto
  bool replay_on_ = false;
  bool replay_verify_ = false;          ///< REGLA_REPLAY_VERIFY at construction
  bool scope_data_independent_ = false; ///< set by ReplayScope
  std::uint64_t scope_salt_ = 0;
  std::unique_ptr<ReplayCache> replay_cache_;
  std::uint64_t launch_ordinal_ = 0;  ///< fault-stream position (one launch at a time)
  FaultStats fault_stats_;
  /// Persistent host workers for multi-block launches, built lazily on the
  /// first launch that needs them and reused across launches — spawning
  /// fresh std::threads per launch sat directly on the serving hot path.
  /// Safe to reuse under the pool's parallel_for serialization constraint
  /// because a Device runs one launch at a time (class contract above).
  std::unique_ptr<cpu::ThreadPool> pool_;
};

}  // namespace regla::simt

// BlockCtx: the device-side view of one simulated thread block — CUDA's
// blockIdx / threadIdx / __syncthreads() / __shared__ equivalents.
//
// A kernel is a generic callable `[](auto& ctx) { ... }`; the engine compiles
// it twice, once per counting policy, and runs it once per block:
// BlockCtx<true> records every lane's events and folds them at each barrier,
// BlockCtx<false> runs the same source with no counters at all (blocks whose
// accounting the replay cache already holds, DESIGN.md §13). A kernel names
// its scalars through the context — real_t<Ctx>, device_t<Ctx, T> — so both
// instantiations come from one source. Its body is a sequence of
// barrier-delimited phases (MCUDA-style loop fission at __syncthreads,
// Stratton et al. 2008):
//
//   auto sh = ctx.template shared<float>(n);        // block scope: declare
//   auto lane = ctx.lane_state(make_tile);          // per-lane registers
//   ctx.lanes([&](int tid) { ... });                // phase: every live lane
//   ctx.sync();                                     // barrier
//   ctx.lanes([&](int tid) { ... });
//
// lanes() runs a phase's code for the block's live lanes in ascending tid;
// the lanes() calls between two barriers form one phase. Everything a lane
// carries across a barrier lives in lane_state(); block-scope code between
// phases is block-uniform control flow only (loop counters, tags) — device
// arithmetic and memory traffic outside a lanes() body are not charged to
// any thread.
#pragma once

#include <algorithm>
#include <bit>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "simt/device_config.h"
#include "simt/global_mem.h"
#include "simt/reg_tile.h"
#include "simt/shared_mem.h"

namespace regla::simt {

struct BlockInstr;  // engine-owned per-block instrumentation (engine.cc)

/// Host-worker storage for per-lane state: a stack of chunks reused block
/// after block, so per-lane register tiles cost no allocation in steady
/// state. Every object placed here is constructed fresh for its block and
/// destroyed when its LaneState goes out of scope — nothing carries over.
class LaneArena {
 public:
  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };

  /// The calling host thread's arena.
  static LaneArena& local();

  Mark mark() const { return {cur_, used_}; }
  void release(Mark m) {
    cur_ = m.chunk;
    used_ = m.used;
  }
  void* alloc(std::size_t bytes, std::size_t align);

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size = 0;
  };
  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;   ///< chunk being bumped
  std::size_t used_ = 0;  ///< bytes used in chunks_[cur_]
};

/// One L per lane of a block (live or not), constructed in place from
/// `init(tid)` and destroyed in reverse on scope exit.
template <typename L>
class LaneState {
 public:
  template <typename Init>
  LaneState(int lanes, Init&& init)
      : arena_(&LaneArena::local()), mark_(arena_->mark()) {
    items_ = static_cast<L*>(
        arena_->alloc(sizeof(L) * static_cast<std::size_t>(lanes), alignof(L)));
    try {
      for (; n_ < lanes; ++n_) ::new (items_ + n_) L(init(n_));
    } catch (...) {
      destroy();
      throw;
    }
  }
  ~LaneState() { destroy(); }
  LaneState(const LaneState&) = delete;
  LaneState& operator=(const LaneState&) = delete;

  L& operator[](int tid) { return items_[tid]; }

 private:
  void destroy() {
    while (n_ > 0) items_[--n_].~L();
    arena_->release(mark_);
  }

  LaneArena* arena_;
  LaneArena::Mark mark_;
  L* items_ = nullptr;
  int n_ = 0;
};

template <bool Counted>
class BlockCtx {
 public:
  static constexpr bool counted = Counted;

  /// A counted block records into `instr` through the per-lane counters
  /// `lane_stats` (both non-null); a counter-free block takes neither.
  BlockCtx(const DeviceConfig& cfg, int block, int nblocks, int nthreads,
           BlockInstr* instr = nullptr, ThreadStats* lane_stats = nullptr)
      : cfg_(&cfg), block_(block), nblocks_(nblocks), nthreads_(nthreads),
        instr_(instr), lane_stats_(lane_stats), chase_(cfg),
        lanes_per_word_(std::min(cfg.warp_size, 32)), alive_(nthreads) {
    const int words = (nthreads + lanes_per_word_ - 1) / lanes_per_word_;
    live_.resize(static_cast<std::size_t>(words));
    for (int w = 0; w < words; ++w) {
      const int n = std::min(lanes_per_word_, nthreads - w * lanes_per_word_);
      live_[static_cast<std::size_t>(w)] = n == 32 ? ~0u : ((1u << n) - 1u);
    }
  }

  // --- identity ----------------------------------------------------------
  int nthreads() const { return nthreads_; }
  int block() const { return block_; }
  int nblocks() const { return nblocks_; }
  const DeviceConfig& config() const { return *cfg_; }

  // --- phases ------------------------------------------------------------
  /// Run one phase's code, `body(tid)`, for every live lane in ascending
  /// tid. A counted block charges each lane's device operations to that
  /// lane's counters.
  template <typename F>
  void lanes(F&& body) {
    for (std::size_t w = 0; w < live_.size(); ++w) {
      std::uint32_t mask = live_[w];
      const int base = static_cast<int>(w) * lanes_per_word_;
      while (mask != 0) {
        const int t = base + std::countr_zero(mask);
        mask &= mask - 1;
        lane_ = t;
        if constexpr (Counted) current_stats() = lane_stats_ + t;
        body(t);
      }
    }
    if constexpr (Counted) current_stats() = nullptr;
    lane_ = -1;
    if (alive_ == 0) finish();  // every lane has returned
  }

  /// Called from inside a lanes() body: the running lane returns from the
  /// kernel (CUDA's early `return`) and sits out every later phase.
  void retire() {
    REGLA_CHECK_MSG(lane_ >= 0, "retire() outside a lanes() body");
    std::uint32_t& word =
        live_[static_cast<std::size_t>(lane_ / lanes_per_word_)];
    const std::uint32_t bit = 1u << (lane_ % lanes_per_word_);
    if ((word & bit) == 0) return;  // already retired
    word &= ~bit;
    --alive_;
  }

  /// __syncthreads(): closes the current phase. Once every lane has retired
  /// there is nothing left to synchronize and it does nothing.
  void sync() {
    if constexpr (Counted)
      if (alive_ > 0) close_phase(/*ended_with_sync=*/true);
  }

  /// Per-lane state that lives across barriers — the registers a CUDA thread
  /// keeps over __syncthreads(): `init(tid)` builds lane tid's state, whose
  /// type is what `init` returns.
  template <typename Init>
  auto lane_state(Init&& init) {
    using L = std::decay_t<std::invoke_result_t<Init&, int>>;
    return LaneState<L>(nthreads_, std::forward<Init>(init));
  }

  /// Engine hook: the kernel body returned; folds the final phase.
  void finish() {
    if constexpr (Counted)
      if (!finished_) close_phase(/*ended_with_sync=*/false);
    finished_ = true;
  }

  // --- memory ------------------------------------------------------------
  /// Declare a zero-filled block-level shared array of `elems` elements.
  /// Declarations happen at block scope, once for the whole block — CUDA's
  /// rule that every thread makes the same __shared__ declarations, so a
  /// thread-dependent size cannot be expressed.
  template <typename T>
  SharedArray<T, Counted> shared(int elems) {
    REGLA_CHECK_MSG(lane_ < 0,
                    "shared arrays are declared at block scope, not per lane");
    auto& arena = shared_.create(static_cast<std::size_t>(elems) * sizeof(T));
    return SharedArray<T, Counted>(arena, elems, cfg_->shared_latency_cycles);
  }

  /// Wrap a host pointer as device global memory.
  template <typename T>
  Global<T, Counted> global(T* ptr) {
    return Global<T, Counted>(ptr, *cfg_, &chase_);
  }

  /// Per-thread register tile of device values V (real_t<Ctx> or
  /// device_t<Ctx, std::complex<float>>); spill accounting uses the
  /// machine's register budget minus the bookkeeping registers every kernel
  /// needs.
  template <typename V>
  RegTile<V> reg_tile(int h, int w) const {
    static_assert(V::counted == Counted,
                  "a tile's scalars follow the block's counting policy");
    const int words_per_elem = static_cast<int>(sizeof(V) / 4);
    const int budget_words =
        cfg_->max_regs_per_thread - cfg_->reg_overhead_per_thread;
    return RegTile<V>(h, w, std::max(0, budget_words) / words_per_elem);
  }

  /// Bytes of shared memory the block has declared (occupancy input).
  std::size_t shared_bytes() const { return shared_.total_bytes(); }

  // --- instrumentation tags (Table V / Fig. 8 breakdowns) ------------------
  /// A phase is attributed to the tag and panel current when it closes.
  void tag(OpTag t) { tag_ = t; }
  void set_panel(int p) { panel_ = p; }

 private:
  /// Fold every lane's counters into the block's next PhaseRecord.
  void close_phase(bool ended_with_sync);

  const DeviceConfig* cfg_;
  int block_;
  int nblocks_;
  int nthreads_;
  BlockInstr* instr_;        ///< counted blocks only
  ThreadStats* lane_stats_;  ///< counted blocks only
  SharedSpace shared_;
  ChaseModel chase_;
  OpTag tag_ = OpTag::other;
  int panel_ = -1;

  /// Per-warp liveness masks: a lanes() pass walks only set bits, so a
  /// retired warp costs one load per phase (warp_size <= 32 fits one mask
  /// word per warp; wider configs take several words per warp row).
  int lanes_per_word_;
  int alive_;
  std::vector<std::uint32_t> live_;
  bool finished_ = false;

  int lane_ = -1;  ///< lane running inside lanes(), -1 at block scope
};

/// Only counted blocks fold phases (engine.cc).
template <>
void BlockCtx<true>::close_phase(bool ended_with_sync);

/// The counting policy of a kernel context, and the device scalars a kernel
/// computes with under it: a kernel written against these compiles to both
/// the counted and the counter-free instantiation from one source.
template <typename Ctx>
inline constexpr bool counted_v = std::remove_cvref_t<Ctx>::counted;
template <typename Ctx>
using real_t = basic_gfloat<counted_v<Ctx>>;
/// The device value for storage type T: float -> real_t, complex<float> ->
/// basic_gcomplex, anything else (int flags) -> T itself.
template <typename Ctx, typename T>
using device_t = typename detail::DeviceValue<T, counted_v<Ctx>>::type;

}  // namespace regla::simt

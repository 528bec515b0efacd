#include "runtime/arena.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"

namespace regla::runtime {

namespace {

/// Lowest-address-first heap: popping the minimum reuses the block nearest
/// the front of its slabs, so live blocks stay packed and the touched slab
/// footprint stays compact.
using AddrHeap = std::priority_queue<std::uintptr_t, std::vector<std::uintptr_t>,
                                     std::greater<std::uintptr_t>>;

std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) / align * align;
}

}  // namespace

struct Arena::State {
  /// The owner's label; the instruments below are the arena's only store of
  /// its counts, resolved once.
  std::string labels;
  obs::Counter& slab_allocs = obs::counter("runtime.payload_allocs", labels);
  obs::Counter& leases = obs::counter("runtime.payload_leases", labels);
  obs::Counter& reuses = obs::counter("runtime.payload_reuses", labels);
  obs::Gauge& bytes_reserved =
      obs::gauge("runtime.payload_bytes_reserved", labels);
  obs::Gauge& bytes_leased = obs::gauge("runtime.payload_bytes_leased", labels);
  /// Guards the slab list and the free lists.
  std::mutex mu;
  /// Backing slabs, freed only when the last lease and the Arena are gone.
  std::vector<std::byte*> slabs;
  /// Free blocks per exact (rounded) size class.
  std::map<std::size_t, AddrHeap> free;

  ~State() {
    for (std::byte* s : slabs) std::free(s);
  }
};

static_assert((Arena::kAlignment & (Arena::kAlignment - 1)) == 0 &&
              Arena::kMinSlabBytes >= Arena::kAlignment);

Arena::Arena(std::string_view labels)
    : state_(std::make_shared<State>(std::string(labels))) {}

Arena::Lease Arena::lease(std::size_t bytes) {
  State& st = *state_;
  const std::size_t sz =
      round_up(std::max<std::size_t>(bytes, 1), kAlignment);
  std::byte* p = nullptr;
  std::size_t slab_bytes = 0;  // nonzero when this lease grew a slab
  {
    std::lock_guard<std::mutex> lock(st.mu);
    AddrHeap& heap = st.free[sz];
    if (!heap.empty()) {
      p = reinterpret_cast<std::byte*>(heap.top());
      heap.pop();
    } else {
      const std::size_t blocks =
          std::max<std::size_t>(1, kMinSlabBytes / sz);
      slab_bytes = blocks * sz;
      // aligned_alloc needs the size to be a multiple of the alignment;
      // sz already is, so slab_bytes is too.
      std::byte* slab = static_cast<std::byte*>(
          std::aligned_alloc(kAlignment, slab_bytes));
      REGLA_CHECK_MSG(slab != nullptr, "arena slab allocation failed ("
                                           << slab_bytes << " bytes)");
      st.slabs.push_back(slab);
      // Carve: hand out the lowest block, free-list the rest (the heap
      // keeps them address-ordered on release too).
      for (std::size_t b = 1; b < blocks; ++b)
        heap.push(reinterpret_cast<std::uintptr_t>(slab + b * sz));
      p = slab;
    }
  }
  st.leases.add();
  if (slab_bytes > 0) {
    st.slab_allocs.add();
    st.bytes_reserved.add(static_cast<double>(slab_bytes));
  } else {
    st.reuses.add();
  }
  st.bytes_leased.add(static_cast<double>(sz));

  Lease l;
  l.size_ = sz;
  // The deleter shares the State, so a lease outliving the Arena (a Report
  // holding a leased result batch, say) still returns its block to a live
  // free list.
  std::shared_ptr<State> state = state_;
  l.block_ = std::shared_ptr<std::byte>(p, [state, sz](std::byte* q) {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->free[sz].push(reinterpret_cast<std::uintptr_t>(q));
    }
    state->bytes_leased.add(-static_cast<double>(sz));
  });
  return l;
}

BatchF Arena::batch_f32(int count, int rows, int cols) {
  REGLA_CHECK(count >= 0 && rows >= 0 && cols >= 0);
  const std::size_t bytes =
      static_cast<std::size_t>(count) * rows * cols * sizeof(float);
  if (bytes == 0) return BatchF();
  Lease l = lease(bytes);
  std::memset(l.data(), 0, bytes);
  return BatchF::borrow(reinterpret_cast<float*>(l.data()), count, rows, cols,
                        l.owner());
}

BatchC Arena::batch_c64(int count, int rows, int cols) {
  REGLA_CHECK(count >= 0 && rows >= 0 && cols >= 0);
  const std::size_t bytes = static_cast<std::size_t>(count) * rows * cols *
                            sizeof(std::complex<float>);
  if (bytes == 0) return BatchC();
  Lease l = lease(bytes);
  std::memset(l.data(), 0, bytes);
  return BatchC::borrow(reinterpret_cast<std::complex<float>*>(l.data()),
                        count, rows, cols, l.owner());
}

Arena::Stats Arena::stats() const {
  const State& st = *state_;
  return Stats{st.slab_allocs.value(), st.leases.value(), st.reuses.value(),
               static_cast<std::uint64_t>(st.bytes_reserved.value()),
               static_cast<std::uint64_t>(st.bytes_leased.value())};
}

}  // namespace regla::runtime

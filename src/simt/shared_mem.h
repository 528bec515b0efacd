// Simulated shared memory ("scratchpad") with bank-access tracking.
//
// A SharedArray<T, Counted> is a typed view of a block-level arena. Counted
// loads and stores log the word index of every access; the phase fold turns
// those into warp transactions with bank-conflict multipliers (32 banks,
// 4-byte words, same-address broadcast is free — see timing.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/error.h"
#include "simt/gfloat.h"
#include "simt/stats.h"

namespace regla::simt {

namespace detail {

/// Maps storage types to the device value type kernels compute with under
/// counting policy C.
template <typename T, bool C> struct DeviceValue { using type = T; };
template <bool C> struct DeviceValue<float, C> { using type = basic_gfloat<C>; };
template <bool C> struct DeviceValue<std::complex<float>, C> {
  using type = basic_gcomplex<C>;
};

template <typename T, typename V>
T to_storage_value(V v) {
  if constexpr (std::is_same_v<T, float>) return v.value();
  else if constexpr (std::is_same_v<T, std::complex<float>>) return v.to_std();
  else return v;
}

template <typename T>
inline constexpr std::uint32_t kWordsPerElem = (sizeof(T) + 3) / 4;

}  // namespace detail

/// Block-level shared-memory space: the block's shared arrays, laid out
/// back to back in declaration order.
class SharedSpace {
 public:
  struct Arena {
    std::vector<std::byte> bytes;
    std::uint32_t base_word = 0;
  };

  /// Append a zero-filled arena of `bytes`.
  Arena& create(std::size_t bytes) {
    Arena a;
    a.bytes.resize(bytes);
    a.base_word = next_word_;
    next_word_ += static_cast<std::uint32_t>((bytes + 3) / 4);
    arenas_.push_back(std::move(a));
    return arenas_.back();
  }

  /// Total allocated bytes (for the occupancy calculator).
  std::size_t total_bytes() const {
    return static_cast<std::size_t>(next_word_) * 4;
  }

 private:
  // deque: handed-out Arena pointers must survive later allocations.
  std::deque<Arena> arenas_;
  std::uint32_t next_word_ = 0;
};

/// Typed accessor over a shared arena. Copyable; all copies alias. Counted
/// accesses log their word addresses for the bank-conflict fold; counter-free
/// ones (Counted = false) only load and store. Both bounds-check.
template <typename T, bool Counted>
class SharedArray {
 public:
  using value_type = typename detail::DeviceValue<T, Counted>::type;

  SharedArray() = default;
  SharedArray(SharedSpace::Arena& arena, int elems, double latency_cycles)
      : data_(reinterpret_cast<T*>(arena.bytes.data())),
        base_word_(arena.base_word), elems_(elems), latency_(latency_cycles) {}

  int size() const { return elems_; }

  value_type ld(int i) const {
    log(i);
    return value_type(raw(i));
  }

  void st(int i, value_type v) {
    log(i);
    raw(i) = detail::to_storage_value<T>(v);
  }

  /// Dependent load for pointer-chasing microbenchmarks: charges the full
  /// shared latency to the thread's dependency chain.
  value_type ld_dep(int i) const {
    log(i);
    if constexpr (Counted) {
      auto* s = current_stats();
      if (s) s->dep_latency_cycles += latency_;
    }
    return value_type(raw(i));
  }

 private:
  T& raw(int i) const {
    REGLA_CHECK_MSG(i >= 0 && i < elems_, "shared access out of bounds: " << i);
    return data_[i];
  }

  void log(int i) const {
    if constexpr (Counted) {
      auto* s = current_stats();
      if (s == nullptr) return;
      const std::uint32_t w0 =
          base_word_ + static_cast<std::uint32_t>(i) * detail::kWordsPerElem<T>;
      for (std::uint32_t k = 0; k < detail::kWordsPerElem<T>; ++k)
        s->record_shared(w0 + k);
    } else {
      (void)i;
    }
  }

  /// The arena's storage, resolved at declaration: an arena's byte vector
  /// never resizes after SharedSpace::create.
  T* data_ = nullptr;
  std::uint32_t base_word_ = 0;
  int elems_ = 0;
  double latency_ = 0;
};

}  // namespace regla::simt

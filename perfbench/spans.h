// The benchmark's own trace: spans it records around each public regla call
// it makes. Spans stay in memory and are written as one JSON file at exit;
// the in-program obs trace stays off (its ring overflows within seconds).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Spans {
 public:
  /// Times are written relative to `epoch`.
  explicit Spans(Clock::time_point epoch) : epoch_(epoch) {}

  /// Recording is on only while enabled (the traced segments of a run).
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  /// A fresh span id, taken when a span opens so its children can name it.
  int next_id() { return next_.fetch_add(1, std::memory_order_relaxed); }

  /// Record a finished span. `parent` is 0 for a root; `req` groups the
  /// spans of one request or call; `tag` qualifies the name (the case, or
  /// hit/miss); `items` is the problems the call covered. No-op while off.
  void add(int id, const char* name, Clock::time_point start,
           Clock::time_point end, int parent, std::int64_t req,
           std::string tag = {}, int items = 0);

  /// Write every recorded span as a JSON array. Returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  struct Record {
    int id;
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t req;
    std::string tag;
    int items;
  };

  Clock::time_point epoch_;
  std::atomic<bool> on_{false};
  std::atomic<int> next_{1};
  mutable std::mutex mu_;  ///< guards records_
  std::vector<Record> records_;
};

}  // namespace perfbench

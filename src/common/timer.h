// Wall-clock timer for the CPU substrate (the "MKL" comparison point); the
// GPU side of every experiment is timed in simulated cycles, not wall clock.
#pragma once

#include <chrono>

#include "common/clock.h"

namespace regla {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_;
};

}  // namespace regla

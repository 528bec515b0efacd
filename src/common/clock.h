// The monotonic clock the serving layers share: runtime queue deadlines and
// latencies, fleet circuit-breaker cooldowns, and the benches that drive
// them all measure on regla::Clock.
#pragma once

#include <chrono>

namespace regla {

using Clock = std::chrono::steady_clock;

}  // namespace regla

#include "fleet/router.h"

namespace regla::fleet {

int pick(const std::vector<RouteCandidate>& candidates) {
  int best = -1;
  double best_score = 0;
  bool best_open = false;
  std::uint64_t best_stamp = 0;
  for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
    const RouteCandidate& c = candidates[i];
    double score = c.load;
    if (c.warm) score -= kAffinityBonus;
    const bool better =
        best < 0 ||
        // A closed circuit always beats an open one, whatever the load.
        (!c.circuit_open && best_open) ||
        (c.circuit_open == best_open &&
         (score < best_score ||
          (score == best_score && c.last_routed < best_stamp)));
    if (better) {
      best = i;
      best_score = score;
      best_open = c.circuit_open;
      best_stamp = c.last_routed;
    }
  }
  return best;
}

}  // namespace regla::fleet

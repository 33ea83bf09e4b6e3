#include "exp/session_bridge.hpp"

namespace manet::exp {

traffic::LocateOutcome LmSessionLocator::locate(NodeId dst) const {
  using traffic::LocateOutcome;
  using traffic::LocateResult;
  LocateOutcome best;  // kMiss
  const Level top = engine_.top_level();
  for (Level k = lm::kFirstServedLevel; k <= top; ++k) {
    if (engine_.is_stale(dst, k)) {
      const NodeId holder = engine_.stale_holder(dst, k);
      if (holder != kInvalidNode && !is_down(holder) &&
          best.result < LocateResult::kStaleHit) {
        best = LocateOutcome{LocateResult::kStaleHit, holder, holder};
      }
      continue;
    }
    if (manager_ != nullptr) {
      const auto flight = manager_->view(dst, k);
      if (flight.in_flight) {
        // Make-before-break: the old server's retained copy answers until
        // the procedure completes; after a rollback that pinned copy is out
        // of date and misroutes.
        if (flight.server == kInvalidNode || is_down(flight.server)) continue;
        if (flight.rolled_back) {
          if (best.result < LocateResult::kStaleHit) {
            best = LocateOutcome{LocateResult::kStaleHit, flight.server, flight.server};
          }
        } else {
          return LocateOutcome{LocateResult::kFresh, flight.server, kInvalidNode};
        }
        continue;
      }
    }
    const NodeId server = engine_.current_server(dst, k);
    if (server == kInvalidNode || is_down(server)) continue;
    if (engine_.database().find(server, dst, k) == nullptr) continue;
    return LocateOutcome{LocateResult::kFresh, server, kInvalidNode};
  }
  return best;
}

}  // namespace manet::exp

#pragma once

#include <vector>

#include "lm/handoff.hpp"
#include "lm/handover_fsm.hpp"
#include "traffic/sessions.hpp"

/// \file session_bridge.hpp
/// Binds the session workload's LocatorView to the live LM plane. The
/// adapter lives in exp/ because traffic/ sits *below* lm/ in the library
/// layering (traffic -> routing; lm -> routing) — only exp/ links both.
///
/// Resolution walks every served level k in [2, top] for the destination and
/// keeps the best answer (kFresh > kStaleHit > kMiss):
///   - an entry the engine flags stale resolves through its out-of-date
///     holder (kStaleHit -> the packet misroutes through the holder), or not
///     at all when the copy is gone;
///   - an entry with an in-flight handover procedure is served by the *old*
///     server's retained copy (make-before-break: kFresh while the procedure
///     is still signalling, kStaleHit once it rolled back and the pinned
///     copy went out of date);
///   - otherwise the current assignment server answers (kFresh) when it is
///     up and actually holds the record.

namespace manet::exp {

class LmSessionLocator : public traffic::LocatorView {
 public:
  /// \p manager and \p down are optional (nullptr); \p engine must outlive
  /// the locator.
  LmSessionLocator(const lm::HandoffEngine& engine, const lm::HandoverManager* manager,
                   const std::vector<std::uint8_t>* down)
      : engine_(engine), manager_(manager), down_(down) {}

  traffic::LocateOutcome locate(NodeId dst) const override;

 private:
  bool is_down(NodeId v) const {
    return down_ != nullptr && v < down_->size() && (*down_)[v] != 0;
  }

  const lm::HandoffEngine& engine_;
  const lm::HandoverManager* manager_;
  const std::vector<std::uint8_t>* down_;
};

}  // namespace manet::exp

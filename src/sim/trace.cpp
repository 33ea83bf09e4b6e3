#include "sim/trace.hpp"

#include "common/check.hpp"

namespace manet::sim {

const char* to_string(TraceEventType type) {
  switch (type) {
    case TraceEventType::kMigration: return "migration";
    case TraceEventType::kHandoffPhi: return "handoff_phi";
    case TraceEventType::kHandoffGamma: return "handoff_gamma";
    case TraceEventType::kLevelChurn: return "level_churn";
    case TraceEventType::kReorgLinkUp: return "reorg_link_up";
    case TraceEventType::kReorgLinkDown: return "reorg_link_down";
    case TraceEventType::kReorgElectMigration: return "reorg_elect_migration";
    case TraceEventType::kReorgRejectMigration: return "reorg_reject_migration";
    case TraceEventType::kReorgElectRecursive: return "reorg_elect_recursive";
    case TraceEventType::kReorgRejectRecursive: return "reorg_reject_recursive";
    case TraceEventType::kReorgNeighborPromoted: return "reorg_neighbor_promoted";
    case TraceEventType::kPacketDropped: return "packet_dropped";
    case TraceEventType::kRetransmit: return "retransmit";
    case TraceEventType::kNodeCrash: return "node_crash";
    case TraceEventType::kNodeRejoin: return "node_rejoin";
    case TraceEventType::kRepair: return "repair";
    case TraceEventType::kHandoverStart: return "handover_start";
    case TraceEventType::kHandoverComplete: return "handover_complete";
    case TraceEventType::kHandoverRetry: return "handover_retry";
    case TraceEventType::kHandoverRollback: return "handover_rollback";
    case TraceEventType::kHandoverFail: return "handover_fail";
  }
  return "unknown";
}

TraceSink::TraceSink() : TraceSink(Config{}) {}

TraceSink::TraceSink(Config config) : sample_every_(config.sample_every) {
  MANET_CHECK_MSG(config.capacity >= 1, "TraceSink capacity must be >= 1");
  if (sample_every_ == 0) sample_every_ = 1;
  ring_.resize(config.capacity);
}

void TraceSink::record(const TraceEvent& event) {
  ++seen_;
  if (sample_every_ > 1 && (seen_ - 1) % sample_every_ != 0) return;
  ring_[next_] = event;
  next_ = (next_ + 1) % ring_.size();
  ++stored_;
  ++type_counts_[static_cast<Size>(event.type)];
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  std::vector<TraceEvent> out;
  const Size held = size();
  out.reserve(held);
  // Oldest stored event sits at next_ once the ring has wrapped, else at 0.
  const Size start = stored_ > ring_.size() ? next_ : 0;
  for (Size i = 0; i < held; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

}  // namespace manet::sim

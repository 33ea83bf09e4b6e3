#include "lm/handover_fsm.hpp"

#include <cmath>

#include "common/check.hpp"

namespace manet::lm {

namespace {
/// Completion-latency histogram buckets (seconds).
constexpr double kCompletionBuckets[] = {0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
}  // namespace

const char* to_string(HandoverState state) {
  switch (state) {
    case HandoverState::kMeasure: return "measure";
    case HandoverState::kDecide: return "decide";
    case HandoverState::kAllocate: return "allocate";
    case HandoverState::kDetect: return "detect";
    case HandoverState::kComplete: return "complete";
    case HandoverState::kRollback: return "rollback";
    case HandoverState::kRolledBack: return "rolled_back";
    case HandoverState::kFailed: return "failed";
  }
  return "unknown";
}

HandoverManager::HandoverManager(HandoverFsmConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  MANET_CHECK(config_.timeout > 0.0);
  MANET_CHECK(config_.backoff >= 1.0);
}

void HandoverManager::set_metrics(common::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    started_c_ = completed_c_ = retries_c_ = timeouts_c_ = nullptr;
    rollbacks_c_ = rollback_failures_c_ = nullptr;
    completion_h_ = nullptr;
    return;
  }
  started_c_ = &registry->counter("lm.handover.started");
  completed_c_ = &registry->counter("lm.handover.completed");
  retries_c_ = &registry->counter("lm.handover.retries");
  timeouts_c_ = &registry->counter("lm.handover.timeouts");
  rollbacks_c_ = &registry->counter("lm.handover.rollbacks");
  rollback_failures_c_ = &registry->counter("lm.handover.rollback_failures");
  completion_h_ = &registry->histogram("lm.handover.completion_s", kCompletionBuckets);
}

void HandoverManager::trace(sim::TraceEventType type, const Flight& flight, Time t,
                            double value) const {
  if (trace_ == nullptr) return;
  trace_->record(
      sim::TraceEvent{t, type, flight.level, flight.old_server, flight.new_server, value});
}

bool HandoverManager::attempt(const Flight& flight) {
  const PacketCount packets = flight.hops > 0 ? flight.hops : 1;
  stats_.signal_packets += packets;
  if (config_.signal_loss <= 0.0) return true;
  if (config_.signal_loss >= 1.0) return false;
  const double survive =
      std::pow(1.0 - config_.signal_loss, static_cast<double>(packets));
  return common::uniform01(rng_) < survive;
}

bool HandoverManager::rollback(Flight& flight, Time now, bool target_crash) {
  flight.state = HandoverState::kRollback;
  ++stats_.rollbacks;
  if (target_crash) ++stats_.target_crashes;
  if (rollbacks_c_ != nullptr) rollbacks_c_->add(1);
  if (flight.old_server == kInvalidNode || is_down(flight.old_server)) {
    // Nowhere to fall back to: the procedure dies and the (owner, level)
    // entry is dark until the engine's repair path re-delivers it.
    flight.state = HandoverState::kFailed;
    ++stats_.rollback_failures;
    if (rollback_failures_c_ != nullptr) rollback_failures_c_->add(1);
    trace(sim::TraceEventType::kHandoverFail, flight, now, 0.0);
    return false;
  }
  flight.state = HandoverState::kRolledBack;
  flight.deadline = now + kHandoverHoldoff;
  flight.awaiting = false;
  flight.attempts = 0;
  trace(sim::TraceEventType::kHandoverRollback, flight, now, 0.0);
  return true;
}

bool HandoverManager::advance(Flight& flight, Time now) {
  while (true) {
    switch (flight.state) {
      case HandoverState::kMeasure:
        // Measurement = the engine's observed server change; always ripe.
        flight.state = HandoverState::kDecide;
        break;
      case HandoverState::kDecide:
        // The assignment table is authoritative, so the decision is always
        // "go" — what can still fail is everything after it.
        flight.state = HandoverState::kAllocate;
        flight.attempts = 0;
        flight.awaiting = false;
        break;
      case HandoverState::kAllocate:
      case HandoverState::kDetect: {
        if (is_down(flight.new_server)) return rollback(flight, now, /*target_crash=*/true);
        if (flight.awaiting) {
          if (now < flight.deadline) return true;  // attempt still outstanding
          ++stats_.timeouts;
          if (timeouts_c_ != nullptr) timeouts_c_->add(1);
          flight.awaiting = false;
          if (flight.attempts > config_.max_retries) {
            return rollback(flight, now, /*target_crash=*/false);
          }
          ++stats_.retries;
          if (retries_c_ != nullptr) retries_c_->add(1);
          trace(sim::TraceEventType::kHandoverRetry, flight, now,
                static_cast<double>(flight.attempts));
        }
        ++flight.attempts;
        if (attempt(flight)) {
          if (flight.state == HandoverState::kAllocate) {
            flight.state = HandoverState::kDetect;
            flight.attempts = 0;
            flight.awaiting = false;
            break;  // detect proceeds within the same tick
          }
          flight.state = HandoverState::kComplete;
          ++stats_.completed;
          const double latency = now - flight.started_at;
          stats_.completion_time_sum += latency;
          if (completed_c_ != nullptr) completed_c_->add(1);
          if (completion_h_ != nullptr) completion_h_->observe(latency);
          trace(sim::TraceEventType::kHandoverComplete, flight, now, latency);
          return false;
        }
        // Attempt lost in transit; discovered only when the timer fires.
        flight.awaiting = true;
        flight.deadline =
            now + config_.timeout *
                      std::pow(config_.backoff, static_cast<double>(flight.attempts - 1));
        return true;
      }
      case HandoverState::kRolledBack:
        // Pinned to the old server. Re-attempt once the holdoff expires and
        // the target is reachable again.
        if (now < flight.deadline || is_down(flight.new_server)) return true;
        flight.state = HandoverState::kAllocate;
        flight.attempts = 0;
        flight.awaiting = false;
        break;
      case HandoverState::kComplete:
      case HandoverState::kRollback:
      case HandoverState::kFailed:
        // Terminal/transient states are never stored between ticks.
        return false;
    }
  }
}

void HandoverManager::tick(Time now) {
  for (auto it = flights_.begin(); it != flights_.end();) {
    if (advance(it->second, now)) {
      ++it;
    } else {
      it = flights_.erase(it);
    }
  }
  if (metrics_ != nullptr) {
    metrics_->gauge("lm.handover.in_flight").set(static_cast<double>(flights_.size()));
  }
}

void HandoverManager::on_entry_move(NodeId owner, Level k, NodeId from, NodeId to, Time t,
                                    bool migrated, PacketCount hops) {
  const std::uint64_t fk = key(owner, k);
  const auto it = flights_.find(fk);
  if (it != flights_.end()) {
    // The assignment moved again mid-procedure: the newer move wins.
    ++stats_.superseded;
    flights_.erase(it);
  }
  Flight flight;
  flight.owner = owner;
  flight.level = k;
  flight.old_server = from;
  flight.new_server = to;
  flight.state = HandoverState::kMeasure;
  flight.started_at = t;
  flight.migrated = migrated;
  flight.hops = hops > 0 ? hops : 1;
  ++stats_.started;
  if (started_c_ != nullptr) started_c_->add(1);
  trace(sim::TraceEventType::kHandoverStart, flight, t, static_cast<double>(flight.hops));
  flights_.emplace(fk, flight);
}

void HandoverManager::on_entry_stale(NodeId owner, Level k, NodeId /*holder*/, Time t) {
  const auto it = flights_.find(key(owner, k));
  if (it == flights_.end()) return;
  // The serving copy is gone (transfer failed or its holder crashed): abort
  // toward the old server; if that is dark too the procedure fails outright.
  // A down target means the staleness *is* the target-server crash (the
  // engine wipes a crashed server's store before this manager ticks, so the
  // crash always arrives here as a stale event first).
  const bool target_crash = is_down(it->second.new_server);
  if (!rollback(it->second, t, target_crash)) flights_.erase(it);
}

void HandoverManager::on_entry_repaired(NodeId owner, Level k, NodeId /*server*/, Time t) {
  const auto it = flights_.find(key(owner, k));
  if (it == flights_.end()) return;
  // The repair path re-delivered the entry to the current assignment server;
  // whatever this procedure was still signalling is moot.
  (void)t;
  ++stats_.repaired;
  flights_.erase(it);
}

void HandoverManager::on_entry_retired(NodeId owner, Level k, Time /*t*/) {
  const auto it = flights_.find(key(owner, k));
  if (it == flights_.end()) return;
  ++stats_.retired;
  flights_.erase(it);
}

HandoverManager::FlightView HandoverManager::view(NodeId owner, Level k) const {
  const auto it = flights_.find(key(owner, k));
  if (it == flights_.end()) return FlightView{};
  const Flight& flight = it->second;
  return FlightView{true, flight.old_server,
                    flight.state == HandoverState::kRolledBack};
}

bool HandoverManager::has_flight(NodeId owner, Level k) const {
  return flights_.find(key(owner, k)) != flights_.end();
}

HandoverState HandoverManager::state_of(NodeId owner, Level k) const {
  const auto it = flights_.find(key(owner, k));
  MANET_CHECK_MSG(it != flights_.end(), "state_of: no in-flight handover");
  return it->second.state;
}

}  // namespace manet::lm

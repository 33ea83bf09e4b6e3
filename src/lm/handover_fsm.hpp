#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "lm/handoff.hpp"
#include "sim/trace.hpp"

/// \file handover_fsm.hpp
/// Per-handoff control-plane state machine, after the osmo-bsc handover FSM
/// shape (measurement -> decision -> resource allocation -> detect ->
/// complete, with explicit error and rollback-to-the-old-channel states) and
/// mQUIC's session-continuity requirements (validate the new path before
/// abandoning the old one).
///
/// The HandoffEngine stays the *measurement* plane: it commits every entry
/// move instantly and prices it at hops(old, new), exactly as the paper
/// does. The HandoverManager layered on top is the *control* plane: each
/// committed move spawns a make-before-break signalling procedure toward the
/// new server, and until that procedure completes, sessions resolving the
/// (owner, level) entry are served by the old server's retained copy. Every
/// failure edge is explicit:
///
///   kMeasure ---> kDecide ---> kAllocate ---> kDetect ---> kComplete
///                                  |  ^          |
///        timeout / retry-exhausted |  | backoff  | target-server crash,
///        target-server crash       |  +----------+ stale entry
///                                  v
///                              kRollback ---> kRolledBack (old server live;
///                                  |            re-attempt after holdoff)
///                                  v
///                               kFailed  (old server also dark; sessions
///                                         see an interruption until the
///                                         engine's repair path delivers)
///
/// Signalling attempts ride a private Bernoulli per-hop loss process (seeded
/// independently of the engine's transfer channel so attaching the FSM never
/// perturbs existing fault streams) and are paced by timeout-with-backoff:
/// a lost attempt is only discovered when its deadline passes, so retries
/// span ticks and session interruption windows become measurable. With zero
/// signalling loss and no crashed servers a procedure completes within its
/// spawn tick — the fault-free baseline is handover-invisible, as the
/// paper's idealization assumes.

namespace manet::lm {

enum class HandoverState : std::uint8_t {
  kMeasure = 0,  ///< server change observed (the engine's assignment diff)
  kDecide,       ///< handover decision taken (always "go": assignment is law)
  kAllocate,     ///< allocating the entry context at the new server
  kDetect,       ///< waiting for first contact confirmation via the new server
  kComplete,     ///< new server live; procedure retires
  kRollback,     ///< transient: aborting toward the old server
  kRolledBack,   ///< sessions pinned to the old server; re-attempt after holdoff
  kFailed,       ///< rollback impossible (old server also down)
};
inline constexpr std::size_t kHandoverStateCount = 8;

const char* to_string(HandoverState state);

struct HandoverFsmConfig {
  Time timeout = 0.2;         ///< first signalling-attempt timeout, s
  Size max_retries = 3;       ///< reattempts per stage after the first try
  double backoff = 2.0;       ///< timeout multiplier per retry (>= 1)
  double signal_loss = -1.0;  ///< per-hop signalling loss; < 0 = inherit the
                              ///< fault plane's Bernoulli loss
};

/// Rolled-back -> re-attempt delay (the holdoff), s.
inline constexpr Time kHandoverHoldoff = 1.0;

/// Accumulated FSM edge counts (every failure edge is a named counter so
/// seeded fault tests can assert each one was exercised).
struct HandoverStats {
  Size started = 0;            ///< procedures spawned (entry moves observed)
  Size completed = 0;          ///< reached kComplete
  Size retries = 0;            ///< timeout-induced reattempts
  Size timeouts = 0;           ///< signalling attempts that timed out
  Size rollbacks = 0;          ///< procedures aborted toward the old server
  Size rollback_failures = 0;  ///< rollbacks with no live old server (kFailed)
  Size target_crashes = 0;     ///< rollbacks caused by a down new server
  Size superseded = 0;         ///< replaced by a newer move of the same entry
  Size repaired = 0;           ///< resolved by the engine's repair path
  Size retired = 0;            ///< level vanished mid-procedure
  PacketCount signal_packets = 0;  ///< signalling transmissions (hops-priced)
  double completion_time_sum = 0.0;  ///< sum of (complete - start), s

  double mean_completion_time() const {
    return completed > 0 ? completion_time_sum / static_cast<double>(completed) : 0.0;
  }
};

/// Owns every in-flight handover procedure. Single-threaded like the rest of
/// the tick pipeline; flights are keyed (owner << 16 | level) in a std::map
/// so per-tick processing order is deterministic.
class HandoverManager : public HandoverObserver {
 public:
  HandoverManager(HandoverFsmConfig config, std::uint64_t seed);

  /// Per-node down flags owned by the caller (nullptr = nobody is ever down).
  void set_down(const std::vector<std::uint8_t>* down) noexcept { down_ = down; }
  void set_metrics(common::MetricsRegistry* registry);
  void set_trace(sim::TraceSink* trace) noexcept { trace_ = trace; }

  // HandoverObserver (driven by HandoffEngine during update/repair):
  void on_entry_move(NodeId owner, Level k, NodeId from, NodeId to, Time t,
                     bool migrated, PacketCount hops) override;
  void on_entry_stale(NodeId owner, Level k, NodeId holder, Time t) override;
  void on_entry_repaired(NodeId owner, Level k, NodeId server, Time t) override;
  void on_entry_retired(NodeId owner, Level k, Time t) override;

  /// Advance every in-flight procedure to \p now: send due attempts, expire
  /// deadlines, take rollback edges for crashed targets. Call once per tick
  /// after the engine's update and crash/rejoin delivery.
  void tick(Time now);

  /// Control-plane resolution for (owner, level): while a procedure is in
  /// flight the old server's retained copy serves (make-before-break);
  /// rolled-back entries are pinned to the old — increasingly out-of-date —
  /// copy, which is what makes rollback costs user-visible.
  struct FlightView {
    bool in_flight = false;
    NodeId server = kInvalidNode;  ///< serving copy while in flight
    bool rolled_back = false;      ///< old copy is out of date (misroute risk)
  };
  FlightView view(NodeId owner, Level k) const;

  bool has_flight(NodeId owner, Level k) const;
  /// State of the in-flight procedure; requires has_flight(owner, k).
  HandoverState state_of(NodeId owner, Level k) const;

  Size in_flight() const { return flights_.size(); }
  const HandoverStats& stats() const { return stats_; }

 private:
  struct Flight {
    NodeId owner = kInvalidNode;
    Level level = 0;
    NodeId old_server = kInvalidNode;
    NodeId new_server = kInvalidNode;
    HandoverState state = HandoverState::kMeasure;
    Size attempts = 0;      ///< attempts sent in the current stage
    bool awaiting = false;  ///< an attempt is outstanding (deadline armed)
    Time deadline = 0.0;    ///< attempt timeout or rolled-back holdoff expiry
    Time started_at = 0.0;
    bool migrated = false;     ///< phi/gamma attribution of the underlying move
    PacketCount hops = 1;      ///< signalling distance old -> new server
  };

  static std::uint64_t key(NodeId owner, Level k) {
    return (static_cast<std::uint64_t>(owner) << 16) | k;
  }
  bool is_down(NodeId v) const {
    return down_ != nullptr && v < down_->size() && (*down_)[v] != 0;
  }
  /// One signalling attempt over flight.hops: charges packets, returns
  /// delivery (deterministic success when signalling loss is zero).
  bool attempt(const Flight& flight);
  /// Advance one flight; returns false when the flight retired (erase it).
  bool advance(Flight& flight, Time now);
  /// Rollback edge; returns false when the flight retired (kFailed or the
  /// rollback target is gone).
  bool rollback(Flight& flight, Time now, bool target_crash);
  void trace(sim::TraceEventType type, const Flight& flight, Time t, double value) const;

  HandoverFsmConfig config_;
  common::Xoshiro256 rng_;
  std::map<std::uint64_t, Flight> flights_;
  HandoverStats stats_;
  const std::vector<std::uint8_t>* down_ = nullptr;
  sim::TraceSink* trace_ = nullptr;

  common::MetricsRegistry* metrics_ = nullptr;
  common::Counter* started_c_ = nullptr;
  common::Counter* completed_c_ = nullptr;
  common::Counter* retries_c_ = nullptr;
  common::Counter* timeouts_c_ = nullptr;
  common::Counter* rollbacks_c_ = nullptr;
  common::Counter* rollback_failures_c_ = nullptr;
  common::Histogram* completion_h_ = nullptr;
};

}  // namespace manet::lm

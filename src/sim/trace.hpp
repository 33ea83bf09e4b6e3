#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

/// \file trace.hpp
/// Structured event tracing for simulation runs. Producers (the handoff
/// engine, the handover FSM and the snapshot differ bridge in
/// exp::run_simulation) emit typed TraceEvents; a TraceSink stores them in a
/// bounded ring buffer, optionally sampling 1-in-N so long runs stay cheap.
///
/// Tracing is opt-in and zero-cost when off: producers hold a TraceSink
/// pointer that defaults to nullptr, so the disabled path is one predictable
/// branch and no allocation ever happens.
///
/// Event vocabulary: the paper's Section 5.2 reorganization taxonomy
/// (i)-(vii) maps 1:1 onto kReorg* values; migration, handoff transfer
/// (phi/gamma attribution) and level churn events cover the LM plane.

namespace manet::sim {

enum class TraceEventType : std::uint8_t {
  // LM plane.
  kMigration = 0,     ///< node crossed a level-k cluster boundary
  kHandoffPhi,        ///< entry transfer attributed to migration (phi_k)
  kHandoffGamma,      ///< entry transfer attributed to reorganization (gamma_k)
  kLevelChurn,        ///< entry created/retired because level k appeared/vanished
  // Paper Section 5.2 reorganization taxonomy (i)-(vii).
  kReorgLinkUp,            ///< (i)
  kReorgLinkDown,          ///< (ii)
  kReorgElectMigration,    ///< (iii)
  kReorgRejectMigration,   ///< (iv)
  kReorgElectRecursive,    ///< (v)
  kReorgRejectRecursive,   ///< (vi)
  kReorgNeighborPromoted,  ///< (vii)
  // Fault-injection plane (see sim/fault.hpp): lossy control packets, ARQ
  // retransmissions, node churn and CHLM repair.
  kPacketDropped,  ///< control packet lost in transit (value = packets lost)
  kRetransmit,     ///< ARQ retransmission attempt (value = attempt index)
  kNodeCrash,      ///< node went down (crash plan or regional outage)
  kNodeRejoin,     ///< node came back up and re-registered
  kRepair,         ///< stale/missing CHLM entry repaired (value = packets)
  // Handover FSM plane (see lm/handover_fsm.hpp): per-(owner, level) control
  // procedures riding every server move, with rollback-to-old-server on
  // failure (a = old server, b = new server unless noted).
  kHandoverStart,     ///< FSM spawned for an entry move (value = hops)
  kHandoverComplete,  ///< new server confirmed live (value = latency, s)
  kHandoverRetry,     ///< signalling attempt timed out, retrying (value = attempt)
  kHandoverRollback,  ///< procedure aborted; sessions stay on the old server
  kHandoverFail,      ///< rollback impossible (old server also dark)
};

inline constexpr std::size_t kTraceEventTypeCount = 21;
static_assert(static_cast<std::size_t>(TraceEventType::kHandoverFail) + 1 ==
              kTraceEventTypeCount);

const char* to_string(TraceEventType type);

struct TraceEvent {
  Time t = 0.0;                               ///< simulation time
  TraceEventType type = TraceEventType::kMigration;
  Level level = 0;                            ///< hierarchy level k
  NodeId a = kInvalidNode;                    ///< primary id (owner / head / endpoint)
  NodeId b = kInvalidNode;                    ///< secondary id (server / other endpoint)
  double value = 0.0;                         ///< cost payload (packet transmissions)
};

class TraceSink {
 public:
  struct Config {
    Size capacity = 4096;     ///< ring-buffer slots (>= 1)
    Size sample_every = 1;    ///< keep every Nth record() call (1 = keep all)
  };

  TraceSink();  ///< default Config
  explicit TraceSink(Config config);

  /// Record one event. When the ring is full the oldest event is overwritten;
  /// with sample_every = N only every Nth call is stored (the rest are
  /// counted in seen() and discarded).
  void record(const TraceEvent& event);

  /// All record() calls, including sampled-out and overwritten ones.
  Size seen() const noexcept { return seen_; }
  /// Events currently held (<= capacity).
  Size size() const noexcept { return stored_ < ring_.size() ? stored_ : ring_.size(); }
  /// Stored events that were later overwritten by wraparound.
  Size dropped() const noexcept {
    return stored_ > ring_.size() ? stored_ - ring_.size() : 0;
  }
  Size capacity() const noexcept { return ring_.size(); }

  /// Events oldest-to-newest. Copies; intended for end-of-run export.
  std::vector<TraceEvent> snapshot() const;

  /// Per-type counts over every *stored* event (survives wraparound —
  /// counts are accumulated at record time, not derived from the ring).
  const std::array<Size, kTraceEventTypeCount>& type_counts() const noexcept {
    return type_counts_;
  }

 private:
  std::vector<TraceEvent> ring_;
  Size next_ = 0;    ///< ring slot for the next stored event
  Size stored_ = 0;  ///< total events ever stored
  Size seen_ = 0;
  Size sample_every_;
  std::array<Size, kTraceEventTypeCount> type_counts_{};
};

}  // namespace manet::sim

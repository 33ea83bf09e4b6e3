#pragma once

#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "routing/table.hpp"
#include "sim/shard.hpp"

/// \file sessions.hpp
/// Data-plane session workload in two modes.
///
/// Legacy trains (tick()): Poisson unicast session arrivals between uniform
/// random pairs, each carrying a packet train routed over *strict
/// hierarchical routing* (not idealized shortest paths — stretch and
/// recovery detours are charged). This is the denominator of the paper's
/// Section-6 significance claim: LM control overhead must vanish relative
/// to the data load the network exists to carry (experiment E19).
///
/// Long-lived sessions (tick_sessions()): sessions persist across ticks and
/// their packets first *resolve* the destination through a LocatorView (the
/// live LM database + handover FSM plane) before routing. Within a tick the
/// down mask, the locator and the tables are read-only, so every packet of
/// one session meets one fate: each live session resolves and routes once
/// per tick, and that fate is charged once per packet of the tick.
/// Handoffs therefore have user-visible consequences (experiment E29):
///   - a resolution served by a stale / rolled-back copy misroutes the
///     packet through the out-of-date holder before reaching the
///     destination (packets_misrouted, misroute_extra);
///   - a resolution miss (every serving copy dark) loses the packet and
///     opens a per-session *interruption window*, closed by the next
///     delivered packet — window lengths feed the interruption-time
///     distribution whose p99 the bench gate enforces.

namespace manet::traffic {

/// Packets per session train in the legacy tick() mode.
inline constexpr Size kPacketsPerSession = 10;

struct SessionConfig {
  double sessions_per_node_per_sec = 0.2;
  // Long-lived mode (tick_sessions()):
  double mean_duration = 4.0;   ///< exponential session lifetime, s
  double packets_per_sec = 4.0; ///< per-session offered packet rate
};

/// Destination-resolution outcome for one packet, ordered worst-to-best so
/// multi-level resolution can keep the max.
enum class LocateResult : std::uint8_t {
  kMiss = 0,   ///< no serving copy reachable — the packet is lost
  kStaleHit,   ///< answered by an out-of-date copy — the packet misroutes
  kFresh,      ///< answered by a live, current copy
};

struct LocateOutcome {
  LocateResult result = LocateResult::kMiss;
  NodeId server = kInvalidNode;  ///< answering server (query-latency pricing)
  NodeId holder = kInvalidNode;  ///< stale-copy holder on kStaleHit (misroute target)
};

/// How a packet finds its destination. Implemented over the LM plane by
/// exp::LmSessionLocator; traffic/ stays below lm/ in the layering, so only
/// this interface lives here. nullptr in TickContext = always fresh
/// (idealized resolution, the legacy behavior). locate() must answer from
/// the tick's state alone: tick_sessions() asks once per live session per
/// tick and applies the answer to all of that session's packets. It is
/// const and must only read, because tick_sessions() calls it from every
/// thread of its executor at once.
class LocatorView {
 public:
  virtual ~LocatorView() = default;
  virtual LocateOutcome locate(NodeId dst) const = 0;
};

struct SessionStats {
  Size sessions = 0;
  Size undeliverable = 0;          ///< routing failures (should be 0)
  Size recovered = 0;              ///< sessions that used recovery forwarding
  PacketCount data_transmissions = 0;
  double window = 0.0;             ///< accumulated seconds

  /// Ticks skipped because fewer than 2 nodes were available (crash faults
  /// can shrink the alive set; skipping beats aborting the run).
  Size skipped_ticks = 0;

  // Long-lived continuity accounting (tick_sessions() only).
  Size packets_offered = 0;
  Size packets_delivered = 0;
  Size packets_misrouted = 0;      ///< resolved via a stale / rolled-back copy
  Size packets_lost = 0;           ///< resolution miss, dark endpoint, route failure
  PacketCount misroute_extra = 0;  ///< chase-leg transmissions to stale holders
  Size interruptions = 0;          ///< interruption windows opened
  double interruption_time = 0.0;  ///< summed window lengths, s

  /// Data-plane packet transmissions per node per second.
  double rate(Size node_count) const;
  /// Mean data transmissions per delivered session (= packet train length
  /// times the routed path length).
  double mean_transmissions_per_session() const;
  /// Fraction of offered packets that misrouted via a stale copy.
  double misroute_rate() const;
  /// Fraction of offered packets lost outright.
  double loss_rate() const;
};

class SessionWorkload {
 public:
  SessionWorkload(SessionConfig config, std::uint64_t seed);

  /// Legacy mode: generate Poisson(n * rate * dt) sessions between uniform
  /// random pairs and route each train over \p tables; accumulate the
  /// transmission count. Skips (and counts) the tick when node_count < 2.
  void tick(const routing::RoutingTables& tables, Size node_count, Time dt);

  /// Long-lived mode inputs for one tick. `tables` is required; `locator`
  /// and `down` are optional (nullptr = idealized resolution / nobody down).
  struct TickContext {
    const routing::RoutingTables* tables = nullptr;
    const LocatorView* locator = nullptr;
    const std::vector<std::uint8_t>* down = nullptr;
    Size node_count = 0;
    Time now = 0.0;
    Time dt = 1.0;
  };

  /// Long-lived mode: expire finished sessions, admit Poisson arrivals,
  /// then resolve and route each live session once and charge that fate to
  /// each of its per-tick packets. Skips (and counts) the tick when
  /// node_count < 2.
  ///
  /// Cost: per live session, one locate() and one route() (two for a stale
  /// hit); per arrival, with the query-hop histogram on, one more of each.
  /// The fates are computed over the shards of the executor given to
  /// set_parallel(), each shard a contiguous slice of the live sessions
  /// writing its own slots, with one RouteScratch per executing thread;
  /// arrivals, expiry and the charging of fates and interruption windows
  /// stay serial, in session order. So every statistic, window and
  /// histogram count is identical at any shard and thread count. ctx's
  /// tables, locator and down mask must stay unchanged during the call.
  void tick_sessions(const TickContext& ctx);

  /// Compute tick_sessions()' fates over \p executor's shards. Until this
  /// is called, and again after set_parallel(nullptr), the workload uses
  /// sim::kInlineExecutor (one shard on the calling thread).
  void set_parallel(sim::ShardExecutor* executor) noexcept {
    par_ = executor != nullptr ? executor : &sim::kInlineExecutor;
  }

  /// Close any interruption window still open (sessions interrupted at run
  /// end would otherwise never report their window). Call once after the
  /// final tick.
  void finish(Time now);

  Size live_sessions() const { return live_.size(); }
  const SessionStats& stats() const { return stats_; }

  /// Publish session.* instruments (counters + the interruption / query-hop
  /// histograms) into \p registry. nullptr = off, zero cost.
  void set_metrics(common::MetricsRegistry* registry);

  /// Nearest-rank quantile over *closed* interruption windows. Quiet NaN —
  /// the repo's "metric absent" sentinel — when none closed yet: an
  /// uninterrupted run has no p99, and a 0.0 placeholder would silently
  /// drag down campaign aggregates. Artifact writers round-trip the NaN as
  /// JSON null (exp/artifacts.cpp).
  double interruption_quantile(double q) const;
  const std::vector<double>& interruption_windows() const { return windows_; }

 private:
  struct Live {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    Time ends_at = 0.0;
    bool interrupted = false;
    Time interrupted_since = 0.0;
  };

  /// What every packet of one session meets in one tick.
  struct PacketFate {
    bool delivered = false;
    bool misrouted = false;      ///< resolved through a stale holder
    bool undeliverable = false;  ///< the direct route failed
    bool recovered = false;      ///< the direct route used recovery forwarding
    PacketCount transmissions = 0;   ///< per delivered packet
    PacketCount misroute_extra = 0;  ///< chase-leg share of transmissions
  };

  bool is_down(const TickContext& ctx, NodeId v) const {
    return ctx.down != nullptr && v < ctx.down->size() && (*ctx.down)[v] != 0;
  }
  /// Resolve and route \p session once for this tick. Reads only ctx and
  /// \p session, so the shards of tick_sessions() call it concurrently.
  PacketFate fate_of(const Live& session, const TickContext& ctx,
                     routing::RouteScratch& scratch) const;
  /// Charge \p fate to \p packets packets: stats and session.* counters.
  void charge(const PacketFate& fate, Size packets);
  void close_window(Live& session, Time now);

  SessionConfig config_;
  common::Xoshiro256 rng_;
  routing::RouteScratch route_scratch_;
  SessionStats stats_;
  std::vector<Live> live_;
  std::vector<PacketFate> fates_;  ///< this tick's fate per live session, kept across ticks
  std::vector<double> windows_;    ///< closed interruption window lengths, s
  const sim::ShardExecutor* par_ = &sim::kInlineExecutor;

  common::Counter* offered_c_ = nullptr;
  common::Counter* delivered_c_ = nullptr;
  common::Counter* misrouted_c_ = nullptr;
  common::Counter* lost_c_ = nullptr;
  common::Histogram* interruption_h_ = nullptr;
  common::Histogram* query_hops_h_ = nullptr;
};

}  // namespace manet::traffic

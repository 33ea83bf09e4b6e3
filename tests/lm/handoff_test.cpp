#include "lm/handoff.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "geom/region.hpp"
#include "mobility/random_waypoint.hpp"
#include "net/unit_disk.hpp"

namespace manet::lm {
namespace {

struct World {
  geom::DiskRegion disk{geom::Vec2{0, 0}, 1.0};
  std::vector<geom::Vec2> pts;
  net::UnitDiskBuilder builder{2.2, true};
  cluster::HierarchyBuilder hb;
  graph::Graph g{0};
  cluster::Hierarchy h;

  explicit World(Size n, std::uint64_t seed)
      : disk(geom::DiskRegion::with_density(n, 1.0)) {
    common::Xoshiro256 rng(seed);
    pts.resize(n);
    for (auto& p : pts) p = disk.sample(rng);
    refresh();
  }

  void refresh() {
    g = builder.build(pts);
    h = hb.build(g);
  }
};

TEST(HandoffEngine, NoTopologyChangeMeansNoCost) {
  World w(250, 1);
  HandoffEngine engine;
  engine.prime(w.h, 0.0);
  const auto tick = engine.update(w.h, w.g, 1.0);
  EXPECT_EQ(tick.phi_packets, 0u);
  EXPECT_EQ(tick.gamma_packets, 0u);
  EXPECT_EQ(tick.entries_moved, 0u);
  EXPECT_DOUBLE_EQ(engine.phi_rate(), 0.0);
}

TEST(HandoffEngine, PrimePopulatesDatabase) {
  World w(300, 2);
  HandoffEngine engine;
  engine.prime(w.h, 0.0);
  Level top = w.h.top_level();
  ASSERT_GE(top, 2u);
  EXPECT_EQ(engine.database().total_entries(),
            w.g.vertex_count() * (top - kFirstServedLevel + 1));
}

TEST(HandoffEngine, DatabaseStaysConsistentWithAssignments) {
  World w(300, 3);
  HandoffEngine engine;
  engine.prime(w.h, 0.0);

  common::Xoshiro256 rng(4);
  for (int step = 1; step <= 5; ++step) {
    // Perturb ~5% of nodes.
    for (Size v = 0; v < w.pts.size(); v += 20) {
      w.pts[v] += {common::uniform(rng, -1.5, 1.5), common::uniform(rng, -1.5, 1.5)};
      w.pts[v] = w.disk.clamp(w.pts[v]);
    }
    w.refresh();
    engine.update(w.h, w.g, static_cast<Time>(step));

    // Invariant: the database holds exactly one record per (owner, level)
    // at the currently selected server.
    ServerSelectConfig cfg;  // engine default
    Size expected = 0;
    for (NodeId owner = 0; owner < w.g.vertex_count(); ++owner) {
      for (Level k = kFirstServedLevel; k <= w.h.top_level(); ++k) {
        const NodeId server = select_server(w.h, owner, k, cfg);
        const auto* rec = engine.database().find(server, owner, k);
        ASSERT_NE(rec, nullptr) << "missing record owner=" << owner << " level=" << k
                                << " step=" << step;
        ++expected;
      }
    }
    EXPECT_EQ(engine.database().total_entries(), expected);
  }
}

TEST(HandoffEngine, MovementProducesPhiAndGamma) {
  World w(400, 5);
  HandoffEngine engine;
  engine.prime(w.h, 0.0);
  mobility::RandomWaypoint model(w.disk, 0, mobility::RandomWaypoint::Params::fixed_speed(1.0),
                                 6);  // unused; we perturb manually for determinism
  common::Xoshiro256 rng(7);
  for (int step = 1; step <= 10; ++step) {
    for (auto& p : w.pts) {
      p += {common::uniform(rng, -1.0, 1.0), common::uniform(rng, -1.0, 1.0)};
      p = w.disk.clamp(p);
    }
    w.refresh();
    engine.update(w.h, w.g, static_cast<Time>(step));
  }
  EXPECT_GT(engine.total_phi(), 0u);
  EXPECT_GT(engine.total_gamma(), 0u);
  EXPECT_GT(engine.phi_rate(), 0.0);
  EXPECT_GT(engine.gamma_rate(), 0.0);
  // Per-level rates must sum to the totals.
  double phi_sum = 0.0, gamma_sum = 0.0;
  for (Level k = 0; k < engine.per_level().size(); ++k) {
    phi_sum += engine.phi_rate_at(k);
    gamma_sum += engine.gamma_rate_at(k);
  }
  EXPECT_NEAR(phi_sum, engine.phi_rate(), 1e-9);
  EXPECT_NEAR(gamma_sum, engine.gamma_rate(), 1e-9);
}

TEST(HandoffEngine, MigrationCountsTrackAncestorChanges) {
  World w(250, 10);
  HandoffEngine engine;
  engine.prime(w.h, 0.0);
  const auto before = w.h;
  // Move a block of nodes far across the region.
  for (Size v = 0; v < 25; ++v) w.pts[v] = w.disk.clamp(w.pts[v] + geom::Vec2{8.0, 8.0});
  w.refresh();
  engine.update(w.h, w.g, 1.0);

  Size expected = 0;
  const Level common_top = std::min(before.top_level(), w.h.top_level());
  for (NodeId v = 0; v < w.g.vertex_count(); ++v) {
    for (Level k = 1; k <= common_top; ++k) {
      if (before.ancestor_id(v, k) != w.h.ancestor_id(v, k)) ++expected;
    }
  }
  Size measured = 0;
  for (Level k = 1; k <= common_top; ++k) measured += engine.migration_count(k);
  EXPECT_EQ(measured, expected);
}

TEST(HandoffEngine, ElapsedTracksUpdates) {
  World w(150, 11);
  HandoffEngine engine;
  engine.prime(w.h, 5.0);
  engine.update(w.h, w.g, 7.5);
  EXPECT_DOUBLE_EQ(engine.elapsed(), 2.5);
}

// --- Every outcome of the entry-move commit --------------------------------

// Records each callback into the engine's own trace sink, so the sink holds
// the engine's events and the observer's calls interleaved in commit order.
class SinkObserver final : public HandoverObserver {
 public:
  explicit SinkObserver(sim::TraceSink& sink) : sink_(sink) {}
  void on_entry_move(NodeId owner, Level k, NodeId, NodeId to, Time t, bool,
                     PacketCount hops) override {
    sink_.record({t, sim::TraceEventType::kHandoverStart, k, owner, to,
                  static_cast<double>(hops)});
  }
  void on_entry_stale(NodeId owner, Level k, NodeId holder, Time t) override {
    sink_.record({t, sim::TraceEventType::kHandoverRollback, k, owner, holder});
  }
  void on_entry_repaired(NodeId owner, Level k, NodeId server, Time t) override {
    sink_.record({t, sim::TraceEventType::kHandoverComplete, k, owner, server});
  }
  void on_entry_retired(NodeId owner, Level k, Time t) override {
    sink_.record({t, sim::TraceEventType::kHandoverFail, k, owner});
  }

 private:
  sim::TraceSink& sink_;
};

enum class Channel { kIdeal, kLossless, kDropping };

// Weighted descent can pick the owner as its own server, so retirements and
// registrations of zero hops occur (the default successor rule only does
// that for singleton clusters).
const ServerSelectConfig kCommitSelect{SelectStrategy::kWeightedDescent};

// Reference model of one update(): walks (owner, level) in order and writes
// the events and ledgers the engine must produce. Under kDropping (loss 1,
// retry budget 0) every attempt of one hop or more fails after exactly one
// transmission; zero-hop moves (owner = server) are delivered free.
struct CommitModel {
  explicit CommitModel(Channel c) : channel(c) {}

  Channel channel;
  std::vector<sim::TraceEvent> events;
  std::map<std::pair<NodeId, Level>, NodeId> stale;  // -> holder
  std::vector<LevelOverhead> levels = std::vector<LevelOverhead>(16);
  Size churn = 0;
  Size failed = 0;
  Size zero_hop = 0;
  PacketCount phi_retx = 0;
  PacketCount gamma_retx = 0;
  graph::BfsPairScratch bfs;

  void tick(const cluster::Hierarchy& prev, const cluster::Hierarchy& next,
            const graph::Graph& g, Time t) {
    using E = sim::TraceEventType;
    events.clear();
    const Level max_top = std::max(prev.top_level(), next.top_level());
    for (NodeId v = 0; v < g.vertex_count(); ++v) {
      for (Level k = kFirstServedLevel; k <= max_top; ++k) {
        const bool had = k <= prev.top_level();
        const bool has = k <= next.top_level();
        const NodeId from = had ? select_server(prev, v, k, kCommitSelect) : v;
        const NodeId to = has ? select_server(next, v, k, kCommitSelect) : v;
        if (had && has && from == to) continue;
        const bool migrated = had && has && prev.ancestor_id(v, k) != next.ancestor_id(v, k);
        const auto st = stale.find({v, k});
        if (channel != Channel::kIdeal && st != stale.end() && had) {
          if (has) continue;  // stale transfer: the repair path owns it
          stale.erase(st);    // stale retire: discarded, nothing sent
          ++churn;
          events.push_back({t, E::kHandoverFail, k, v});
          continue;
        }
        const std::uint32_t hops = bfs.hops(g, from, to);
        ASSERT_NE(hops, graph::kUnreachable);
        if (hops == 0) ++zero_hop;
        if (channel == Channel::kDropping && hops > 0) {
          ++failed;
          (migrated ? phi_retx : gamma_retx) += 1;
          if (had && has) {
            stale[{v, k}] = from;
            events.push_back({t, E::kHandoverRollback, k, v, from});
          } else if (had) {
            ++churn;
            events.push_back({t, E::kHandoverFail, k, v});
          } else if (stale.emplace(std::pair{v, k}, kInvalidNode).second) {
            events.push_back({t, E::kHandoverRollback, k, v, kInvalidNode});
          }
          events.push_back({t, E::kPacketDropped, k, from, to, 1.0});
          continue;
        }
        auto& lvl = levels[k];
        (migrated ? lvl.phi_packets : lvl.gamma_packets) += hops;
        ++(migrated ? lvl.phi_entries : lvl.gamma_entries);
        if (had && has) {
          events.push_back({t, migrated ? E::kHandoffPhi : E::kHandoffGamma, k, from, to,
                            static_cast<double>(hops)});
          events.push_back({t, E::kHandoverStart, k, v, to, static_cast<double>(hops)});
          continue;
        }
        ++churn;
        if (had) events.push_back({t, E::kHandoverFail, k, v});
        events.push_back({t, E::kLevelChurn, k, from, to, static_cast<double>(hops)});
      }
    }
  }
};

struct CommitRig {
  static constexpr sim::TraceSink::Config kSinkConfig{1 << 15, 1};
  sim::TraceSink sink{kSinkConfig};
  SinkObserver observer{sink};
  net::LossyChannel channel;
  ReliableTransfer arq;
  HandoffEngine engine{HandoffConfig{kCommitSelect}};
  CommitModel model;

  explicit CommitRig(Channel c)
      : channel(make_fault(c == Channel::kDropping ? 1.0 : 0.0), 17),
        arq(channel, c == Channel::kDropping ? 0 : 2, 0.05, 2.0),
        model(c) {
    engine.set_trace(&sink);
    engine.set_handover_observer(&observer);
    if (c != Channel::kIdeal) engine.set_resilience(&arq, nullptr);
  }
  static sim::FaultConfig make_fault(double loss) {
    sim::FaultConfig cfg;
    cfg.loss = loss;
    return cfg;
  }

  void step(const cluster::Hierarchy& prev, const cluster::Hierarchy& next,
            const graph::Graph& g, Time t) {
    sink = sim::TraceSink{kSinkConfig};  // this step's events only
    engine.update(next, g, t);
    model.tick(prev, next, g, t);
    const auto got = sink.snapshot();
    ASSERT_EQ(got.size(), model.events.size()) << "t=" << t;
    for (Size i = 0; i < got.size(); ++i) {
      const auto& a = got[i];
      const auto& b = model.events[i];
      ASSERT_TRUE(a.t == b.t && a.type == b.type && a.level == b.level && a.a == b.a &&
                  a.b == b.b && a.value == b.value)
          << "t=" << t << " event " << i << ": " << sim::to_string(a.type) << " k=" << a.level
          << " " << a.a << "->" << a.b << " v=" << a.value << ", want "
          << sim::to_string(b.type) << " k=" << b.level << " " << b.a << "->" << b.b
          << " v=" << b.value;
    }
    check_ledgers();
  }

  void check_ledgers() const {
    const auto& lv = engine.per_level();
    for (Level k = 0; k < model.levels.size(); ++k) {
      const LevelOverhead want = model.levels[k];
      const LevelOverhead got = k < lv.size() ? lv[k] : LevelOverhead{};
      EXPECT_EQ(got.phi_packets, want.phi_packets) << "k=" << k;
      EXPECT_EQ(got.phi_entries, want.phi_entries) << "k=" << k;
      EXPECT_EQ(got.gamma_packets, want.gamma_packets) << "k=" << k;
      EXPECT_EQ(got.gamma_entries, want.gamma_entries) << "k=" << k;
    }
    EXPECT_EQ(engine.level_churn_entries(), model.churn);
    EXPECT_EQ(engine.resilience().failed_transfers, model.failed);
    EXPECT_EQ(engine.resilience().phi_retx, model.phi_retx);
    EXPECT_EQ(engine.resilience().gamma_retx, model.gamma_retx);
    EXPECT_EQ(engine.stale_entries(), model.stale.size());
    for (const auto& [key, holder] : model.stale) {
      EXPECT_TRUE(engine.is_stale(key.first, key.second));
      EXPECT_EQ(engine.stale_holder(key.first, key.second), holder);
    }
  }
};

struct CommitFixture {
  World a{300, 21};
  World a2{300, 21};  // a perturbed copy of a
  graph::Graph complete{0};
  cluster::Hierarchy b;  // one cluster over the complete graph: no served level

  CommitFixture() {
    common::Xoshiro256 rng(22);
    for (Size v = 0; v < a2.pts.size(); v += 8) {
      a2.pts[v] += {common::uniform(rng, -2.0, 2.0), common::uniform(rng, -2.0, 2.0)};
      a2.pts[v] = a2.disk.clamp(a2.pts[v]);
    }
    a2.refresh();
    std::vector<graph::Edge> edges;
    const auto n = static_cast<NodeId>(a.pts.size());
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
    }
    complete = graph::Graph(n, edges);
    b = cluster::HierarchyBuilder{}.build(complete);
  }
};

TEST(HandoffCommit, RetireThenRegisterUnderEveryChannel) {
  const CommitFixture f;
  ASSERT_GE(f.a.h.top_level(), 3u);
  ASSERT_LE(f.b.top_level(), 1u);
  std::vector<LevelOverhead> ideal_levels;
  for (const Channel c : {Channel::kIdeal, Channel::kLossless, Channel::kDropping}) {
    SCOPED_TRACE(static_cast<int>(c));
    CommitRig rig(c);
    rig.engine.prime(f.a.h, 0.0);
    const Size entries = rig.engine.database().total_entries();
    ASSERT_GT(entries, 0u);

    rig.step(f.a.h, f.b, f.complete, 1.0);
    EXPECT_EQ(rig.engine.level_churn_entries(), entries);
    EXPECT_EQ(rig.engine.database().total_entries(), 0u) << "no copy after a retirement";
    EXPECT_GT(rig.model.zero_hop, 0u) << "fixture must retire some entry held by its owner";

    rig.step(f.b, f.a.h, f.a.g, 2.0);
    Size registered = 0;
    for (NodeId v = 0; v < f.a.g.vertex_count(); ++v) {
      for (Level k = kFirstServedLevel; k <= f.a.h.top_level(); ++k) {
        const NodeId s = select_server(f.a.h, v, k, kCommitSelect);
        if (rig.engine.is_stale(v, k)) {
          EXPECT_EQ(rig.engine.database().find(s, v, k), nullptr);
          continue;
        }
        EXPECT_NE(rig.engine.database().find(s, v, k), nullptr) << v << "@" << k;
        ++registered;
      }
    }
    EXPECT_EQ(rig.engine.database().total_entries(), registered);
    if (c == Channel::kDropping) {
      EXPECT_GT(rig.engine.resilience().failed_transfers, 0u);
      EXPECT_GT(rig.engine.stale_entries(), 0u);
      EXPECT_LT(registered, entries);
    } else {
      EXPECT_EQ(registered, entries);
      EXPECT_EQ(rig.engine.level_churn_entries(), 2 * entries);
      EXPECT_EQ(rig.engine.resilience().failed_transfers, 0u);
      EXPECT_EQ(rig.engine.resilience().gamma_retx, 0u);
      if (c == Channel::kIdeal) {
        ideal_levels = rig.engine.per_level();
      } else {
        ASSERT_EQ(rig.engine.per_level().size(), ideal_levels.size());
        for (Size k = 0; k < ideal_levels.size(); ++k) {
          EXPECT_EQ(rig.engine.per_level()[k].phi_packets, ideal_levels[k].phi_packets);
          EXPECT_EQ(rig.engine.per_level()[k].phi_entries, ideal_levels[k].phi_entries);
          EXPECT_EQ(rig.engine.per_level()[k].gamma_packets, ideal_levels[k].gamma_packets);
          EXPECT_EQ(rig.engine.per_level()[k].gamma_entries, ideal_levels[k].gamma_entries);
        }
      }
    }
  }
}

TEST(HandoffCommit, FailedTransfersGoStaleThenSkipThenRetire) {
  const CommitFixture f;
  for (const Channel c : {Channel::kIdeal, Channel::kLossless, Channel::kDropping}) {
    SCOPED_TRACE(static_cast<int>(c));
    CommitRig rig(c);
    rig.engine.prime(f.a.h, 0.0);
    rig.step(f.a.h, f.a2.h, f.a2.g, 1.0);
    Size moves = 0;
    const Level common_top = std::min(f.a.h.top_level(), f.a2.h.top_level());
    for (NodeId v = 0; v < f.a.g.vertex_count(); ++v) {
      for (Level k = kFirstServedLevel; k <= common_top; ++k) {
        const NodeId s_old = select_server(f.a.h, v, k, kCommitSelect);
        const NodeId s_new = select_server(f.a2.h, v, k, kCommitSelect);
        if (s_old == s_new) continue;
        ++moves;
        const bool failed = c == Channel::kDropping;
        EXPECT_EQ(rig.engine.database().find(s_old, v, k) != nullptr, failed)
            << "a failed transfer keeps the old copy";
        EXPECT_EQ(rig.engine.database().find(s_new, v, k) != nullptr, !failed);
        EXPECT_EQ(rig.engine.stale_holder(v, k), failed ? s_old : kInvalidNode);
      }
    }
    ASSERT_GT(moves, 0u);
    rig.step(f.a2.h, f.a.h, f.a.g, 2.0);  // stale entries are skipped
    rig.step(f.a.h, f.b, f.complete, 3.0);  // stale entries retire by discard
    EXPECT_EQ(rig.engine.database().total_entries(), 0u);
    EXPECT_EQ(rig.engine.stale_entries(), 0u);
  }
}

TEST(HandoffEngineDeath, UpdateBeforePrime) {
  World w(100, 12);
  HandoffEngine engine;
  EXPECT_DEATH(engine.update(w.h, w.g, 1.0), "prime");
}

TEST(HandoffEngineDeath, TimeMustBeMonotone) {
  World w(100, 13);
  HandoffEngine engine;
  engine.prime(w.h, 5.0);
  EXPECT_DEATH(engine.update(w.h, w.g, 4.0), "monotone");
}

}  // namespace
}  // namespace manet::lm

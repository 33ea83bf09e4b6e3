/// E15: microbenchmarks of the simulator's hot paths (google-benchmark).
/// These are the costs that bound how large a scenario one core can carry:
/// unit-disk graph construction, BFS, recursive ALCA hierarchy build,
/// snapshot diffing, handoff accounting, landmark hop queries, and the
/// hashing primitives.

#include <benchmark/benchmark.h>

#include <vector>

#include "cluster/diff.hpp"
#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "geom/region.hpp"
#include "graph/bfs.hpp"
#include "lm/handoff.hpp"
#include "lm/rendezvous.hpp"
#include "net/hop_oracle.hpp"
#include "net/radio.hpp"
#include "net/unit_disk.hpp"

namespace manet {
namespace {

std::vector<geom::Vec2> sample_points(Size n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  const auto disk = geom::DiskRegion::with_density(n, 1.0);
  std::vector<geom::Vec2> pts(n);
  for (auto& p : pts) p = disk.sample(rng);
  return pts;
}

void BM_UnitDiskBuild(benchmark::State& state) {
  const auto n = static_cast<Size>(state.range(0));
  const auto pts = sample_points(n, 1);
  net::UnitDiskBuilder builder(2.2, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.build(pts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_UnitDiskBuild)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Bfs(benchmark::State& state) {
  const auto n = static_cast<Size>(state.range(0));
  const auto pts = sample_points(n, 2);
  net::UnitDiskBuilder builder(2.2, true);
  const auto g = builder.build(pts);
  graph::BfsScratch scratch;
  NodeId source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scratch.run(g, source));
    source = (source + 1) % static_cast<NodeId>(n);
  }
}
BENCHMARK(BM_Bfs)->Arg(256)->Arg(1024)->Arg(4096);

void BM_HierarchyBuild(benchmark::State& state) {
  const auto n = static_cast<Size>(state.range(0));
  const auto pts = sample_points(n, 3);
  net::UnitDiskBuilder builder(2.2, true);
  const auto g = builder.build(pts);
  cluster::HierarchyOptions options;
  options.geometric_links = true;
  options.tx_radius = 2.2;
  const cluster::HierarchyBuilder hb(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hb.build(g, {}, pts));
  }
}
BENCHMARK(BM_HierarchyBuild)->Arg(256)->Arg(1024)->Arg(4096);

void BM_HierarchyDiff(benchmark::State& state) {
  const auto n = static_cast<Size>(state.range(0));
  auto pts = sample_points(n, 4);
  net::UnitDiskBuilder builder(2.2, true);
  const cluster::HierarchyBuilder hb;
  const auto h1 = hb.build(builder.build(pts));
  for (Size v = 0; v < n; v += 13) pts[v] += {1.0, -0.5};
  const auto h2 = hb.build(builder.build(pts));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::diff_hierarchies(h1, h2));
  }
}
BENCHMARK(BM_HierarchyDiff)->Arg(256)->Arg(1024);

void BM_HandoffUpdate(benchmark::State& state) {
  const auto n = static_cast<Size>(state.range(0));
  auto pts = sample_points(n, 5);
  net::UnitDiskBuilder builder(2.2, true);
  const cluster::HierarchyBuilder hb;
  common::Xoshiro256 rng(6);
  const auto disk = geom::DiskRegion::with_density(n, 1.0);

  // Pre-generate a ring of perturbed snapshots so the measured loop is pure
  // engine work.
  constexpr int kSnapshots = 8;
  std::vector<graph::Graph> graphs;
  std::vector<cluster::Hierarchy> hierarchies;
  for (int s = 0; s < kSnapshots; ++s) {
    for (auto& p : pts) {
      p += {common::uniform(rng, -0.5, 0.5), common::uniform(rng, -0.5, 0.5)};
      p = disk.clamp(p);
    }
    graphs.push_back(builder.build(pts));
    hierarchies.push_back(hb.build(graphs.back()));
  }

  lm::HandoffEngine engine;
  engine.prime(hierarchies[0], 0.0);
  Time t = 0.0;
  int idx = 1;
  for (auto _ : state) {
    t += 1.0;
    benchmark::DoNotOptimize(
        engine.update(hierarchies[static_cast<Size>(idx)],
                      graphs[static_cast<Size>(idx)], t));
    idx = (idx + 1) % kSnapshots;
  }
}
BENCHMARK(BM_HandoffUpdate)->Arg(256)->Arg(1024);

void BM_HopOracle(benchmark::State& state) {
  // One exact hops() query per iteration on an armed oracle: a connected
  // deployment at the simulator's default connectivity radius is deep
  // enough for both depth probes of prepare(). Pairs at least 4 hops apart
  // (the oracle's near cutoff) keep the timed queries on the landmark A*
  // route instead of bidirectional BFS. The second argument is the table
  // width: 32 landmarks are what a tick pricing at least n / 2 distinct
  // pairs gets, so pairs = n selects them.
  const auto n = static_cast<Size>(state.range(0));
  const Size priced = state.range(1) == 32 ? n : 0;
  net::UnitDiskBuilder builder(net::connectivity_radius(n, 1.0, 3.5), true);
  const auto g = builder.build(sample_points(n, 8));
  net::HopOracle oracle;
  oracle.prepare(g, priced);
  constexpr std::uint32_t kMinHops = 4;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  graph::BfsPairScratch ref;
  common::Xoshiro256 rng(9);
  while (pairs.size() < 1024) {
    const auto s = static_cast<NodeId>(common::uniform_index(rng, n));
    const auto t = static_cast<NodeId>(common::uniform_index(rng, n));
    if (ref.hops(g, s, t) >= kMinHops) pairs.emplace_back(s, t);
  }
  Size i = 0;
  for (auto _ : state) {
    const auto [s, t] = pairs[i];
    benchmark::DoNotOptimize(oracle.hops(s, t));
    i = (i + 1) % pairs.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HopOracle)->ArgsProduct({{4096, 16384}, {16, 32}});

void BM_RendezvousPick(benchmark::State& state) {
  const auto n_candidates = static_cast<Size>(state.range(0));
  std::vector<NodeId> candidates(n_candidates);
  for (NodeId i = 0; i < n_candidates; ++i) candidates[i] = i * 7 + 3;
  NodeId owner = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm::rendezvous_pick(42, owner++, candidates));
  }
}
BENCHMARK(BM_RendezvousPick)->Arg(8)->Arg(64);

void BM_SelectServer(benchmark::State& state) {
  const Size n = 1024;
  const auto pts = sample_points(n, 7);
  net::UnitDiskBuilder builder(2.2, true);
  const auto h = cluster::HierarchyBuilder().build(builder.build(pts));
  const lm::ServerSelectConfig config;
  const Level k = std::min<Level>(3, h.top_level());
  NodeId owner = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm::select_server(h, owner, k, config));
    owner = (owner + 1) % static_cast<NodeId>(n);
  }
}
BENCHMARK(BM_SelectServer);

}  // namespace
}  // namespace manet

BENCHMARK_MAIN();

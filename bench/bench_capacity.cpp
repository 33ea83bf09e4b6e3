/// E19: the paper's closing significance claim — "the capacity of MANET
/// links need only grow at a polylogarithmic rate in order to scale
/// gracefully with increasing node count." We measure total LM control
/// overhead (handoff + registration) against the data-plane load of a fixed
/// per-node session workload: data transmissions per node grow as the mean
/// path length Theta(sqrt n), so the control fraction must *vanish* as the
/// network grows.
///
/// E30: the 10^5-node capacity demonstration for the sharded parallel tick.
/// The hot tick kernel — mobility advance, unit-disk delta update, link
/// diffing, and a fixed batch of hop queries — runs at n = 100 000 under
/// 1/2/8 worker threads, and at n = 25 000 over a full shards x threads
/// matrix (shard topology is a runtime knob since the SoA refactor; each
/// cell is the median of 3 interleaved sweeps of the matrix). Every
/// cell is bit-identical by construction (runtime shard decomposition,
/// shard-order merges), so the bench also folds every delta edge and hop
/// answer into a digest and reports `identity_violations` when any
/// shards x threads cell diverges from the one-shard inline reference. The
/// matrix lands in the artifact as per-cell
/// `ticks_per_sec_s<S>_t<T>` scalars plus the derived `speedup_2t` /
/// `speedup_max` ratios; the committed baseline carries `min_capacity_n` =
/// 100000 and `min_parallel_speedup`, turning tools/check_bench.py into the
/// capacity + parallel-speedup acceptance gate (the speedup gate skips
/// itself, with a logged reason, when the manifest says the producing
/// machine had hardware_concurrency < 2).

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>

#include "analysis/stats.hpp"
#include "bench_util.hpp"
#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "net/hop_oracle.hpp"
#include "net/link_tracker.hpp"
#include "net/unit_disk.hpp"
#include "sim/shard.hpp"
#include "traffic/sessions.hpp"

using namespace manet;

namespace {

struct KernelResult {
  double ticks_per_sec = 0.0;
  std::uint64_t digest = 0;  ///< FNV over the delta stream + hop answers
};

/// One deterministic (src, dst) hop-query pair per index (Weyl-style mixing;
/// no RNG so every thread count prices the identical batch).
std::pair<NodeId, NodeId> query_pair(Size q, Size n) {
  const auto src = static_cast<NodeId>((q * 2654435761ull) % n);
  auto dst = static_cast<NodeId>((q * 0x9E3779B97F4A7C15ull + 12345) % n);
  if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);
  return {src, dst};
}

/// Run `ticks` steps of the sharded tick kernel (RWP mobility -> unit-disk
/// delta -> link diff -> landmark table -> kQueries hop lookups) and time it
/// over a ShardExecutor of sim::resolve_shard_count(shards, workers) shards:
/// inline on the calling thread at threads == 1, over a pool otherwise —
/// mirroring the RunOptions::threads / RunOptions::shards semantics exactly.
/// The landmark sweeps run over the same executor, as the handoff engine's
/// do.
KernelResult run_shard_kernel(Size n, Size threads, Size shards, Size ticks) {
  constexpr Size kQueries = 256;
  auto cfg = bench::paper_scenario();
  cfg.n = n;
  auto scenario = exp::Scenario::materialize(cfg);

  std::unique_ptr<common::ThreadPool> pool;
  if (threads != 1) pool = std::make_unique<common::ThreadPool>(threads);
  sim::ShardExecutor exec =
      pool != nullptr
          ? sim::ShardExecutor(*pool, sim::resolve_shard_count(shards, pool->thread_count()))
          : sim::ShardExecutor(sim::resolve_shard_count(shards, 1));
  net::UnitDiskBuilder disk(cfg.tx_radius());
  disk.set_parallel(&exec);

  const auto& g0 = disk.update(scenario.mobility->positions());
  net::LinkTracker links(g0, 0.0);
  links.set_parallel(&exec);
  net::HopOracle oracle;
  const Size shard_count = exec.shard_count();
  std::vector<net::HopOracle::Scratch> scratch(shard_count);
  std::vector<std::uint64_t> partial(shard_count, 0);
  net::LinkDelta delta;

  KernelResult out;
  auto mix = [&out](std::uint64_t v) {
    out.digest = (out.digest ^ v) * 1099511628211ull;
  };

  const auto started = std::chrono::steady_clock::now();
  for (Size step = 1; step <= ticks; ++step) {
    const Time t = static_cast<double>(step);
    scenario.mobility->advance_to(t);
    const auto& g = disk.update(scenario.mobility->positions());
    links.update_into(g, t, delta);
    for (const auto& e : delta.up) mix((std::uint64_t{e.first} << 32) | e.second);
    for (const auto& e : delta.down) mix((std::uint64_t{e.first} << 32) | e.second);

    oracle.prepare(g, kQueries, exec);
    exec.for_each_shard([&](Size s) {
      const auto [begin, end] = sim::ShardExecutor::slice(kQueries, s, shard_count);
      std::uint64_t sum = 0;
      for (Size q = begin; q < end; ++q) {
        const auto [src, dst] = query_pair(q, n);
        sum += oracle.hops(src, dst, scratch[s]);
      }
      partial[s] = sum;
    });
    // Fold the shard partials into one total (integer addition, so the
    // grouping is immaterial): the digest sees one sum per tick at every
    // topology.
    std::uint64_t total = 0;
    for (Size s = 0; s < shard_count; ++s) total += partial[s];
    mix(total);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - started;
  out.ticks_per_sec =
      elapsed.count() > 0.0 ? static_cast<double>(ticks) / elapsed.count() : 0.0;
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "E19  bench_capacity — control overhead vs data-plane load",
      "control/data -> 0: links need only polylog capacity headroom (paper Sec. 6)");

  // Data workload: each node opens `kSessionsPerNodePerSec` unicast sessions
  // to uniform random peers, each carrying traffic::kPacketsPerSession (10)
  // packets along shortest paths.
  constexpr double kSessionsPerNodePerSec = 0.2;

  auto cfg = bench::paper_scenario();
  exp::RunOptions opts;
  opts.track_events = false;
  opts.track_states = false;
  opts.measure_hops = false;
  opts.track_registration = true;

  analysis::TextTable table({"|V|", "control (pkts/node/s)", "data (pkts/node/s)",
                             "pkts/session", "control/data"});
  for (const Size n : bench::standard_nodes()) {
    cfg.n = n;
    const auto agg = exp::run_replications(cfg, bench::standard_replications(), opts);
    const double control = agg.mean("total_rate") + agg.mean("reg_rate");

    // Data plane: route the session workload over *strict hierarchical
    // routing* on a static snapshot of the same scenario, so stretch and
    // recovery detours are charged to the data side too.
    auto static_cfg = cfg;
    static_cfg.mobility = exp::MobilityKind::kStatic;
    auto scenario = exp::Scenario::materialize(static_cfg);
    net::UnitDiskBuilder disk(static_cfg.tx_radius(), true);
    const auto g = disk.build(scenario.mobility->positions());
    const auto h = cluster::HierarchyBuilder().build(g, scenario.ids);
    const routing::RoutingTables tables(g, h);

    traffic::SessionConfig session_cfg;
    session_cfg.sessions_per_node_per_sec = kSessionsPerNodePerSec;
    traffic::SessionWorkload workload(session_cfg, common::derive_seed(cfg.seed, 0xCAFE));
    for (int t = 0; t < 30; ++t) workload.tick(tables, n, 1.0);
    const double data = workload.stats().rate(n);

    table.add_row({std::to_string(n), bench::fixed(control, 5), bench::fixed(data, 5),
                   bench::fixed(workload.stats().mean_transmissions_per_session(), 4),
                   bench::fixed(control / data, 4)});
  }
  std::printf("%s", table.to_string("control-plane vs data-plane load").c_str());

  std::printf(
      "\nreading: data load grows ~sqrt(n) with the session path length while\n"
      "control grows ~log^2(n), so asymptotically the ratio falls to 0. At\n"
      "these scales the two growth rates are still close (log^2 elasticity\n"
      "~0.3 vs sqrt's 0.5), so expect the ratio to stop rising after the\n"
      "smallest scales and drift down from there — boundedness is the\n"
      "operative check; the decline is gentle. Paper Section 6.\n");

  // ---- E30: sharded-tick capacity at 10^5 + shards x threads matrix --------
  bench::print_header(
      "E30  bench_capacity — sharded parallel tick, shards x threads matrix",
      "any shard count x any thread count is bit-identical; threads buy wall-clock");

  auto artifact_cfg = bench::paper_scenario();
  artifact_cfg.n = 100000;
  bench::Artifact artifact("capacity", artifact_cfg, 1,
                           std::thread::hardware_concurrency());

  constexpr Size kMatrixShards[] = {1, 4, 16, 64};
  constexpr Size kMatrixThreads[] = {1, 2, 8};

  // Identity sweep: every shards x threads cell must fold the identical
  // delta stream and hop answers into the reference digest (one inline
  // shard: the threads = 1, shards = 0 auto topology).
  const Size kIdentityN = 10000;
  Size identity_violations = 0;
  const auto seq = run_shard_kernel(kIdentityN, 1, 0, 3);
  for (const Size shards : kMatrixShards) {
    for (const Size threads : kMatrixThreads) {
      const auto par = run_shard_kernel(kIdentityN, threads, shards, 3);
      if (par.digest != seq.digest) ++identity_violations;
    }
  }
  std::printf("identity @ n=%zu over shards {1,4,16,64} x threads {1,2,8}: "
              "digest %016llx, violations %zu\n",
              static_cast<std::size_t>(kIdentityN),
              static_cast<unsigned long long>(seq.digest),
              static_cast<std::size_t>(identity_violations));
  artifact.set_scalar("identity_violations",
                      static_cast<double>(identity_violations));

  // Shards x threads wall-clock matrix at n = 25 000: one ticks/s cell per
  // combination, recorded as ticks_per_sec_s<S>_t<T> scalars. The whole
  // matrix is swept kMatrixReps times and each cell is the median of its
  // sweeps, so a slow period on a shared host lands in one sweep of every
  // cell rather than in all samples of a few. The derived speedup ratios
  // compare each topology's multi-thread cells against ITS OWN
  // single-thread cell, and the reported scalars take the best topology
  // (what a tuned run would pick).
  const Size kMatrixN = 25000;
  const Size kMatrixTicks = 6;
  const Size kMatrixReps = 3;
  constexpr Size kShardCells = std::size(kMatrixShards);
  constexpr Size kThreadCells = std::size(kMatrixThreads);
  std::vector<double> samples[kShardCells][kThreadCells];
  std::uint64_t digests[kShardCells][kThreadCells] = {};
  for (Size rep = 0; rep < kMatrixReps; ++rep) {
    for (Size si = 0; si < kShardCells; ++si) {
      for (Size ti = 0; ti < kThreadCells; ++ti) {
        const auto r =
            run_shard_kernel(kMatrixN, kMatrixThreads[ti], kMatrixShards[si], kMatrixTicks);
        samples[si][ti].push_back(r.ticks_per_sec);
        digests[si][ti] = r.digest;
      }
    }
  }
  analysis::TextTable matrix_table({"shards", "threads", "ticks/s", "digest"});
  double speedup_2t = 0.0, speedup_max = 0.0;
  for (Size si = 0; si < kShardCells; ++si) {
    const Size shards = kMatrixShards[si];
    double base_tps = 0.0;
    for (Size ti = 0; ti < kThreadCells; ++ti) {
      const Size threads = kMatrixThreads[ti];
      const double tps = analysis::quantile(samples[si][ti], 0.5);
      char digest_hex[24];
      std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                    static_cast<unsigned long long>(digests[si][ti]));
      matrix_table.add_row({std::to_string(shards), std::to_string(threads),
                            bench::fixed(tps, 3), digest_hex});
      artifact.set_scalar("ticks_per_sec_s" + std::to_string(shards) + "_t" +
                              std::to_string(threads),
                          tps);
      if (threads == 1) {
        base_tps = tps;
      } else if (base_tps > 0.0) {
        const double ratio = tps / base_tps;
        if (threads == 2 && ratio > speedup_2t) speedup_2t = ratio;
        if (ratio > speedup_max) speedup_max = ratio;
      }
    }
  }
  std::printf("%s", matrix_table
                        .to_string("shards x threads matrix @ n=25000 (ticks/s, median of 3)")
                        .c_str());
  std::printf("speedup_2t %.3f  speedup_max %.3f  (hardware_concurrency %zu)\n",
              speedup_2t, speedup_max,
              static_cast<std::size_t>(artifact.hardware_concurrency()));
  artifact.set_scalar("speedup_2t", speedup_2t);
  artifact.set_scalar("speedup_max", speedup_max);
  // The manifest's thread_count reports the largest worker count any matrix
  // cell actually ran with (the construction-time value was this machine's
  // hardware_concurrency, which the matrix deliberately oversubscribes).
  artifact.set_thread_count(*std::max_element(std::begin(kMatrixThreads),
                                              std::end(kMatrixThreads)));

  // Throughput sweep, culminating in the n = 100 000 acceptance point
  // (shards = 0: the auto topology a plain --threads run would get).
  analysis::TextTable capacity_table({"|V|", "threads", "ticks/s", "digest"});
  for (const Size n : {Size{25000}, Size{100000}}) {
    const Size ticks = n >= 100000 ? 5 : 8;
    for (const Size threads : kMatrixThreads) {
      const auto r = run_shard_kernel(n, threads, 0, ticks);
      char digest_hex[24];
      std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                    static_cast<unsigned long long>(r.digest));
      capacity_table.add_row({std::to_string(n), std::to_string(threads),
                              bench::fixed(r.ticks_per_sec, 3), digest_hex});
      artifact.add_point("ticks_per_sec_t" + std::to_string(threads),
                         exp::SeriesPoint{static_cast<double>(n),
                                          r.ticks_per_sec, 0.0, 1});
    }
  }
  std::printf("%s", capacity_table.to_string("sharded tick kernel throughput")
                        .c_str());
  // Mirrors the gate floors committed in the baseline so the artifact is
  // self-describing; check_bench.py reads the *baseline's* copy. The
  // min_parallel_speedup floor only binds when the producing machine has
  // hardware_concurrency >= 2 (single-core runners skip it, logged).
  artifact.set_scalar("min_capacity_n", 100000.0);
  artifact.set_scalar("min_parallel_speedup", 1.3);
  artifact.write();

  std::printf(
      "\nreading: the digest column is constant down each block — the runtime\n"
      "shard decomposition (shard-order merges; sim::resolve_shard_count) makes\n"
      "the tick bit-identical at every shard count x thread count, so\n"
      "the matrix cells differ in wall-clock only.\n"
      "tools/check_bench.py enforces the n=100000 capacity point,\n"
      "identity_violations == 0, matrix-cell presence, and (on multi-core\n"
      "machines) speedup_max >= min_parallel_speedup.\n");
  return 0;
}

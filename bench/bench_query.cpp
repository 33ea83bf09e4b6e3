/// Two separately named query-cost artifacts share this binary:
///
/// E12b (paper Section 6 remark, artifact BENCH_query_cost.json):
/// location-query overhead is of the same order as the requester-target hop
/// count and occurs once per session, so it is absorbed by the session.
/// Measures CHLM query cost against the direct shortest-path hop count
/// across |V|.
///
/// E31 (ROADMAP item 3, artifact BENCH_query.json): the epoch-gated
/// lm::QueryEngine serves millions of location lookups per second from
/// 1/2/8 reader threads against a frozen n = 4096 hierarchy snapshot, its
/// per-call lookup() rate scales from 1 to 4 reader threads (each call pins
/// the snapshot on its own thread's stripe), and it stays torn-free while the
/// write plane churns epochs underneath. Gated by tools/check_bench.py
/// (min_lookups_per_sec, max_lookup_p99_us, min_lookup_scaling,
/// identity_violations) against tools/baselines/BENCH_query.json.

#include <algorithm>
#include <atomic>
#include <thread>

#include "analysis/stats.hpp"
#include "bench_util.hpp"
#include "cluster/hierarchy_builder.hpp"
#include "common/thread_pool.hpp"
#include "graph/bfs.hpp"
#include "lm/address.hpp"
#include "lm/handoff.hpp"
#include "lm/query_engine.hpp"
#include "net/unit_disk.hpp"

using namespace manet;

namespace {

constexpr Size kQueryN = 4096;       // frozen-snapshot node count (E31)
constexpr Size kBatch = 256;         // lookups per pinned batch
constexpr Size kBatchesPerThread = 4096;  // throughput batches per reader
constexpr Size kChurnFlips = 200;    // epoch flips in the churn phase
constexpr Size kPerCallLookups = 1 << 22;  // per-call lookups per reader thread
constexpr Size kScalingPairs = 7;    // interleaved 1-thread / 4-thread pairs
constexpr Size kScalingWarmups = 5;  // unrecorded 4-thread runs before the pairs

/// Frozen serving state: one static scenario, its hierarchy and the CHLM
/// database of a handoff engine primed on it.
struct FrozenState {
  graph::Graph g;
  cluster::Hierarchy h;
  lm::HandoffEngine servers;
};

FrozenState build_state(Size n, std::uint64_t seed, Time now) {
  auto cfg = bench::paper_scenario();
  cfg.n = n;
  cfg.seed = seed;
  cfg.mobility = exp::MobilityKind::kStatic;
  auto scenario = exp::Scenario::materialize(cfg);
  net::UnitDiskBuilder disk(cfg.tx_radius(), true);
  FrozenState state;
  state.g = disk.build(scenario.mobility->positions());
  state.h = cluster::HierarchyBuilder().build(state.g, scenario.ids);
  state.servers.prime(state.h, now);
  return state;
}

bool same_result(const lm::QueryResult& a, const lm::QueryResult& b) {
  return a.server == b.server && a.version == b.version && a.updated == b.updated &&
         a.found == b.found;
}

/// Capture the engine's current answer for every (owner, level) cell — the
/// reference answer set for one epoch.
std::vector<lm::QueryResult> capture_answers(const lm::QueryEngine& qe, Size n, Level top) {
  std::vector<lm::QueryResult> out;
  const Level lo = lm::kFirstServedLevel;
  const Size width = top >= lo ? top - lo + 1 : 0;
  out.resize(n * std::max<Size>(width, 1));
  for (NodeId owner = 0; owner < n; ++owner) {
    for (Level k = lo; k <= top; ++k) {
      out[static_cast<Size>(owner) * width + (k - lo)] = qe.lookup(owner, k);
    }
  }
  return out;
}

/// Per-call lookup() rate with \p threads readers, each issuing
/// kPerCallLookups single lookups (one pin and unpin per call). The clock
/// runs from a common start signal to the last reader's finish.
double per_call_rate(const lm::QueryEngine& engine, Size threads, Size width) {
  std::atomic<Size> ready{0};
  std::atomic<bool> go{false};
  std::atomic<Size> found{0};
  std::vector<std::thread> readers;
  for (Size t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Size local = 0;
      std::uint64_t q = static_cast<std::uint64_t>(t) * kPerCallLookups;
      for (Size i = 0; i < kPerCallLookups; ++i, ++q) {
        const auto owner = static_cast<NodeId>((q * 2654435761ULL) % kQueryN);
        const Level k = lm::kFirstServedLevel + static_cast<Level>(q % width);
        if (engine.lookup(owner, k).found) ++local;
      }
      found.fetch_add(local);  // keeps the lookups observable
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
  return static_cast<double>(threads * kPerCallLookups) / wall.count();
}

}  // namespace

int main() {
  // ---------------------------------------------------------------- E12b --
  bench::print_header(
      "E12b  bench_query — location query cost vs direct hop count",
      "query cost = O(hops(requester, target)) per session (paper Section 6)",
      "manet-bench-artifact/1");

  bench::Artifact cost_artifact("query_cost", bench::paper_scenario(), 1);
  analysis::TextTable table({"|V|", "mean query cost", "mean direct hops", "ratio",
                             "max ratio"});
  for (const Size n : bench::standard_nodes()) {
    auto cfg = bench::paper_scenario();
    cfg.n = n;
    cfg.mobility = exp::MobilityKind::kStatic;
    auto scenario = exp::Scenario::materialize(cfg);
    net::UnitDiskBuilder disk(cfg.tx_radius(), true);
    const auto g = disk.build(scenario.mobility->positions());
    const auto h = cluster::HierarchyBuilder().build(g, scenario.ids);

    common::Xoshiro256 rng(common::derive_seed(cfg.seed, 0x51AA));
    graph::BfsScratch bfs;
    double query_sum = 0.0, direct_sum = 0.0, max_ratio = 0.0;
    Size samples = 0;
    while (samples < 200) {
      const auto u = static_cast<NodeId>(common::uniform_index(rng, n));
      const auto v = static_cast<NodeId>(common::uniform_index(rng, n));
      if (u == v) continue;
      const auto cost = lm::query_cost(h, g, u, v);
      bfs.run(g, u);
      const auto direct = bfs.hops_to(v);
      if (direct == graph::kUnreachable || direct == 0) continue;
      query_sum += static_cast<double>(cost);
      direct_sum += direct;
      max_ratio = std::max(max_ratio, static_cast<double>(cost) / direct);
      ++samples;
    }
    table.add_row({std::to_string(n), bench::fixed(query_sum / 200.0),
                   bench::fixed(direct_sum / 200.0),
                   bench::fixed(query_sum / direct_sum, 3), bench::fixed(max_ratio, 3)});
    cost_artifact.add_point("query_cost_ratio",
                            exp::SeriesPoint{static_cast<double>(n),
                                             query_sum / direct_sum, 0.0, 1});
  }
  std::printf("%s", table.to_string("query cost (packet transmissions per lookup)").c_str());
  std::printf(
      "\nreading: the mean ratio should stay a small constant across |V| —\n"
      "query cost rides the session's own path length, so it amortizes.\n");
  cost_artifact.write();

  // ----------------------------------------------------------------- E31 --
  bench::print_header(
      "E31  bench_query — epoch-gated query-engine serving throughput",
      "lm::QueryEngine answers >= 1M location lookups/s on one thread against\n"
      "a frozen n=4096 snapshot, per-call lookups scale >= 1.5x from 1 to 4\n"
      "readers, torn-free under epoch churn",
      "manet-bench-artifact/1");

  auto qcfg = bench::paper_scenario();
  qcfg.n = kQueryN;
  qcfg.mobility = exp::MobilityKind::kStatic;
  bench::Artifact artifact("query", qcfg, 1, 8);

  FrozenState state = build_state(kQueryN, qcfg.seed, /*now=*/1.0);
  lm::QueryEngine engine;
  engine.publish(state.h, state.servers.database(), 1.0);
  const Level top = state.servers.top_level();
  const Size width = top >= lm::kFirstServedLevel ? top - lm::kFirstServedLevel + 1 : 0;
  std::printf("frozen snapshot: n=%zu top=%u served levels=%zu epoch=%llu\n",
              static_cast<std::size_t>(kQueryN), top, static_cast<std::size_t>(width),
              static_cast<unsigned long long>(engine.epoch()));

  // --- Throughput + p99 at 1/2/8 reader threads against the frozen epoch ---
  analysis::TextTable tput({"reader threads", "lookups", "Mlookups/s", "p99 us/lookup"});
  double single_thread_rate = 0.0, single_thread_p99 = 0.0;
  for (const Size threads : {Size{1}, Size{2}, Size{8}}) {
    common::ThreadPool pool(threads);
    std::vector<std::vector<double>> batch_us(threads);  // per-batch us/lookup
    const auto start = std::chrono::steady_clock::now();
    pool.parallel_for(threads, [&](Size t) {
      std::vector<NodeId> owners(kBatch);
      std::vector<lm::QueryResult> results(kBatch);
      auto& times = batch_us[t];
      times.reserve(kBatchesPerThread);
      for (Size b = 0; b < kBatchesPerThread; ++b) {
        const std::uint64_t base =
            (static_cast<std::uint64_t>(t) * kBatchesPerThread + b) * kBatch;
        for (Size i = 0; i < kBatch; ++i) {
          owners[i] = static_cast<NodeId>(((base + i) * 2654435761ULL) % kQueryN);
        }
        const Level k = lm::kFirstServedLevel + static_cast<Level>(b % std::max<Size>(width, 1));
        const auto b0 = std::chrono::steady_clock::now();
        engine.lookup_batch(owners, k, results);
        const std::chrono::duration<double, std::micro> us =
            std::chrono::steady_clock::now() - b0;
        times.push_back(us.count() / static_cast<double>(kBatch));
      }
    });
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    const Size lookups = threads * kBatchesPerThread * kBatch;
    const double rate = static_cast<double>(lookups) / wall.count();
    std::vector<double> all;
    for (auto& v : batch_us) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    // Nearest-rank p99: index ceil(0.99 * N) - 1.
    const Size p99_idx = std::min(all.size() - 1, (all.size() * 99 + 99) / 100 - 1);
    const double p99 = all[p99_idx];
    tput.add_row({std::to_string(threads), std::to_string(lookups),
                  bench::fixed(rate / 1e6, 3), bench::fixed(p99, 4)});
    artifact.add_point("lookups_per_sec",
                       exp::SeriesPoint{static_cast<double>(threads), rate, 0.0, 1});
    if (threads == 1) {
      single_thread_rate = rate;
      single_thread_p99 = p99;
    }
  }
  std::printf("%s", tput.to_string("frozen-snapshot serving throughput").c_str());

  // --- Per-call read scaling: 1 vs 4 readers, one pin per lookup() ---
  // The 1-thread and 4-thread measurements alternate, so a host-speed swing
  // hits both arms of a pair alike; the gated scalar is the median of the
  // per-pair ratios. Unrecorded 4-thread runs come first: on a shared
  // virtual host the first few hundred ms of fresh reader threads often
  // share one core, which would read as no scaling at all.
  analysis::TextTable scaling({"pair", "1-thread Mlookups/s", "4-thread Mlookups/s",
                               "scaling"});
  std::vector<double> rates_1t, rates_4t, ratios;
  const Size levels = std::max<Size>(width, 1);
  for (Size warmup = 0; warmup < kScalingWarmups; ++warmup) per_call_rate(engine, 4, levels);
  for (Size pair = 0; pair < kScalingPairs; ++pair) {
    const double r1 = per_call_rate(engine, 1, levels);
    const double r4 = per_call_rate(engine, 4, levels);
    rates_1t.push_back(r1);
    rates_4t.push_back(r4);
    ratios.push_back(r4 / r1);
    scaling.add_row({std::to_string(pair + 1), bench::fixed(r1 / 1e6, 3),
                     bench::fixed(r4 / 1e6, 3), bench::fixed(r4 / r1, 3)});
  }
  const double lookup_scaling = analysis::quantile(ratios, 0.5);
  const double per_call_1t = analysis::quantile(rates_1t, 0.5);
  const double per_call_4t = analysis::quantile(rates_4t, 0.5);
  scaling.add_row({"median", bench::fixed(per_call_1t / 1e6, 3), bench::fixed(per_call_4t / 1e6, 3),
                   bench::fixed(lookup_scaling, 3)});
  std::printf("%s", scaling.to_string("per-call lookup() read scaling").c_str());
  std::printf(
      "reading: every lookup() pins and unpins the snapshot on its thread's\n"
      "reader stripe, so 4 readers on 4 cores should approach 4x the\n"
      "1-reader rate; a reader count shared by all threads collapses it\n"
      "below 1x (check_bench.py gates it when hardware_concurrency >= 4).\n");

  // --- Churn phase: epoch flips under live readers, torn-answer check ---
  // Two distinct serving states (different seeds => different topology,
  // hierarchy and database) alternate as epochs. Every concurrent answer
  // must equal one of the two captured reference answer sets, field for
  // field — a mixed (pre-flip server, post-flip version/update) answer is a
  // torn read and counts as a violation.
  FrozenState state_b = build_state(kQueryN, qcfg.seed + 1, /*now=*/2.0);
  const Level top_b = state_b.servers.top_level();
  const Level probe_top = std::min(top, top_b);
  const auto answers_a = capture_answers(engine, kQueryN, probe_top);
  engine.publish(state_b.h, state_b.servers.database(), 2.0);
  const auto answers_b = capture_answers(engine, kQueryN, probe_top);
  const Size probe_width = probe_top >= lm::kFirstServedLevel
                               ? probe_top - lm::kFirstServedLevel + 1
                               : 0;

  std::atomic<bool> stop{false};
  std::atomic<Size> violations{0};
  std::atomic<std::uint64_t> churn_lookups{0};
  {
    std::vector<std::thread> reader_threads;
    for (Size t = 0; t < 8; ++t) {
      reader_threads.emplace_back([&, t] {
        std::uint64_t q = static_cast<std::uint64_t>(t) << 32;
        Size local_violations = 0;
        std::uint64_t local_lookups = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          for (Size i = 0; i < kBatch; ++i, ++q) {
            const auto owner = static_cast<NodeId>((q * 2654435761ULL) % kQueryN);
            const Level k =
                lm::kFirstServedLevel + static_cast<Level>(q % std::max<Size>(probe_width, 1));
            const lm::QueryResult r = engine.lookup(owner, k);
            const Size idx =
                static_cast<Size>(owner) * probe_width + (k - lm::kFirstServedLevel);
            if (!same_result(r, answers_a[idx]) && !same_result(r, answers_b[idx])) {
              ++local_violations;
            }
            ++local_lookups;
          }
        }
        violations.fetch_add(local_violations, std::memory_order_relaxed);
        churn_lookups.fetch_add(local_lookups, std::memory_order_relaxed);
      });
    }
    for (Size flip = 0; flip < kChurnFlips; ++flip) {
      if (flip % 2 == 0) {
        engine.publish(state.h, state.servers.database(), 1.0);
      } else {
        engine.publish(state_b.h, state_b.servers.database(), 2.0);
      }
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : reader_threads) th.join();
  }

  const Size torn = violations.load();
  std::printf("\nchurn: %llu lookups across %zu epoch flips, %zu torn answers\n",
              static_cast<unsigned long long>(churn_lookups.load()),
              static_cast<std::size_t>(kChurnFlips), static_cast<std::size_t>(torn));
  std::printf(
      "reading: every concurrent answer must match the pre- or post-flip\n"
      "reference exactly — the epoch pin makes torn reads structurally\n"
      "impossible.\n");

  artifact.set_scalar("lookups_per_sec", single_thread_rate);
  artifact.set_scalar("lookup_p99_us", single_thread_p99);
  artifact.set_scalar("per_call_lookups_per_sec_1t", per_call_1t);
  artifact.set_scalar("per_call_lookups_per_sec_4t", per_call_4t);
  artifact.set_scalar("lookup_scaling_4t", lookup_scaling);
  artifact.set_scalar("identity_violations", static_cast<double>(torn));
  artifact.set_scalar("epoch_flips", static_cast<double>(kChurnFlips));
  artifact.set_scalar("churn_lookups", static_cast<double>(churn_lookups.load()));
  artifact.write();
  return torn == 0 ? 0 : 1;
}

#include "exp/artifacts.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "exp/scenario.hpp"
#include "exp/simulation.hpp"
#include "sim/trace.hpp"

namespace manet::exp {
namespace {

std::string render(const std::function<void(analysis::JsonWriter&)>& fn, bool pretty) {
  std::ostringstream os;
  analysis::JsonWriter w(os, pretty);
  fn(w);
  EXPECT_TRUE(w.complete());
  return os.str();
}

TEST(RunManifest, CaptureFillsProvenance) {
  ScenarioConfig cfg;
  cfg.n = 77;
  cfg.seed = 1234;
  const auto m = RunManifest::capture("unit", cfg, 3, 4);
  EXPECT_EQ(m.name, "unit");
  EXPECT_EQ(m.seed, 1234u);
  EXPECT_EQ(m.n, 77u);
  EXPECT_EQ(m.replications, 3u);
  EXPECT_EQ(m.thread_count, 4u);
  EXPECT_EQ(m.git_sha, build_git_sha());
  EXPECT_FALSE(m.git_sha.empty());
  EXPECT_EQ(m.scenario, cfg.describe());
}

/// Member names of a parsed JSON object, in document order.
std::vector<std::string> keys(const analysis::JsonValue& v) {
  std::vector<std::string> out;
  for (const auto& member : v.members) out.push_back(member.first);
  return out;
}

TEST(RunManifest, JsonRoundTrip) {
  ScenarioConfig cfg;
  cfg.n = 512;
  cfg.seed = 42;
  auto m = RunManifest::capture("roundtrip", cfg, 5, 2);
  m.wall_seconds = 1.5;

  for (const bool pretty : {false, true}) {
    const auto text =
        render([&m](analysis::JsonWriter& w) { m.write_json(w); }, pretty);
    const auto parsed = analysis::parse_json(text);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const auto& v = parsed.value;
    EXPECT_EQ(keys(v), (std::vector<std::string>{"name", "git_sha", "seed", "n",
                                                 "replications", "thread_count",
                                                 "hardware_concurrency", "wall_seconds",
                                                 "scenario", "fault"}));
    EXPECT_EQ(v.string_or("name", ""), m.name);
    EXPECT_EQ(v.string_or("git_sha", ""), m.git_sha);
    EXPECT_EQ(v.number_or("seed", -1.0), static_cast<double>(m.seed));
    EXPECT_EQ(v.number_or("n", -1.0), static_cast<double>(m.n));
    EXPECT_EQ(v.number_or("replications", -1.0), static_cast<double>(m.replications));
    EXPECT_EQ(v.number_or("thread_count", -1.0), static_cast<double>(m.thread_count));
    EXPECT_EQ(v.number_or("hardware_concurrency", -1.0),
              static_cast<double>(m.hardware_concurrency));
    EXPECT_EQ(v.number_or("wall_seconds", -1.0), m.wall_seconds);
    EXPECT_EQ(v.string_or("scenario", ""), m.scenario);
    EXPECT_EQ(v.string_or("fault", ""), m.fault);
  }
}

TEST(RunManifest, RecordsFaultPlanAndDefaultsToOff) {
  ScenarioConfig clean;
  clean.n = 64;
  const auto off = RunManifest::capture("clean", clean, 1);
  EXPECT_EQ(off.fault, "off");

  ScenarioConfig faulty = clean;
  faulty.fault.loss = 0.05;
  faulty.fault.crash_rate = 0.002;
  const auto on = RunManifest::capture("faulty", faulty, 1);
  EXPECT_EQ(on.fault, faulty.fault.describe());
  EXPECT_NE(on.fault, "off");
  EXPECT_NE(on.fault.find("loss=0.05"), std::string::npos);

  // The written manifest carries the plan.
  const auto text = render([&on](analysis::JsonWriter& w) { on.write_json(w); }, true);
  const auto parsed = analysis::parse_json(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.string_or("fault", ""), on.fault);
}

TEST(ResilienceJson, RoundTripIsExact) {
  ResilienceReport report;
  report.loss = 0.05;
  report.crash_rate = 0.002;
  report.phi_retx_rate = 0.123;
  report.gamma_retx_rate = 0.045;
  report.failed_transfers = 17.0;
  report.stale_entries = 2.0;
  report.repairs = 15.0;
  report.mean_time_to_repair = 3.25;
  report.query_success_rate = 0.996;
  report.query_success_mean = 0.991;
  report.crashes = 4.0;
  report.rejoins = 3.0;

  const auto text = render(
      [&report](analysis::JsonWriter& w) { write_resilience_json(w, report); }, true);
  const auto parsed = analysis::parse_json(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto& v = parsed.value;
  EXPECT_EQ(v.string_or("schema", ""), "manet-resilience/1");

  // Every number is written with enough digits to parse back exactly.
  const std::vector<std::pair<std::string, double>> fields = {
      {"loss", report.loss},
      {"crash_rate", report.crash_rate},
      {"phi_retx_rate", report.phi_retx_rate},
      {"gamma_retx_rate", report.gamma_retx_rate},
      {"failed_transfers", report.failed_transfers},
      {"stale_entries", report.stale_entries},
      {"repairs", report.repairs},
      {"mean_time_to_repair", report.mean_time_to_repair},
      {"query_success_rate", report.query_success_rate},
      {"query_success_mean", report.query_success_mean},
      {"crashes", report.crashes},
      {"rejoins", report.rejoins}};
  std::vector<std::string> expected_keys{"schema"};
  for (const auto& [name, value] : fields) {
    expected_keys.push_back(name);
    EXPECT_EQ(v.number_or(name, -1.0), value) << name;
  }
  EXPECT_EQ(keys(v), expected_keys);
}

TEST(SessionsJson, RoundTripPreservesNumbers) {
  SessionReport report;
  report.mu = 4.0;
  report.loss = 0.05;
  report.crash_rate = 0.002;
  report.packets_offered = 1000.0;
  report.delivered = 990.0;
  report.misrouted = 6.0;
  report.lost = 4.0;
  report.misroute_rate = 0.006;
  report.loss_rate = 0.004;
  report.interruptions = 3.0;
  report.interruption_time = 2.5;
  report.interruption_p99 = 1.75;
  report.handover_started = 12.0;
  report.handover_completed = 11.0;
  report.handover_retries = 5.0;
  report.handover_rollbacks = 1.0;
  report.handover_rollback_failures = 0.0;
  report.handover_mean_completion = 0.35;

  const auto text = render(
      [&report](analysis::JsonWriter& w) { write_sessions_json(w, report); }, true);
  const auto parsed = analysis::parse_json(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto& v = parsed.value;
  EXPECT_EQ(v.string_or("schema", ""), "manet-sessions/1");

  const std::vector<std::pair<std::string, double>> fields = {
      {"mu", report.mu},
      {"loss", report.loss},
      {"crash_rate", report.crash_rate},
      {"packets_offered", report.packets_offered},
      {"delivered", report.delivered},
      {"misrouted", report.misrouted},
      {"lost", report.lost},
      {"misroute_rate", report.misroute_rate},
      {"loss_rate", report.loss_rate},
      {"interruptions", report.interruptions},
      {"interruption_time", report.interruption_time},
      {"interruption_p99", report.interruption_p99},
      {"handover_started", report.handover_started},
      {"handover_completed", report.handover_completed},
      {"handover_retries", report.handover_retries},
      {"handover_rollbacks", report.handover_rollbacks},
      {"handover_rollback_failures", report.handover_rollback_failures},
      {"handover_mean_completion", report.handover_mean_completion}};
  std::vector<std::string> expected_keys{"schema"};
  for (const auto& [name, value] : fields) {
    expected_keys.push_back(name);
    EXPECT_EQ(v.number_or(name, -1.0), value) << name;
  }
  EXPECT_EQ(keys(v), expected_keys);
}

TEST(SessionsJson, AbsentP99RoundTripsThroughNull) {
  // An uninterrupted run has no p99 (the NaN-sentinel convention): the
  // writer must emit JSON null, not a fake 0.0 or an unparsable token.
  SessionReport report;
  report.packets_offered = 100.0;
  report.delivered = 100.0;
  report.interruption_p99 = std::numeric_limits<double>::quiet_NaN();

  const auto text = render(
      [&report](analysis::JsonWriter& w) { write_sessions_json(w, report); }, true);
  const auto parsed = analysis::parse_json(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto* p99 = parsed.value.find("interruption_p99");
  ASSERT_NE(p99, nullptr);
  EXPECT_EQ(p99->kind, analysis::JsonValue::Kind::kNull);
  EXPECT_EQ(parsed.value.number_or("packets_offered", -1.0), report.packets_offered);
}

TEST(JsonMetrics, RendersNamesAndValues) {
  RunMetrics m;
  m.set("phi_rate", 1.25);
  m.set("weird\"name", 2.0);
  m.set("nan_metric", std::nan(""));
  const auto doc =
      render([&m](analysis::JsonWriter& w) { write_run_metrics_json(w, m); }, false);
  EXPECT_NE(doc.find("\"phi_rate\":1.25"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"weird\\\"name\":2"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"nan_metric\":null"), std::string::npos) << doc;
}

TEST(JsonMetrics, EmptyMetricsIsEmptyObject) {
  EXPECT_EQ(render([](analysis::JsonWriter& w) { write_run_metrics_json(w, RunMetrics{}); },
                   false),
            "{}");
}

TEST(RegistryJson, SerializesEveryInstrumentKind) {
  common::MetricsRegistry reg;
  reg.counter("lm.phi_packets").add(42);
  reg.gauge("lm.phi_rate").set(0.75);
  reg.rate_meter("lm.entry_moves", 10.0, 10).mark(3.0, 6);
  const std::array<double, 3> bounds{1.0, 4.0, 16.0};
  auto& h = reg.histogram("lm.transfer_hops", bounds);
  h.observe(2.0);
  h.observe(5.0);

  const auto text = render(
      [&reg](analysis::JsonWriter& w) { write_registry_json(w, reg, 4.0); }, true);
  const auto parsed = analysis::parse_json(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto& v = parsed.value;
  EXPECT_EQ(v.string_or("schema", ""), "manet-metrics/1");

  const auto* counters = v.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->number_or("lm.phi_packets", -1.0), 42.0);

  const auto* gauges = v.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->number_or("lm.phi_rate", -1.0), 0.75);

  const auto* rates = v.find("rates");
  ASSERT_NE(rates, nullptr);
  const auto* moves = rates->find("lm.entry_moves");
  ASSERT_NE(moves, nullptr);
  EXPECT_DOUBLE_EQ(moves->number_or("total", -1.0), 6.0);
  EXPECT_GT(moves->number_or("rate", -1.0), 0.0);

  const auto* hists = v.find("histograms");
  ASSERT_NE(hists, nullptr);
  const auto* hops = hists->find("lm.transfer_hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_DOUBLE_EQ(hops->number_or("count", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(hops->number_or("sum", -1.0), 7.0);
  const auto* buckets = hops->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  EXPECT_EQ(buckets->items.size(), 4u);  // 3 bounds + overflow
}

TEST(TraceJson, SerializesHeaderAndEvents) {
  sim::TraceSink sink(sim::TraceSink::Config{4, 1});
  for (int i = 0; i < 6; ++i) {
    sim::TraceEvent ev;
    ev.t = static_cast<Time>(i);
    ev.type = sim::TraceEventType::kHandoffPhi;
    ev.level = 2;
    ev.a = 7;
    ev.b = 9;
    ev.value = 3.0;
    sink.record(ev);
  }

  const auto text = render(
      [&sink](analysis::JsonWriter& w) { write_trace_json(w, sink); }, true);
  const auto parsed = analysis::parse_json(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto& v = parsed.value;
  EXPECT_EQ(v.string_or("schema", ""), "manet-trace/1");
  EXPECT_DOUBLE_EQ(v.number_or("seen", -1.0), 6.0);
  EXPECT_DOUBLE_EQ(v.number_or("stored", -1.0), 4.0);
  EXPECT_DOUBLE_EQ(v.number_or("dropped", -1.0), 2.0);

  const auto* counts = v.find("type_counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_DOUBLE_EQ(counts->number_or("handoff_phi", -1.0), 6.0);

  const auto* events = v.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items.size(), 4u);
  const auto& first = events->items.front();
  EXPECT_DOUBLE_EQ(first.number_or("t", -1.0), 2.0);  // oldest surviving event
  EXPECT_EQ(first.string_or("type", ""), "handoff_phi");
  EXPECT_DOUBLE_EQ(first.number_or("k", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(first.number_or("a", -1.0), 7.0);
  EXPECT_DOUBLE_EQ(first.number_or("b", -1.0), 9.0);
  EXPECT_DOUBLE_EQ(first.number_or("cost", -1.0), 3.0);
}

/// The observability hooks must not perturb the simulation: the RunMetrics of
/// an instrumented run are identical to an uninstrumented one, and the live
/// registry agrees with the reported phi/gamma rates.
TEST(SimulationObservability, HooksArePassiveAndConsistent) {
  ScenarioConfig cfg;
  cfg.n = 96;
  cfg.seed = 9;
  cfg.warmup = 2.0;
  cfg.duration = 8.0;

  RunOptions plain;
  plain.track_events = false;
  plain.measure_hops = false;
  const auto bare = run_simulation(cfg, plain);

  common::MetricsRegistry registry;
  sim::TraceSink sink;
  RunOptions observed = plain;
  observed.metrics = &registry;
  observed.trace = &sink;
  const auto instrumented = run_simulation(cfg, observed);

  ASSERT_EQ(bare.values.size(), instrumented.values.size());
  for (Size i = 0; i < bare.values.size(); ++i) {
    EXPECT_EQ(bare.values[i].first, instrumented.values[i].first);
    EXPECT_EQ(bare.values[i].second, instrumented.values[i].second)
        << "metric " << bare.values[i].first << " perturbed by instrumentation";
  }

  const auto* phi_gauge = registry.find_gauge("lm.phi_rate");
  ASSERT_NE(phi_gauge, nullptr);
  EXPECT_EQ(phi_gauge->value(), instrumented.get("phi_rate"));
  const auto* gamma_gauge = registry.find_gauge("lm.gamma_rate");
  ASSERT_NE(gamma_gauge, nullptr);
  EXPECT_EQ(gamma_gauge->value(), instrumented.get("gamma_rate"));

  // A mobile 96-node run has migrations; tracing must have captured activity.
  EXPECT_GT(sink.seen(), 0u);
}

}  // namespace
}  // namespace manet::exp

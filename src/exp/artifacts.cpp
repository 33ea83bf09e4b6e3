#include "exp/artifacts.hpp"

#include <limits>
#include <thread>

#ifndef MANET_GIT_SHA
#define MANET_GIT_SHA "unknown"
#endif

namespace manet::exp {

std::string build_git_sha() { return MANET_GIT_SHA; }

RunManifest RunManifest::capture(std::string name, const ScenarioConfig& config,
                                 Size replications, Size thread_count) {
  RunManifest m;
  m.name = std::move(name);
  m.git_sha = build_git_sha();
  m.seed = config.seed;
  m.n = config.n;
  m.replications = replications;
  m.thread_count = thread_count;
  m.hardware_concurrency = static_cast<Size>(std::thread::hardware_concurrency());
  m.scenario = config.describe();
  m.fault = config.fault.describe();
  return m;
}

void RunManifest::write_json(analysis::JsonWriter& w) const {
  w.begin_object();
  w.field("name", name);
  w.field("git_sha", git_sha);
  w.field("seed", static_cast<std::uint64_t>(seed));
  w.field("n", static_cast<std::uint64_t>(n));
  w.field("replications", static_cast<std::uint64_t>(replications));
  w.field("thread_count", static_cast<std::uint64_t>(thread_count));
  w.field("hardware_concurrency", static_cast<std::uint64_t>(hardware_concurrency));
  w.field("wall_seconds", wall_seconds);
  w.field("scenario", scenario);
  w.field("fault", fault);
  w.end_object();
}

void write_registry_json(analysis::JsonWriter& w, const common::MetricsRegistry& registry,
                         Time now) {
  using Entry = common::MetricsRegistry::Entry;
  w.begin_object();
  w.field("schema", "manet-metrics/1");
  w.key("counters").begin_object();
  for (const auto& e : registry.entries()) {
    if (e.kind == Entry::Kind::kCounter) w.field(e.name, e.counter->value());
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& e : registry.entries()) {
    if (e.kind == Entry::Kind::kGauge) w.field(e.name, e.gauge->value());
  }
  w.end_object();
  w.key("rates").begin_object();
  for (const auto& e : registry.entries()) {
    if (e.kind != Entry::Kind::kRateMeter) continue;
    w.key(e.name).begin_object();
    w.field("total", e.rate_meter->total());
    w.field("rate", e.rate_meter->rate(now));
    w.end_object();
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& e : registry.entries()) {
    if (e.kind != Entry::Kind::kHistogram) continue;
    const auto& h = *e.histogram;
    w.key(e.name).begin_object();
    w.field("count", h.count());
    w.field("sum", h.sum());
    w.field("mean", h.mean());
    w.field("p50", h.quantile(0.5));
    w.field("p99", h.quantile(0.99));
    w.key("buckets").begin_array();
    for (Size i = 0; i < h.bucket_total(); ++i) {
      w.begin_object();
      w.field("le", h.upper_bound(i));
      w.field("count", h.bucket_count(i));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

void write_trace_json(analysis::JsonWriter& w, const sim::TraceSink& sink) {
  w.begin_object();
  w.field("schema", "manet-trace/1");
  w.field("seen", static_cast<std::uint64_t>(sink.seen()));
  w.field("stored", static_cast<std::uint64_t>(sink.size()));
  w.field("dropped", static_cast<std::uint64_t>(sink.dropped()));
  w.key("type_counts").begin_object();
  for (Size type = 0; type < sim::kTraceEventTypeCount; ++type) {
    if (sink.type_counts()[type] == 0) continue;
    w.field(sim::to_string(static_cast<sim::TraceEventType>(type)),
            static_cast<std::uint64_t>(sink.type_counts()[type]));
  }
  w.end_object();
  w.key("events").begin_array();
  for (const auto& ev : sink.snapshot()) {
    w.begin_object();
    w.field("t", ev.t);
    w.field("type", sim::to_string(ev.type));
    w.field("k", static_cast<std::uint64_t>(ev.level));
    if (ev.a != kInvalidNode) w.field("a", static_cast<std::uint64_t>(ev.a));
    if (ev.b != kInvalidNode) w.field("b", static_cast<std::uint64_t>(ev.b));
    if (ev.value != 0.0) w.field("cost", ev.value);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_resilience_json(analysis::JsonWriter& w, const ResilienceReport& report) {
  w.begin_object();
  w.field("schema", "manet-resilience/1");
  w.field("loss", report.loss);
  w.field("crash_rate", report.crash_rate);
  w.field("phi_retx_rate", report.phi_retx_rate);
  w.field("gamma_retx_rate", report.gamma_retx_rate);
  w.field("failed_transfers", report.failed_transfers);
  w.field("stale_entries", report.stale_entries);
  w.field("repairs", report.repairs);
  w.field("mean_time_to_repair", report.mean_time_to_repair);
  w.field("query_success_rate", report.query_success_rate);
  w.field("query_success_mean", report.query_success_mean);
  w.field("crashes", report.crashes);
  w.field("rejoins", report.rejoins);
  w.end_object();
}

void write_sessions_json(analysis::JsonWriter& w, const SessionReport& report) {
  w.begin_object();
  w.field("schema", "manet-sessions/1");
  w.field("mu", report.mu);
  w.field("loss", report.loss);
  w.field("crash_rate", report.crash_rate);
  w.field("packets_offered", report.packets_offered);
  w.field("delivered", report.delivered);
  w.field("misrouted", report.misrouted);
  w.field("lost", report.lost);
  w.field("misroute_rate", report.misroute_rate);
  w.field("loss_rate", report.loss_rate);
  w.field("interruptions", report.interruptions);
  w.field("interruption_time", report.interruption_time);
  w.field("interruption_p99", report.interruption_p99);
  w.field("handover_started", report.handover_started);
  w.field("handover_completed", report.handover_completed);
  w.field("handover_retries", report.handover_retries);
  w.field("handover_rollbacks", report.handover_rollbacks);
  w.field("handover_rollback_failures", report.handover_rollback_failures);
  w.field("handover_mean_completion", report.handover_mean_completion);
  w.end_object();
}

void write_run_metrics_json(analysis::JsonWriter& w, const RunMetrics& metrics) {
  w.begin_object();
  for (const auto& [name, value] : metrics.values) w.field(name, value);
  w.end_object();
}

bool run_metrics_from_json(const analysis::JsonValue& v, RunMetrics& out) {
  if (!v.is_object()) return false;
  out = RunMetrics{};
  for (const auto& [name, value] : v.members) {
    if (value.is_number()) {
      out.set(name, value.number);
    } else if (value.kind == analysis::JsonValue::Kind::kNull) {
      out.set(name, std::numeric_limits<double>::quiet_NaN());  // NaN wrote as null
    } else {
      return false;
    }
  }
  return true;
}

void write_series_point_json(analysis::JsonWriter& w, const SeriesPoint& point) {
  w.begin_object();
  w.field("n", point.n);
  w.field("mean", point.mean);
  w.field("ci95", point.ci95);
  w.field("count", static_cast<std::uint64_t>(point.count));
  w.end_object();
}

}  // namespace manet::exp

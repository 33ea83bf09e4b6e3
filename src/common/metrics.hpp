#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

/// \file metrics.hpp
/// The observability substrate: a registry of named metric instruments that
/// subsystems write into while a simulation runs, so overhead quantities
/// (phi_k, gamma_k, f_k, link events, ...) are queryable *live* instead of
/// only from post-hoc reports.
///
/// Four instrument kinds:
///   Counter    monotone event/packet totals (phi packets, entry moves);
///   Gauge      last-written values (current rates, occupancy levels);
///   RateMeter  time-windowed event rates (events/s over a trailing window);
///   Histogram  fixed-bucket latency/size distributions (transfer hop counts).
///
/// Determinism contract: a registry belongs to one run, and only the tick's
/// serial code writes it, so its contents are a function of the run alone,
/// whatever the thread or shard count.

namespace manet::common {

/// Monotone event counter. add() is a single integer add — cheap enough for
/// per-transfer accounting inside the handoff hot path.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written value.
class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Event rate over a trailing time window, bucketed so old events age out
/// without storing timestamps per event. mark(t) must be called with
/// monotonically non-decreasing times (the simulation clock).
class RateMeter {
 public:
  /// \p window trailing seconds; \p buckets time resolution of the window.
  explicit RateMeter(Time window = 10.0, Size buckets = 10);

  void mark(Time now, std::uint64_t events = 1);

  /// Events per second over min(window, elapsed-since-first-mark) at \p now.
  double rate(Time now) const;

  std::uint64_t total() const noexcept { return total_; }

 private:
  void advance_to(Time now);

  Time window_;
  Time bucket_width_;
  std::vector<std::uint64_t> counts_;
  std::int64_t head_index_ = 0;  ///< absolute bucket index of counts_ head
  Time first_mark_ = 0.0;
  bool any_ = false;
  std::uint64_t total_ = 0;
};

/// Fixed-boundary histogram: observe(x) increments the bucket of the first
/// boundary >= x (last bucket is the +inf overflow). Bucket layout is fixed
/// at construction.
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_bounds);

  void observe(double x);

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double max_seen() const noexcept { return max_; }

  /// bucket_count(i) pairs with upper_bound(i); the final bucket's bound is
  /// +infinity.
  Size bucket_total() const noexcept { return buckets_.size(); }
  double upper_bound(Size i) const { return bounds_[i]; }
  std::uint64_t bucket_count(Size i) const { return buckets_[i]; }

  /// Quantile estimate by linear interpolation within the owning bucket.
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;  ///< ascending; last is +inf
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Name -> instrument registry. Lookup returns a stable reference (std::map
/// nodes never move), so producers resolve a name once and keep the pointer
/// for the hot path. Iteration order is lexicographic, so serialization is
/// deterministic by construction.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  MetricsRegistry(MetricsRegistry&&) = default;
  MetricsRegistry& operator=(MetricsRegistry&&) = default;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  RateMeter& rate_meter(const std::string& name, Time window = 10.0, Size buckets = 10);
  Histogram& histogram(const std::string& name, std::span<const double> upper_bounds);

  /// Read-only lookups; nullptr when the name was never registered (or is a
  /// different instrument kind).
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const RateMeter* find_rate_meter(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  Size instrument_count() const;

  /// Deterministic (sorted-name) snapshot for serialization / tables.
  struct Entry {
    enum class Kind { kCounter, kGauge, kRateMeter, kHistogram };
    std::string name;
    Kind kind;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const RateMeter* rate_meter = nullptr;
    const Histogram* histogram = nullptr;
  };
  std::vector<Entry> entries() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, RateMeter> rate_meters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace manet::common

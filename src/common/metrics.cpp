#include "common/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace manet::common {

// --- RateMeter ---

RateMeter::RateMeter(Time window, Size buckets)
    : window_(window),
      bucket_width_(window / static_cast<double>(buckets == 0 ? 1 : buckets)),
      counts_(buckets == 0 ? 1 : buckets, 0) {
  MANET_CHECK_MSG(window > 0.0, "RateMeter window must be positive");
}

void RateMeter::advance_to(Time now) {
  const auto target = static_cast<std::int64_t>(now / bucket_width_);
  if (!any_) {
    head_index_ = target;
    return;
  }
  const std::int64_t steps = target - head_index_;
  if (steps <= 0) return;
  const auto n = static_cast<std::int64_t>(counts_.size());
  for (std::int64_t s = 1; s <= std::min(steps, n); ++s) {
    counts_[static_cast<Size>((head_index_ + s) % n)] = 0;
  }
  head_index_ = target;
}

void RateMeter::mark(Time now, std::uint64_t events) {
  advance_to(now);
  if (!any_) {
    first_mark_ = now;
    any_ = true;
  }
  counts_[static_cast<Size>(head_index_ % static_cast<std::int64_t>(counts_.size()))] +=
      events;
  total_ += events;
}

double RateMeter::rate(Time now) const {
  if (!any_) return 0.0;
  std::uint64_t in_window = 0;
  const auto n = static_cast<std::int64_t>(counts_.size());
  const auto now_index = static_cast<std::int64_t>(now / bucket_width_);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t abs_index = head_index_ - i;
    if (abs_index < 0 || now_index - abs_index >= n) continue;
    in_window += counts_[static_cast<Size>(abs_index % n)];
  }
  const double span = std::min(window_, std::max(now - first_mark_, bucket_width_));
  return static_cast<double>(in_window) / span;
}

// --- Histogram ---

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()) {
  MANET_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                  "histogram bounds must be ascending");
  bounds_.push_back(std::numeric_limits<double>::infinity());
  buckets_.assign(bounds_.size(), 0);
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++buckets_[static_cast<Size>(it - bounds_.begin())];
  ++count_;
  sum_ += x;
  max_ = std::max(max_, x);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (Size i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const double lo_cum = static_cast<double>(cumulative);
    cumulative += buckets_[i];
    if (static_cast<double>(cumulative) < target) continue;
    const double lo = i == 0 ? 0.0 : bounds_[i - 1];
    const double hi = std::isinf(bounds_[i]) ? max_ : bounds_[i];
    const double frac = (target - lo_cum) / static_cast<double>(buckets_[i]);
    return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
  }
  return max_;
}

// --- MetricsRegistry ---

Counter& MetricsRegistry::counter(const std::string& name) { return counters_[name]; }

Gauge& MetricsRegistry::gauge(const std::string& name) { return gauges_[name]; }

RateMeter& MetricsRegistry::rate_meter(const std::string& name, Time window, Size buckets) {
  const auto it = rate_meters_.find(name);
  if (it != rate_meters_.end()) return it->second;
  return rate_meters_.emplace(name, RateMeter(window, buckets)).first->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::span<const double> upper_bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(upper_bounds)).first->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const RateMeter* MetricsRegistry::find_rate_meter(const std::string& name) const {
  const auto it = rate_meters_.find(name);
  return it == rate_meters_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

Size MetricsRegistry::instrument_count() const {
  return counters_.size() + gauges_.size() + rate_meters_.size() + histograms_.size();
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::entries() const {
  std::vector<Entry> out;
  out.reserve(instrument_count());
  for (const auto& [name, c] : counters_) {
    out.push_back({name, Entry::Kind::kCounter, &c, nullptr, nullptr, nullptr});
  }
  for (const auto& [name, g] : gauges_) {
    out.push_back({name, Entry::Kind::kGauge, nullptr, &g, nullptr, nullptr});
  }
  for (const auto& [name, r] : rate_meters_) {
    out.push_back({name, Entry::Kind::kRateMeter, nullptr, nullptr, &r, nullptr});
  }
  for (const auto& [name, h] : histograms_) {
    out.push_back({name, Entry::Kind::kHistogram, nullptr, nullptr, nullptr, &h});
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  return out;
}

}  // namespace manet::common

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

/// \file span_trace.hpp
/// In-memory span recorder for the traced benchmark run. A span is a name, a
/// start and end on std::chrono::steady_clock, and the index of the span that
/// contains it (-1 for a root). Spans stay in memory until the run ends and
/// are then summarized and written out in Chrome trace-event format.

namespace bench {

class SpanTrace {
 public:
  struct Span {
    const char* name;  ///< string literal: spans are recorded on the hot path
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;

    double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
  };

  SpanTrace() : origin_(std::chrono::steady_clock::now()) { spans_.reserve(4096); }

  /// Start a span under \p parent (-1 for a root); returns its index.
  int open(const char* name, int parent) {
    spans_.push_back(Span{name, now_ns(), 0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int span) { spans_[static_cast<std::size_t>(span)].end_ns = now_ns(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, indexed like spans(): its duration minus the
  /// time its direct children cover (children of one parent run one after
  /// another, so their durations add).
  std::vector<double> self_ms() const;

  /// Write every span as a Chrome trace "complete" event (ph "X", times in
  /// microseconds since the trace began), with its parent and \p run_id as
  /// arguments. Returns false when the file cannot be written.
  bool write_chrome(const std::string& path, const std::string& run_id) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace bench

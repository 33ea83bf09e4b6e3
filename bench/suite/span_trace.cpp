#include "span_trace.hpp"

#include <fstream>

#include "analysis/json.hpp"

namespace bench {

std::vector<double> SpanTrace::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const auto& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.ms();
  }
  return self;
}

bool SpanTrace::write_chrome(const std::string& path, const std::string& run_id) const {
  std::ofstream os(path);
  if (!os) return false;
  manet::analysis::JsonWriter w(os);
  w.begin_object().key("traceEvents").begin_array();
  for (const auto& s : spans_) {
    w.begin_object()
        .field("name", s.name)
        .field("ph", "X")
        .field("ts", static_cast<double>(s.start_ns) * 1e-3)
        .field("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        .field("pid", 1)
        .field("tid", 1)
        .key("args")
        .begin_object()
        .field("parent", s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name : "")
        .field("run", run_id)
        .end_object()
        .end_object();
  }
  w.end_array().field("displayTimeUnit", "ms").end_object();
  os << '\n';
  return static_cast<bool>(os);
}

}  // namespace bench

#include "graph/components.hpp"

#include <algorithm>


namespace manet::graph {

std::vector<std::uint32_t> component_labels(const Graph& g) {
  const Size n = g.vertex_count();
  std::vector<std::uint32_t> label(n, 0xFFFFFFFFu);
  std::vector<NodeId> stack;
  std::uint32_t next = 0;
  for (Size start = 0; start < n; ++start) {
    if (label[start] != 0xFFFFFFFFu) continue;
    label[start] = next;
    stack.push_back(static_cast<NodeId>(start));
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const NodeId v : g.neighbors(u)) {
        if (label[v] == 0xFFFFFFFFu) {
          label[v] = next;
          stack.push_back(v);
        }
      }
    }
    ++next;
  }
  return label;
}

Size component_count(const Graph& g) {
  const auto labels = component_labels(g);
  return labels.empty() ? 0 : 1 + *std::max_element(labels.begin(), labels.end());
}

bool is_connected(const Graph& g) {
  return g.vertex_count() > 0 && component_count(g) == 1;
}

}  // namespace manet::graph

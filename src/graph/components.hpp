#pragma once

#include <vector>

#include "graph/graph.hpp"

/// \file components.hpp
/// Connectivity analysis. The paper assumes G is connected (Section 1.2);
/// the unit-disk builder checks this and, where a sampled deployment is
/// disconnected, bridges its components.

namespace manet::graph {

/// Component label (0-based, by discovery order) for each vertex.
std::vector<std::uint32_t> component_labels(const Graph& g);

/// Number of connected components.
Size component_count(const Graph& g);

/// True iff the graph has exactly one component (and at least one vertex).
bool is_connected(const Graph& g);

}  // namespace manet::graph

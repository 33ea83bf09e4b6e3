#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace manet::graph {
namespace {

constexpr Size kShapeVertices = 40;

/// A random canonical edge set on kShapeVertices vertices, sorted: the
/// reference every input shape below must reproduce.
std::vector<Edge> reference_edges() {
  common::Xoshiro256 rng(42);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < kShapeVertices; ++u) {
    for (NodeId v = u + 1; v < kShapeVertices; ++v) {
      if (common::uniform01(rng) < 0.2) edges.emplace_back(u, v);
    }
  }
  return edges;
}

/// The same edge set in the orders assign() meets: shuffled; sorted with a
/// short unsorted tail that sorts after it; and sorted with a tail whose
/// edges belong inside the head, like the unit-disk builder's appended
/// bridges.
std::vector<std::pair<std::string, std::vector<Edge>>> edge_list_shapes(
    const std::vector<Edge>& sorted) {
  std::vector<std::pair<std::string, std::vector<Edge>>> shapes;
  auto shuffled = sorted;
  common::Xoshiro256 rng(7);
  common::shuffle(rng, shuffled.data(), shuffled.size());
  shapes.emplace_back("shuffled", std::move(shuffled));

  auto tail_after = sorted;
  std::reverse(tail_after.end() - 3, tail_after.end());
  shapes.emplace_back("sorted head, unsorted tail after it", std::move(tail_after));

  std::vector<Edge> head, tail;
  const Size stride = sorted.size() / 4;
  for (Size i = 0; i < sorted.size(); ++i) {
    (i % stride == 0 ? tail : head).push_back(sorted[i]);
  }
  std::reverse(tail.begin(), tail.end());
  head.insert(head.end(), tail.begin(), tail.end());
  shapes.emplace_back("sorted head, interleaving tail", std::move(head));
  return shapes;
}

TEST(Graph, EmptyGraph) {
  const Graph g(0);
  EXPECT_EQ(g.vertex_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 0.0);
}

TEST(Graph, IsolatedVertices) {
  const Graph g(5);
  EXPECT_EQ(g.vertex_count(), 5u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, PathGraphAdjacency) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}};
  const Graph g(4, edges);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));  // undirected
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(2, 2));  // self loop never present
}

TEST(Graph, NeighborsAreSortedAscending) {
  const std::vector<Edge> edges{{0, 3}, {0, 1}, {0, 2}, {1, 3}};
  const Graph g(4, edges);
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[1], 2u);
  EXPECT_EQ(nbrs[2], 3u);

  const auto sorted = reference_edges();
  std::vector<std::vector<NodeId>> expected(kShapeVertices);
  for (const auto& [u, v] : sorted) {
    expected[u].push_back(v);
    expected[v].push_back(u);
  }
  for (auto& list : expected) std::sort(list.begin(), list.end());
  for (const auto& [shape, input] : edge_list_shapes(sorted)) {
    const Graph shaped(kShapeVertices, input);
    for (NodeId v = 0; v < kShapeVertices; ++v) {
      const auto got = shaped.neighbors(v);
      EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), expected[v])
          << shape << ", vertex " << v;
    }
  }
}

TEST(Graph, EdgeListIsCanonicalSorted) {
  const std::vector<Edge> edges{{2, 3}, {0, 1}, {1, 2}};
  const Graph g(4, edges);
  const auto list = g.edges();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], (Edge{0, 1}));
  EXPECT_EQ(list[1], (Edge{1, 2}));
  EXPECT_EQ(list[2], (Edge{2, 3}));

  const auto sorted = reference_edges();
  Graph reused(0);
  for (const auto& [shape, input] : edge_list_shapes(sorted)) {
    ASSERT_NE(input, sorted) << shape << " must not already be sorted";
    const Graph shaped(kShapeVertices, input);
    EXPECT_EQ(std::vector<Edge>(shaped.edges().begin(), shaped.edges().end()), sorted)
        << shape;
    reused.assign(kShapeVertices, input);  // assign() on a warm graph too
    EXPECT_EQ(std::vector<Edge>(reused.edges().begin(), reused.edges().end()), sorted)
        << shape;
  }
}

TEST(Graph, AverageDegreeOfCompleteGraph) {
  std::vector<Edge> edges;
  const NodeId n = 6;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  const Graph g(n, edges);
  EXPECT_DOUBLE_EQ(g.average_degree(), 5.0);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) EXPECT_EQ(g.has_edge(u, v), u != v);
  }
}

TEST(GraphDeath, RejectsNonCanonicalEdges) {
  EXPECT_DEATH((Graph(3, std::vector<Edge>{{1, 0}})), "canonical");
  EXPECT_DEATH((Graph(3, std::vector<Edge>{{1, 1}})), "canonical");
}

TEST(GraphDeath, RejectsOutOfRangeEndpoint) {
  EXPECT_DEATH((Graph(3, std::vector<Edge>{{0, 3}})), "out of range");
}

TEST(GraphDeath, RejectsDuplicateEdges) {
  EXPECT_DEATH((Graph(3, std::vector<Edge>{{0, 1}, {0, 1}})), "duplicate");
}

}  // namespace
}  // namespace manet::graph

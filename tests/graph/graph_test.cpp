#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace manet::graph {
namespace {

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
}

TEST(Graph, EdgeListIsCanonicalSorted) {
  const std::vector<Edge> edges{{2, 3}, {0, 1}, {1, 2}};
  const Graph g(4, edges);
  const auto list = g.edges();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], (Edge{0, 1}));
  EXPECT_EQ(list[1], (Edge{1, 2}));
  EXPECT_EQ(list[2], (Edge{2, 3}));
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

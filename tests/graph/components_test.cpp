#include "graph/components.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace manet::graph {
namespace {

TEST(Components, LabelsPartitionTheGraph) {
  const Graph g(6, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}});
  const auto labels = component_labels(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_NE(labels[5], labels[0]);
  EXPECT_NE(labels[5], labels[3]);
  EXPECT_EQ(component_count(g), 3u);
}

TEST(Components, ConnectedDetection) {
  EXPECT_TRUE(is_connected(Graph(3, std::vector<Edge>{{0, 1}, {1, 2}})));
  EXPECT_FALSE(is_connected(Graph(3, std::vector<Edge>{{0, 1}})));
  EXPECT_FALSE(is_connected(Graph(0)));
  EXPECT_TRUE(is_connected(Graph(1)));
}

}  // namespace
}  // namespace manet::graph

#include "lm/database.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace manet::lm {
namespace {

TEST(LmDatabase, StartsEmpty) {
  const LmDatabase db(5);
  EXPECT_EQ(db.total_entries(), 0u);
  EXPECT_EQ(db.load_vector().size(), 5u);
  EXPECT_EQ(db.entry_count(2), 0u);
}

TEST(LmDatabase, PutAndFind) {
  LmDatabase db(8);
  db.put(1, LocationRecord{7, 2, 3.5, 0});
  const auto* rec = db.find(1, 7, 2);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->owner, 7u);
  EXPECT_EQ(rec->level, 2u);
  EXPECT_DOUBLE_EQ(rec->updated, 3.5);
  EXPECT_EQ(db.total_entries(), 1u);
}

TEST(LmDatabase, FindAbsentReturnsNull) {
  LmDatabase db(4);
  EXPECT_EQ(db.find(0, 1, 2), nullptr);
  db.put(0, LocationRecord{1, 2, 0.0, 0});
  EXPECT_EQ(db.find(0, 1, 3), nullptr);  // different level
  EXPECT_EQ(db.find(1, 1, 2), nullptr);  // different server
}

TEST(LmDatabase, PutOverwritesSameKey) {
  LmDatabase db(4);
  db.put(0, LocationRecord{1, 2, 1.0, 0});
  db.put(0, LocationRecord{1, 2, 9.0, 5});
  EXPECT_EQ(db.total_entries(), 1u);
  EXPECT_DOUBLE_EQ(db.find(0, 1, 2)->updated, 9.0);
  EXPECT_EQ(db.find(0, 1, 2)->version, 5u);
}

TEST(LmDatabase, SameOwnerDifferentLevelsAreDistinct) {
  LmDatabase db(4);
  db.put(0, LocationRecord{1, 2, 0.0, 0});
  db.put(0, LocationRecord{1, 3, 0.0, 0});
  EXPECT_EQ(db.total_entries(), 2u);
  EXPECT_EQ(db.entry_count(0), 2u);
}

TEST(LmDatabase, TakeRemovesAndReturns) {
  LmDatabase db(6);
  db.put(2, LocationRecord{5, 2, 1.0, 3});
  const auto rec = db.take(2, 5, 2);
  EXPECT_EQ(rec.owner, 5u);
  EXPECT_EQ(rec.version, 3u);
  EXPECT_EQ(db.total_entries(), 0u);
  EXPECT_EQ(db.find(2, 5, 2), nullptr);
}

TEST(LmDatabase, TakeAbsentReturnsInvalid) {
  LmDatabase db(4);
  const auto rec = db.take(0, 9, 2);
  EXPECT_EQ(rec.owner, kInvalidNode);
  EXPECT_EQ(db.total_entries(), 0u);
}

TEST(LmDatabase, LoadVectorMatchesEntryCounts) {
  LmDatabase db(3);
  db.put(0, LocationRecord{1, 2, 0.0, 0});
  db.put(0, LocationRecord{2, 2, 0.0, 0});
  db.put(2, LocationRecord{1, 3, 0.0, 0});
  EXPECT_EQ(db.load_vector(), (std::vector<Size>{2, 0, 1}));
}

TEST(LmDatabase, ResetClears) {
  LmDatabase db(3);
  db.put(0, LocationRecord{1, 2, 0.0, 0});
  db.reset(5);
  EXPECT_EQ(db.total_entries(), 0u);
  EXPECT_EQ(db.load_vector().size(), 5u);
}

/// Level 2 and the highest level below the bound live in separate arrays
/// and round-trip independently; the bound itself is refused.
TEST(LmDatabaseDeathTest, LevelBoundRoundTripsAndRefuses) {
  LmDatabase db(3);
  constexpr Level kTop = LmDatabase::kLevelBound - 1;
  db.put(0, LocationRecord{1, 2, 1.0, 10});
  db.put(2, LocationRecord{1, kTop, 2.0, 20});
  ASSERT_NE(db.find(0, 1, 2), nullptr);
  ASSERT_NE(db.find(2, 1, kTop), nullptr);
  EXPECT_EQ(db.find(0, 1, 2)->version, 10u);
  EXPECT_EQ(db.find(2, 1, kTop)->version, 20u);
  EXPECT_EQ(db.total_entries(), 2u);
  EXPECT_DEATH(db.put(0, LocationRecord{1, LmDatabase::kLevelBound, 0.0, 0}),
               "level out of range");
}

TEST(LmDatabaseDeathTest, PutRefusesASecondHolder) {
  LmDatabase db(4);
  db.put(1, LocationRecord{2, 3, 0.0, 0});
  EXPECT_DEATH(db.put(0, LocationRecord{2, 3, 0.0, 1}), "held by another server");
  db.put(1, LocationRecord{2, 3, 1.0, 1});  // the holder may overwrite
  EXPECT_EQ(db.total_entries(), 1u);
}

TEST(LmDatabase, HolderReadsTheTable) {
  LmDatabase db(4);
  EXPECT_EQ(db.holder(2, 3), kInvalidNode);  // no level-3 array yet
  db.put(1, LocationRecord{2, 3, 0.0, 0});
  EXPECT_EQ(db.holder(2, 3), 1u);
  EXPECT_EQ(db.holder(3, 3), kInvalidNode);  // same level, other owner
  EXPECT_EQ(db.holder(2, 2), kInvalidNode);  // same owner, other level
  db.take(1, 2, 3);
  EXPECT_EQ(db.holder(2, 3), kInvalidNode);
  db.put(0, LocationRecord{2, 3, 1.0, 1});  // free again, so any server may hold it
  EXPECT_EQ(db.holder(2, 3), 0u);
}

TEST(LmDatabase, DropAllReturnsOwnerLevelOrderAndEmptiesTheServer) {
  LmDatabase db(5);
  db.put(1, LocationRecord{4, 2, 0.0, 0});
  db.put(1, LocationRecord{0, 3, 0.0, 1});
  db.put(2, LocationRecord{0, 2, 0.0, 2});
  db.put(1, LocationRecord{0, 4, 0.0, 3});
  db.put(1, LocationRecord{3, 2, 0.0, 4});
  const auto dropped = db.drop_all(1);
  ASSERT_EQ(dropped.size(), 4u);
  const std::vector<std::pair<NodeId, Level>> expect = {{0, 3}, {0, 4}, {3, 2}, {4, 2}};
  for (Size i = 0; i < dropped.size(); ++i) {
    EXPECT_EQ(dropped[i].owner, expect[i].first);
    EXPECT_EQ(dropped[i].level, expect[i].second);
    EXPECT_EQ(db.holder(expect[i].first, expect[i].second), kInvalidNode);
  }
  EXPECT_EQ(db.entry_count(1), 0u);
  EXPECT_EQ(db.total_entries(), 1u);  // server 2's entry stays
  EXPECT_EQ(db.holder(0, 2), 2u);
  EXPECT_TRUE(db.drop_all(1).empty());
}

TEST(LoadStats, UniformLoadHasZeroGini) {
  const auto stats = load_stats({4, 4, 4, 4});
  EXPECT_DOUBLE_EQ(stats.mean, 4.0);
  EXPECT_DOUBLE_EQ(stats.max, 4.0);
  EXPECT_NEAR(stats.gini, 0.0, 1e-12);
  EXPECT_NEAR(stats.variance, 0.0, 1e-12);
}

TEST(LoadStats, ConcentratedLoadHasHighGini) {
  const auto stats = load_stats({0, 0, 0, 12});
  EXPECT_DOUBLE_EQ(stats.mean, 3.0);
  EXPECT_DOUBLE_EQ(stats.max, 12.0);
  EXPECT_NEAR(stats.gini, 0.75, 1e-12);  // (n-1)/n for a point mass
}

TEST(LoadStats, EmptyAndZeroVectors) {
  EXPECT_DOUBLE_EQ(load_stats({}).mean, 0.0);
  const auto stats = load_stats({0, 0, 0});
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
  EXPECT_DOUBLE_EQ(stats.gini, 0.0);
}

TEST(LoadStats, GiniKnownHandValue) {
  // loads {1, 3}: G = (2*(1*1 + 2*3)/(2*4)) - 3/2 = 14/8 - 1.5 = 0.25.
  EXPECT_NEAR(load_stats({1, 3}).gini, 0.25, 1e-12);
}

}  // namespace
}  // namespace manet::lm

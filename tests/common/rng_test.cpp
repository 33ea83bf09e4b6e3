#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace manet::common {
namespace {

TEST(SplitMix64, IsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  }
}

TEST(SplitMix64, AdvancesState) {
  std::uint64_t s = 42;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(DeriveSeed, DistinctKeysGiveDistinctSeeds) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    seeds.push_back(derive_seed(123456789, key));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(DeriveSeed, DistinctParentsGiveDistinctSeeds) {
  EXPECT_NE(derive_seed(1, 7), derive_seed(2, 7));
}

TEST(Xoshiro256, ReproducibleFromSeed) {
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Uniform01, StaysInHalfOpenUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = uniform01(rng);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Uniform01, MeanIsNearHalf) {
  Xoshiro256 rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += uniform01(rng);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Uniform, RespectsBounds) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = uniform(rng, -3.0, 7.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 7.0);
  }
}

TEST(UniformIndex, CoversRangeWithoutBias) {
  Xoshiro256 rng(13);
  std::array<int, 5> counts{};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[uniform_index(rng, 5)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
  }
}

TEST(UniformIndex, SingleValueAlwaysZero) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(uniform_index(rng, 1), 0u);
}

TEST(Exponential, MeanMatchesRate) {
  Xoshiro256 rng(19);
  const double lambda = 2.5;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += exponential(rng, lambda);
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.01);
}

TEST(Exponential, AlwaysNonNegative) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(exponential(rng, 0.5), 0.0);
}

TEST(Normal, MeanZeroUnitVariance) {
  Xoshiro256 rng(29);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = normal(rng);
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Shuffle, ProducesPermutation) {
  Xoshiro256 rng(31);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto shuffled = v;
  shuffle(rng, shuffled.data(), shuffled.size());
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Shuffle, ActuallyPermutes) {
  Xoshiro256 rng(37);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto shuffled = v;
  shuffle(rng, shuffled.data(), shuffled.size());
  EXPECT_NE(shuffled, v);  // probability 1/100! of spurious failure
}

/// Property sweep: uniform_index stays unbiased across a range of moduli.
class UniformIndexModulus : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniformIndexModulus, ChiSquareWithinBound) {
  const std::uint64_t m = GetParam();
  Xoshiro256 rng(41 + m);
  std::vector<int> counts(m, 0);
  const int draws = 20000 * static_cast<int>(m);
  for (int i = 0; i < draws; ++i) ++counts[static_cast<std::size_t>(uniform_index(rng, m))];
  const double expected = static_cast<double>(draws) / static_cast<double>(m);
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 99.9th percentile of chi^2 with m-1 dof is far below 3*m for m >= 2.
  EXPECT_LT(chi2, 3.0 * static_cast<double>(m) + 20.0);
}

INSTANTIATE_TEST_SUITE_P(Moduli, UniformIndexModulus, ::testing::Values(2, 3, 7, 10, 16));

}  // namespace
}  // namespace manet::common

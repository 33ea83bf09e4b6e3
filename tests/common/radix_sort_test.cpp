#include "common/radix_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace manet::common {
namespace {

/// The reference: std::sort then std::unique.
std::vector<std::uint64_t> sorted_unique(std::vector<std::uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

TEST(RadixSortUnique, MatchesSortAndUniqueOnRandomPairsWithDuplicates) {
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> buffer;  // kept across calls, as a caller keeps it
  for (const unsigned half_bits : {0u, 1u, 5u, 8u, 12u, 14u, 17u, 32u}) {
    const std::uint64_t values = half_bits == 32 ? 0xFFFFFFFFull : (1ull << half_bits) - 1;
    for (const Size count : {Size{0}, Size{1}, Size{2}, Size{97}, Size{5000}}) {
      std::vector<std::uint64_t> keys;
      for (Size i = 0; i < count; ++i) {
        // Half the draws repeat an earlier key, so every run holds duplicates.
        if (!keys.empty() && uniform01(rng) < 0.5) {
          keys.push_back(keys[uniform_index(rng, keys.size())]);
          continue;
        }
        const std::uint64_t hi = values == 0 ? 0 : uniform_index(rng, values + 1);
        const std::uint64_t lo = values == 0 ? 0 : uniform_index(rng, values + 1);
        keys.push_back((hi << 32) | lo);
      }
      const auto want = sorted_unique(keys);
      radix_sort_unique(keys, buffer, half_bits);
      EXPECT_EQ(keys, want) << "half_bits " << half_bits << " count " << count;
    }
  }
}

TEST(RadixSortUnique, SkipsSharedDigitsAndKeepsOrderAcrossThem) {
  // Every key shares its high half and the low half's second byte, so only
  // the low byte's pass runs; pairs that differ only in the high half sort
  // on it alone.
  std::vector<std::uint64_t> keys{(7ull << 32) | 0x305, (7ull << 32) | 0x301,
                                  (7ull << 32) | 0x3FF, (7ull << 32) | 0x301};
  std::vector<std::uint64_t> buffer;
  radix_sort_unique(keys, buffer, 12);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{(7ull << 32) | 0x301, (7ull << 32) | 0x305,
                                              (7ull << 32) | 0x3FF}));
  keys = {(9ull << 32) | 4, (2ull << 32) | 4, (5ull << 32) | 4};
  radix_sort_unique(keys, buffer, 12);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{(2ull << 32) | 4, (5ull << 32) | 4,
                                              (9ull << 32) | 4}));
}

TEST(RadixSortUniqueDeath, KeyAboveTheDeclaredWidthAborts) {
  std::vector<std::uint64_t> keys{(1ull << 32) | 16};
  std::vector<std::uint64_t> buffer;
  EXPECT_DEATH(radix_sort_unique(keys, buffer, 4), "MANET_CHECK");
}

}  // namespace
}  // namespace manet::common

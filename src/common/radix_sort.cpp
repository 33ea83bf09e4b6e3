#include "common/radix_sort.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "common/check.hpp"
#include "common/types.hpp"

namespace manet::common {

void radix_sort_unique(std::vector<std::uint64_t>& keys, std::vector<std::uint64_t>& buffer,
                       unsigned half_bits) {
  MANET_CHECK(half_bits <= 32);
  constexpr unsigned kDigit = 8;
  constexpr std::uint64_t kMask = (1u << kDigit) - 1;
  // Digit shifts over each half's significant bits, low half first.
  std::array<unsigned, 8> shift{};
  Size passes = 0;
  for (const unsigned base : {0u, 32u}) {
    for (unsigned b = 0; b < half_bits; b += kDigit) shift[passes++] = base + b;
  }
  const std::uint64_t half = (std::uint64_t{1} << half_bits) - 1;
  const std::uint64_t significant = (half << 32) | half;

  std::array<std::array<Size, kMask + 1>, 8> count{};
  std::uint64_t seen = 0;
  for (const std::uint64_t k : keys) {
    seen |= k;
    for (Size p = 0; p < passes; ++p) ++count[p][(k >> shift[p]) & kMask];
  }
  MANET_CHECK((seen & ~significant) == 0);

  buffer.resize(keys.size());
  for (Size p = 0; p < passes; ++p) {
    auto& c = count[p];
    if (std::find(c.begin(), c.end(), keys.size()) != c.end()) continue;  // one shared digit
    Size offset = 0;
    for (Size& x : c) offset += std::exchange(x, offset);
    for (const std::uint64_t k : keys) buffer[c[(k >> shift[p]) & kMask]++] = k;
    keys.swap(buffer);
  }
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

}  // namespace manet::common

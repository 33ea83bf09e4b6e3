#pragma once

#include <cstdint>
#include <vector>

/// \file radix_sort.hpp
/// Sorting packed node-pair keys in linear time.

namespace manet::common {

/// Sort \p keys ascending and drop duplicates, where every key packs two
/// values below 2^half_bits into its high and low 32-bit halves. An LSD
/// radix sort over the significant bits of each half, 8 bits per pass,
/// low half first; one read fills every pass's histogram, and a pass whose
/// digit every key shares is skipped. The passes ping-pong between \p keys
/// and \p buffer by swapping the two vectors, so a caller that keeps both
/// across calls allocates nothing once they reach their largest size.
/// Aborts when a key has a bit set above half_bits in either half.
void radix_sort_unique(std::vector<std::uint64_t>& keys, std::vector<std::uint64_t>& buffer,
                       unsigned half_bits);

}  // namespace manet::common

#include "common/rng.hpp"

#include <cmath>

namespace manet::common {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t key) noexcept {
  // Mix parent and key through two SplitMix64 rounds; the intermediate add
  // of a large odd constant keeps (parent, key) and (parent', key') from
  // colliding under simple additive relations.
  std::uint64_t s = parent ^ (key * 0xD1342543DE82EF95ULL + 0x2545F4914F6CDD1DULL);
  std::uint64_t out = splitmix64(s);
  out ^= splitmix64(s);
  return out;
}

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // All-zero state is a fixed point of xoshiro; SplitMix64 cannot emit four
  // consecutive zeros, so no further guard is needed.
}

Xoshiro256::result_type Xoshiro256::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double uniform01(Xoshiro256& rng) noexcept {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

double uniform(Xoshiro256& rng, double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01(rng);
}

std::uint64_t uniform_index(Xoshiro256& rng, std::uint64_t n) noexcept {
  MANET_CHECK(n > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = rng();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = rng();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double exponential(Xoshiro256& rng, double lambda) noexcept {
  MANET_CHECK(lambda > 0.0);
  // 1 - u in (0, 1] avoids log(0).
  return -std::log(1.0 - uniform01(rng)) / lambda;
}

double normal(Xoshiro256& rng) noexcept {
  // Marsaglia polar method; the loop accepts with probability pi/4.
  for (;;) {
    const double u = 2.0 * uniform01(rng) - 1.0;
    const double v = 2.0 * uniform01(rng) - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

std::uint64_t poisson(Xoshiro256& rng, double lambda) noexcept {
  MANET_CHECK(lambda > 0.0);
  if (lambda > 64.0) {
    // Normal approximation with continuity correction.
    const double draw = lambda + std::sqrt(lambda) * normal(rng) + 0.5;
    return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw);
  }
  const double threshold = std::exp(-lambda);
  std::uint64_t k = 0;
  double product = uniform01(rng);
  while (product > threshold) {
    ++k;
    product *= uniform01(rng);
  }
  return k;
}

}  // namespace manet::common

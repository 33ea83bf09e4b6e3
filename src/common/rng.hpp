#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "common/check.hpp"

/// \file rng.hpp
/// Deterministic random number generation.
///
/// All stochastic components in the library draw from an explicitly seeded
/// generator so every experiment is reproducible from (seed, config) alone.
/// SplitMix64 is used for seed derivation (it is a bijective mixer, so child
/// streams derived from distinct keys never collide); xoshiro256** is the
/// workhorse generator (fast, 256-bit state, passes BigCrush).

namespace manet::common {

/// SplitMix64 step: advances *state and returns a mixed 64-bit output.
/// Used both as a standalone mixer and to expand a 64-bit seed into the
/// 256-bit xoshiro state.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Derive a statistically independent child seed from (parent seed, key).
/// Monte-Carlo replication r uses derive_seed(campaign_seed, r), so results
/// are invariant under thread scheduling.
std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t key) noexcept;

/// xoshiro256** 1.0 (Blackman & Vigna). Satisfies C++ UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state by running SplitMix64 from \p seed.
  explicit Xoshiro256(std::uint64_t seed = 0xA5A5A5A5DEADBEEFULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept;

 private:
  std::array<std::uint64_t, 4> s_;
};

/// Uniform double in [0, 1). Uses the top 53 bits for a dyadic rational.
double uniform01(Xoshiro256& rng) noexcept;

/// Uniform double in [lo, hi). Requires lo <= hi.
double uniform(Xoshiro256& rng, double lo, double hi) noexcept;

/// Unbiased uniform integer in [0, n) via Lemire's multiply-shift rejection.
/// Requires n > 0.
std::uint64_t uniform_index(Xoshiro256& rng, std::uint64_t n) noexcept;

/// Standard exponential variate with rate \p lambda (> 0).
double exponential(Xoshiro256& rng, double lambda) noexcept;

/// Standard normal variate (Marsaglia polar method).
double normal(Xoshiro256& rng) noexcept;

/// Poisson variate with mean \p lambda (> 0). Knuth multiplication for
/// small lambda, normal approximation above 64 (adequate for event counts).
std::uint64_t poisson(Xoshiro256& rng, double lambda) noexcept;

/// Fisher-Yates shuffle of [first, first+n).
template <typename T>
void shuffle(Xoshiro256& rng, T* first, std::size_t n) noexcept {
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(uniform_index(rng, i));
    T tmp = first[i - 1];
    first[i - 1] = first[j];
    first[j] = tmp;
  }
}

}  // namespace manet::common

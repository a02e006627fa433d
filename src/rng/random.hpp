#ifndef SOPS_RNG_RANDOM_HPP
#define SOPS_RNG_RANDOM_HPP

/// \file random.hpp
/// Simulation-facing randomness facade over xoshiro256++.
///
/// All stochastic components of the library (chain steps, Poisson clocks,
/// workload generators) draw through this class so that every experiment is
/// reproducible from a single seed and substreams can be forked without
/// correlation.

#include <cmath>
#include <cstdint>

#include "rng/xoshiro.hpp"
#include "util/assert.hpp"
#include "util/mix.hpp"

namespace sops::rng {

/// Shared draw formulas, templated over any uniform-random-bit engine
/// producing 64-bit words.  `Random` and `CounterStream` delegate to these
/// — one definition, so the two cannot drift bit-wise.

/// Uniform double in [0, 1) with 53 bits of precision.
template <typename Engine>
[[nodiscard]] double drawUniform(Engine& engine) noexcept {
  return static_cast<double>(engine() >> 11) * 0x1.0p-53;
}

/// Uniform double in (0, 1]; safe as an argument to log().
template <typename Engine>
[[nodiscard]] double drawUniformPositive(Engine& engine) noexcept {
  return (static_cast<double>(engine() >> 11) + 1.0) * 0x1.0p-53;
}

/// Exponential with the given rate (mean 1/rate); used by Poisson clocks.
/// Divides by rate (rather than multiplying by a cached reciprocal) so the
/// heterogeneous-rate draws stay bit-identical to the historical
/// `Random::exponential` results.
template <typename Engine>
[[nodiscard]] double drawExponential(Engine& engine,
                                     double rate = 1.0) noexcept {
  SOPS_DASSERT(rate > 0.0);
  return -std::log(drawUniformPositive(engine)) / rate;
}

/// Uniform integer in [0, bound).  Uses Lemire's multiply-shift rejection
/// method: unbiased for every bound, one division only on rejection.
template <typename Engine>
[[nodiscard]] std::uint32_t drawBelow(Engine& engine,
                                      std::uint32_t bound) noexcept {
  SOPS_DASSERT(bound > 0);
  std::uint64_t x = engine() >> 32;  // 32 uniform bits
  std::uint64_t m = x * bound;
  auto low = static_cast<std::uint32_t>(m);
  if (low < bound) {
    const std::uint32_t threshold = (0u - bound) % bound;
    while (low < threshold) {
      x = engine() >> 32;
      m = x * bound;
      low = static_cast<std::uint32_t>(m);
    }
  }
  return static_cast<std::uint32_t>(m >> 32);
}

class Random {
 public:
  explicit Random(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept
      : engine_(seed), seed_(seed) {}

  /// Seed this generator was constructed with (for experiment logging).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Derives an independent generator for a named substream.  Forked
  /// streams are decorrelated by hashing (seed, streamId) and jumping.
  [[nodiscard]] Random fork(std::uint64_t streamId) const noexcept {
    std::uint64_t sm = seed_ ^ (0x9e3779b97f4a7c15ULL * (streamId + 1));
    Random child(splitmix64(sm));
    child.engine_.jump();
    return child;
  }

  /// Raw 64 uniform random bits.
  std::uint64_t bits() noexcept { return engine_(); }

  /// Uniform integer in [0, bound) via Lemire rejection (see drawBelow).
  std::uint32_t below(std::uint32_t bound) noexcept {
    return drawBelow(engine_, bound);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    SOPS_DASSERT(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint32_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept { return drawUniform(engine_); }

  /// Uniform double in (0, 1]; safe as an argument to log().
  double uniformPositive() noexcept { return drawUniformPositive(engine_); }

  /// Bernoulli(p) draw.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential with the given rate (mean 1/rate); used by Poisson clocks.
  double exponential(double rate = 1.0) noexcept {
    return drawExponential(engine_, rate);
  }

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = below(static_cast<std::uint32_t>(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Exposes the underlying engine for std::distributions in tests.
  [[nodiscard]] Xoshiro256PlusPlus& engine() noexcept { return engine_; }
  [[nodiscard]] const Xoshiro256PlusPlus& engine() const noexcept {
    return engine_;
  }

  /// Rebuilds a generator from a snapshotted (seed, engine state) pair.
  /// The result continues the original draw stream exactly where the
  /// snapshot captured it; seed() keeps reporting the original seed.
  [[nodiscard]] static Random fromState(
      std::uint64_t seed,
      const std::array<std::uint64_t, 4>& engineState) noexcept {
    Random r(seed);
    r.engine_.setState(engineState);
    return r;
  }

 private:
  Xoshiro256PlusPlus engine_;
  std::uint64_t seed_;
};

/// Counter-based stream: output j of stream `counter` under `key` is
/// util::mix64(key + (256·counter + j)·φ) — splitmix64's sequence, cut
/// into disjoint windows of 256 outputs, one per counter.  Every draw is a
/// pure function of (key, counter, j), opening a stream costs one multiply,
/// and distinct (counter, j < 256) never share an input (φ is odd, so
/// multiplying by it is a bijection).  The block executor opens one
/// stream per proposal (key from (seed, epoch), counter = proposal index),
/// so a proposal's draws do not depend on which thread runs it, or when;
/// its few draws stay far below the 256-output window.  Exposes the engine
/// interface the draw templates above expect, plus the uniform() the event
/// kernels draw their Metropolis uniform through.
class CounterStream {
 public:
  constexpr CounterStream(std::uint64_t key, std::uint64_t counter) noexcept
      : state_(key + (counter << 8) * kGolden) {}

  std::uint64_t operator()() noexcept {
    const std::uint64_t out = util::mix64(state_);
    state_ += kGolden;
    return out;
  }
  std::uint32_t below(std::uint32_t bound) noexcept {
    return drawBelow(*this, bound);
  }
  double uniform() noexcept { return drawUniform(*this); }
  bool bernoulli(double p) noexcept { return uniform() < p; }

 private:
  static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  std::uint64_t state_;
};

}  // namespace sops::rng

#endif  // SOPS_RNG_RANDOM_HPP

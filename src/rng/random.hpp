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

namespace detail {

/// drawGeometric given log1p(−p) < 0: the same draw, bit for bit, for a
/// caller that draws many gaps of one p.
template <typename Engine>
[[nodiscard]] std::uint64_t drawGeometricLog(Engine& engine,
                                             double logFailure) noexcept {
  const double g =
      std::floor(std::log(drawUniformPositive(engine)) / logFailure);
  // 2^64 as a double: the largest g that still converts is just below it.
  return g < 0x1.0p64 ? static_cast<std::uint64_t>(g)
                      : ~std::uint64_t{0};
}

}  // namespace detail

/// Geometric: the number of failures before the first success of
/// independent trials with success probability p ∈ (0, 1].  Inversion,
/// P(G ≥ k) = P(U ≤ (1 − p)^k) = (1 − p)^k for U uniform on (0, 1], with
/// log1p keeping tiny p exact to rounding.  One draw; saturates at
/// UINT64_MAX where the count no longer fits.
template <typename Engine>
[[nodiscard]] std::uint64_t drawGeometric(Engine& engine, double p) noexcept {
  SOPS_DASSERT(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  return detail::drawGeometricLog(engine, std::log1p(-p));
}

namespace detail {

/// Stirling-series remainder fc(k) = log k! − [(k + ½)·log(k + 1) − (k + 1)
/// + ½·log 2π] of the BTRD acceptance test: tabulated below 10, the
/// asymptotic series above.
[[nodiscard]] inline double stirlingCorrection(std::uint64_t k) noexcept {
  static constexpr double kTable[10] = {
      0.08106146679532726,  0.04134069595540929,  0.02767792568499834,
      0.02079067210376509,  0.01664469118982119,  0.01387612882307075,
      0.01189670994589177,  0.01041126526197209,  0.009255462182712733,
      0.008330563433362871};
  if (k < 10) return kTable[k];
  const double inv = 1.0 / (static_cast<double>(k) + 1.0);
  const double inv2 = inv * inv;
  return (1.0 / 12 - (1.0 / 360 - inv2 / 1260) * inv2) * inv;
}

/// BTRD (Hörmann, "The generation of binomial random variates", J. Stat.
/// Comput. Simul. 46, 1993): transformed rejection with a decomposition,
/// exact, O(1) expected draws.  Preconditions: p ≤ ½ and (n + 1)·p ≥ 11.
template <typename Engine>
[[nodiscard]] std::uint64_t drawBinomialBtrd(Engine& engine, std::uint64_t n,
                                             double p) noexcept {
  const double nd = static_cast<double>(n);
  const auto m = static_cast<std::int64_t>((nd + 1.0) * p);
  const double r = p / (1.0 - p);
  const double nr = (nd + 1.0) * r;
  const double npq = nd * p * (1.0 - p);
  const double sqrtNpq = std::sqrt(npq);
  const double b = 1.15 + 2.53 * sqrtNpq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double alpha = (2.83 + 5.1 / b) * sqrtNpq;
  const double vr = 0.92 - 4.2 / b;
  const double urvr = 0.86 * vr;
  const auto nn = static_cast<std::int64_t>(n);
  while (true) {
    double v = drawUniform(engine);
    double u;
    if (v <= urvr) {
      u = v / vr - 0.43;
      return static_cast<std::uint64_t>(
          std::floor((2.0 * a / (0.5 - std::fabs(u)) + b) * u + c));
    }
    if (v >= vr) {
      u = drawUniform(engine) - 0.5;
    } else {
      u = v / vr - 0.93;
      u = (u < 0.0 ? -0.5 : 0.5) - u;
      v = drawUniform(engine) * vr;
    }
    const double us = 0.5 - std::fabs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    const auto k = static_cast<std::int64_t>(kd);
    v = v * alpha / (a / (us * us) + b);
    const auto km = static_cast<double>(k > m ? k - m : m - k);
    if (km <= 15.0) {
      // Recursive evaluation of f(k)/f(m).
      double f = 1.0;
      if (m < k) {
        for (std::int64_t i = m + 1; i <= k; ++i) {
          f *= nr / static_cast<double>(i) - r;
        }
      } else if (m > k) {
        for (std::int64_t i = k + 1; i <= m; ++i) {
          v *= nr / static_cast<double>(i) - r;
        }
      }
      if (v <= f) return static_cast<std::uint64_t>(k);
      continue;
    }
    // Squeeze, then the exact test through Stirling's series.
    v = std::log(v);
    const double rho =
        (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5);
    const double t = -km * km / (2.0 * npq);
    if (v < t - rho) return static_cast<std::uint64_t>(k);
    if (v > t + rho) continue;
    const auto nm = static_cast<double>(nn - m + 1);
    const double h = (static_cast<double>(m) + 0.5) *
                         std::log((static_cast<double>(m) + 1.0) / (r * nm)) +
                     stirlingCorrection(static_cast<std::uint64_t>(m)) +
                     stirlingCorrection(static_cast<std::uint64_t>(nn - m));
    const auto nk = static_cast<double>(nn - k + 1);
    if (v <= h + (nd + 1.0) * std::log(nm / nk) +
                 (static_cast<double>(k) + 0.5) *
                     std::log(nk * r / (static_cast<double>(k) + 1.0)) -
                 stirlingCorrection(static_cast<std::uint64_t>(k)) -
                 stirlingCorrection(static_cast<std::uint64_t>(nn - k))) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

}  // namespace detail

/// Binomial(n, p): the number of successes in n independent trials.
/// Exact for every n < 2^63 and p: p > ½ draws the failures instead; a
/// small mean ((n + 1)·p < 11) sums geometric gaps between successes
/// (about n·p + 1 draws, log1p(−p) computed once — libm may set errno, so
/// the compiler cannot hoist it); otherwise BTRD (a few draws).
template <typename Engine>
[[nodiscard]] std::uint64_t drawBinomial(Engine& engine, std::uint64_t n,
                                         double p) noexcept {
  SOPS_DASSERT(n < (std::uint64_t{1} << 63));
  if (n == 0 || !(p > 0.0)) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - drawBinomial(engine, n, 1.0 - p);
  if ((static_cast<double>(n) + 1.0) * p < 11.0) {
    const double logFailure = std::log1p(-p);
    std::uint64_t successes = 0;
    std::uint64_t position = detail::drawGeometricLog(engine, logFailure);
    while (position < n) {
      ++successes;
      const std::uint64_t gap = detail::drawGeometricLog(engine, logFailure);
      position = gap < n ? position + 1 + gap : n;
    }
    return successes;
  }
  return detail::drawBinomialBtrd(engine, n, p);
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
  /// See drawGeometric: failures before the first success, one draw.
  std::uint64_t geometric(double p) noexcept {
    return drawGeometric(*this, p);
  }
  /// See drawBinomial.  A few draws on average; the rejection loops stay
  /// far inside one stream's 256-output window except with negligible
  /// probability.
  std::uint64_t binomial(std::uint64_t n, double p) noexcept {
    return drawBinomial(*this, n, p);
  }

 private:
  static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  std::uint64_t state_;
};

}  // namespace sops::rng

#endif  // SOPS_RNG_RANDOM_HPP

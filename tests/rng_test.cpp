// Tests for the deterministic RNG substrate (S2).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/stats.hpp"
#include "rng/alias_table.hpp"
#include "rng/random.hpp"
#include "rng/xoshiro.hpp"
#include "util/assert.hpp"

namespace sops::rng {
namespace {

TEST(Xoshiro, DeterministicFromSeed) {
  Xoshiro256PlusPlus a(7);
  Xoshiro256PlusPlus b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256PlusPlus a(7);
  Xoshiro256PlusPlus b(8);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro, JumpDecorrelates) {
  Xoshiro256PlusPlus a(7);
  Xoshiro256PlusPlus b(7);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Random, BelowIsInRange) {
  Random rng(1);
  for (std::uint32_t bound : {1u, 2u, 3u, 6u, 7u, 100u, 12345u}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Random, BelowIsApproximatelyUniform) {
  // Chi-square test over 6 buckets (the chain's direction draw).
  Random rng(42);
  std::array<int, 6> counts{};
  const int samples = 600000;
  for (int i = 0; i < samples; ++i) ++counts[rng.below(6)];
  const double expected = samples / 6.0;
  double chi2 = 0.0;
  for (const int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  // 5 degrees of freedom: P(chi2 > 20.5) < 0.001.
  EXPECT_LT(chi2, 20.5);
}

TEST(Random, BetweenIsInclusive) {
  Random rng(3);
  bool sawLo = false;
  bool sawHi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    sawLo |= v == -2;
    sawHi |= v == 2;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Random, UniformIsInUnitInterval) {
  Random rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Random, UniformMeanIsHalf) {
  Random rng(5);
  double sum = 0.0;
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / samples, 0.5, 0.005);
}

TEST(Random, ExponentialHasRequestedMean) {
  Random rng(6);
  for (const double rate : {0.5, 1.0, 4.0}) {
    double sum = 0.0;
    const int samples = 200000;
    for (int i = 0; i < samples; ++i) sum += rng.exponential(rate);
    EXPECT_NEAR(sum / samples, 1.0 / rate, 0.02 / rate);
  }
}

TEST(Random, ExponentialIsPositive) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.exponential(1.0), 0.0);
  }
}

TEST(Random, BernoulliFrequency) {
  Random rng(8);
  int hits = 0;
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / samples, 0.3, 0.005);
}

TEST(Random, ForkedStreamsAreIndependent) {
  Random base(77);
  Random a = base.fork(1);
  Random b = base.fork(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.bits() == b.bits()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Random, ForkIsDeterministic) {
  Random base(77);
  Random a = base.fork(9);
  Random b = Random(77).fork(9);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.bits(), b.bits());
  }
}

TEST(Random, ShufflePreservesElements) {
  Random rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Random, ShuffleIsNotIdentityUsually) {
  Random rng(12);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);
}

TEST(CounterStream, DrawsArePureFunctionsOfKeyCounterAndIndex) {
  // Output j of stream k is mix64(key + (256k + j)·φ): reopening a stream
  // replays it, and stream k + 1 starts exactly 256 outputs after k.
  CounterStream a(77, 5);
  CounterStream b(77, 5);
  std::vector<std::uint64_t> first;
  for (int j = 0; j < 300; ++j) {
    first.push_back(a());
    EXPECT_EQ(first.back(), b());
  }
  CounterStream next(77, 6);
  EXPECT_EQ(next(), first[256]);
  EXPECT_NE(CounterStream(78, 5)(), first[0]);
}

TEST(CounterStream, BelowIsApproximatelyUniformAcrossStreams) {
  // One draw per stream, streams k = 0, 1, 2, ...: the runner's use.
  constexpr int kBuckets = 6;
  constexpr int kDraws = 600000;
  std::array<int, kBuckets> counts{};
  for (int k = 0; k < kDraws; ++k) {
    ++counts[CounterStream(0x5eed, static_cast<std::uint64_t>(k))
                 .below(kBuckets)];
  }
  // Five binomial standard deviations per bucket.
  const double p = 1.0 / kBuckets;
  const double sd = std::sqrt(kDraws * p * (1.0 - p));
  for (const int c : counts) EXPECT_NEAR(c, kDraws / kBuckets, 5.0 * sd);
}

// Geometric and binomial samplers: Pearson chi-square of one draw per
// counter stream (the rejection-free epoch's use) against the exact pmf,
// cells below 5 expected pooled; p > 0.001 at fixed seeds.

constexpr int kPmfDraws = 200000;
constexpr double kPmfAcceptP = 0.001;

TEST(CounterStream, GeometricMatchesPmf) {
  for (const double p : {0.5, 0.05, 1e-3, 1e-9}) {
    // Cells [e_j, e_{j+1}) at the law's 64-quantiles, the last open.
    const double logq = std::log1p(-p);
    std::vector<std::uint64_t> edges;
    for (int j = 0; j < 64; ++j) {
      const auto e = static_cast<std::uint64_t>(
          std::floor(std::log1p(-j / 64.0) / logq));
      if (edges.empty() || e > edges.back()) edges.push_back(e);
    }
    const auto survival = [&](std::uint64_t k) {
      return std::exp(static_cast<double>(k) * logq);
    };
    std::vector<double> expected;
    for (std::size_t j = 0; j < edges.size(); ++j) {
      expected.push_back(j + 1 < edges.size()
                             ? survival(edges[j]) - survival(edges[j + 1])
                             : survival(edges[j]));
    }
    std::vector<double> counts(edges.size(), 0.0);
    for (int k = 0; k < kPmfDraws; ++k) {
      const std::uint64_t g =
          CounterStream(0x6e6f, static_cast<std::uint64_t>(k)).geometric(p);
      std::size_t cell = edges.size() - 1;
      while (g < edges[cell]) --cell;
      counts[cell] += 1.0;
    }
    const analysis::ChiSquareResult gof =
        analysis::chiSquareGoodnessOfFit(counts, expected);
    EXPECT_GT(gof.pValue, kPmfAcceptP)
        << "p = " << p << ", chi2 = " << gof.statistic << ", dof = " << gof.dof;
  }
  EXPECT_EQ(CounterStream(1, 2).geometric(1.0), 0u);
}

/// Chi-square of kPmfDraws Binomial(n, p) draws, one stream each under
/// `key`, against the exact pmf over mean ± 8 sd (both tails pooled).
void expectBinomialMatchesPmf(std::uint64_t key, std::uint64_t trials,
                              double p) {
  const double n = static_cast<double>(trials);
  const double mean = n * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  const auto lo = static_cast<std::uint64_t>(std::max(0.0, mean - 8 * sd));
  const auto hi =
      static_cast<std::uint64_t>(std::min(n, std::ceil(mean + 8 * sd)));
  // log pmf by the ratio recursion from k = 0 (exact to rounding even
  // where lgamma(n + 1) would cancel catastrophically).
  const double logRatio = std::log(p) - std::log1p(-p);
  double logPmf = n * std::log1p(-p);
  std::vector<double> expected;
  for (std::uint64_t k = 0; k <= hi; ++k) {
    if (k >= lo) expected.push_back(std::exp(logPmf));
    logPmf += std::log((n - static_cast<double>(k)) /
                       (static_cast<double>(k) + 1.0)) +
              logRatio;
  }
  double inside = 0.0;
  for (const double e : expected) inside += e;
  expected.push_back(std::max(0.0, 1.0 - inside));  // both tails
  std::vector<double> counts(expected.size(), 0.0);
  for (int k = 0; k < kPmfDraws; ++k) {
    const std::uint64_t x =
        CounterStream(key, static_cast<std::uint64_t>(k)).binomial(trials, p);
    ASSERT_LE(x, trials);
    counts[x >= lo && x <= hi ? x - lo : expected.size() - 1] += 1.0;
  }
  const analysis::ChiSquareResult gof =
      analysis::chiSquareGoodnessOfFit(counts, expected);
  EXPECT_GT(gof.pValue, kPmfAcceptP)
      << "n = " << trials << ", p = " << p << ", chi2 = " << gof.statistic
      << ", dof = " << gof.dof;
}

struct BinomialCase {
  std::uint64_t n;
  double p;
};

TEST(CounterStream, BinomialMatchesPmf) {
  // Small means (inversion), BTRD from moderate to large n, p > 1/2
  // (complement), and tiny p over huge trial counts.
  const BinomialCase cases[] = {{30, 0.2},          {50, 0.97},
                                {1000, 0.3},        {200, 0.93},
                                {200000, 0.04},     {1000000000, 3e-9},
                                {1ULL << 40, 1e-11}, {1ULL << 40, 1e-8}};
  for (const BinomialCase c : cases) expectBinomialMatchesPmf(0x62696e, c.n, c.p);
  CounterStream s(3, 4);
  EXPECT_EQ(s.binomial(0, 0.5), 0u);
  EXPECT_EQ(s.binomial(17, 0.0), 0u);
  EXPECT_EQ(s.binomial(17, 1.0), 17u);
}

TEST(CounterStream, BinomialInversionMatchesPmf) {
  // The small-mean path at its edges — one trial, (n + 1)·p just under
  // 11, p = ½ and just under — and at the shapes the rejection-free
  // epochs' block counts and failure splits draw.
  const BinomialCase cases[] = {{1, 0.3},     {1, 0.5},      {1098, 0.01},
                                {20, 0.5},    {21, 0.4999},  {183, 0.04},
                                {1200, 0.004}, {250, 0.03}};
  for (const BinomialCase c : cases) {
    ASSERT_LT((static_cast<double>(c.n) + 1.0) * c.p, 11.0);
    expectBinomialMatchesPmf(0x62696f, c.n, c.p);
  }
}

TEST(CounterStream, BinomialDrawsOneUniformOnTheSmallMeanPath) {
  // A small mean takes exactly one output of the stream; past the switch
  // the draw is BTRD's, bit for bit, on the complement above ½.
  const std::uint64_t trials[] = {1, 2, 7, 40, 1000, 250000, 1ULL << 40};
  const double probabilities[] = {1e-12, 1e-6, 1e-3, 0.004, 0.01, 0.05,
                                  0.1,   0.25, 0.5,  0.75,  0.99, 0.9999};
  for (const std::uint64_t n : trials) {
    for (const double p : probabilities) {
      const double q = std::min(p, 1.0 - p);
      const bool smallMean = (static_cast<double>(n) + 1.0) * q < 11.0;
      for (std::uint64_t k = 0; k < 10000; ++k) {
        CounterStream now(0x686f6973, k);
        const std::uint64_t x = now.binomial(n, p);
        CounterStream oracle(0x686f6973, k);
        if (smallMean) {
          (void)oracle();
        } else {
          const std::uint64_t y = detail::drawBinomialBtrd(oracle, n, q);
          ASSERT_EQ(x, p > 0.5 ? n - y : y) << "n = " << n << ", p = " << p;
        }
        ASSERT_EQ(now(), oracle()) << "n = " << n << ", p = " << p;
      }
    }
  }
}

TEST(AliasTable, SamplesInProportionToWeights) {
  const std::vector<double> weights = {0.5, 2.0, 1.25, 3.0, 0.25};
  const AliasTable table(weights);
  constexpr int kDraws = 1000000;
  std::vector<int> counts(weights.size(), 0);
  Random rng(17);
  for (int i = 0; i < kDraws; ++i) ++counts[table.sample(rng.engine())];
  double total = 0.0;
  for (const double w : weights) total += w;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = kDraws * weights[i] / total;
    EXPECT_NEAR(counts[i], expected, 5.0 * std::sqrt(expected)) << i;
  }
}

TEST(AliasTable, RejectsBadWeights) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), sops::ContractViolation);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, 0.0}),
               sops::ContractViolation);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, -1.0}),
               sops::ContractViolation);
}

}  // namespace
}  // namespace sops::rng

// Tests for the deterministic RNG substrate (S2).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "rng/alias_table.hpp"
#include "rng/random.hpp"
#include "rng/stream_bank.hpp"
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

// --- SoA stream banks --------------------------------------------------
// The banks must be bit-equivalent to the AoS discipline they replaced:
// a StreamBank stream is particleStream(seed, i, lane) draw-for-draw, and
// PoissonClockBank::fillEpoch emits exactly the waiting times the old
// per-event loop drew.  This is what lets the sharded runners keep every
// pre-existing golden trajectory after the SoA/batched rewrite.

TEST(StreamBank, MatchesParticleStreamDrawForDraw) {
  constexpr std::uint64_t kSeed = 4242;
  constexpr std::uint64_t kLane = 2;
  constexpr std::size_t kCount = 17;
  StreamBank bank(kSeed, kCount, kLane);
  std::vector<Random> reference;
  for (std::size_t i = 0; i < kCount; ++i) {
    reference.push_back(particleStream(kSeed, i, kLane));
  }
  // Interleaved access across many short Use sessions: the store/reload
  // round-trip through the packed state must be lossless.
  Random order(5);
  for (int round = 0; round < 500; ++round) {
    const std::size_t i = order.below(static_cast<std::uint32_t>(kCount));
    StreamBank::Use use = bank.use(i);
    switch (order.below(4)) {
      case 0:
        ASSERT_EQ(use.rng().bits(), reference[i].bits());
        break;
      case 1:
        ASSERT_EQ(use.rng().uniform(), reference[i].uniform());
        break;
      case 2:
        ASSERT_EQ(use.rng().below(1000), reference[i].below(1000));
        break;
      default:
        ASSERT_EQ(use.rng().exponential(1.5), reference[i].exponential(1.5));
        break;
    }
  }
}

TEST(PoissonClockBank, FillEpochMatchesPerEventLoop) {
  constexpr std::uint64_t kSeed = 99;
  constexpr std::uint64_t kLane = 1;
  constexpr std::size_t kCount = 9;
  const std::vector<double> rates{0.25, 1.0, 1.0, 3.5, 2.0,
                                  1.0,  0.5, 4.0, 1.0};
  PoissonClockBank bank(kSeed, kCount, kLane, rates);
  EXPECT_DOUBLE_EQ(bank.totalRate(), 14.25);

  // Reference: the old AoS loop — one Random per particle, first firing
  // drawn at construction, then one scattered exponential per event.
  std::vector<Random> streams;
  std::vector<double> next;
  for (std::size_t i = 0; i < kCount; ++i) {
    streams.push_back(particleStream(kSeed, i, kLane));
    next.push_back(streams.back().exponential(rates[i]));
    ASSERT_EQ(bank.nextTime(i), next.back()) << "initial draw, particle " << i;
  }

  PoissonClockBank::EpochDraws draws;
  double now = 0.0;
  const double epochLength = 48.0 / bank.totalRate();
  for (int epoch = 0; epoch < 50; ++epoch) {
    const double epochEnd = now + epochLength;
    bank.fillEpoch(epochEnd, draws);
    for (std::size_t i = 0; i < kCount; ++i) {
      std::uint64_t k = draws.offsets[i];
      while (next[i] < epochEnd) {
        ASSERT_LT(k, draws.offsets[i + 1]);
        ASSERT_EQ(draws.times[k], next[i]) << "epoch " << epoch;
        ++k;
        next[i] += streams[i].exponential(rates[i]);
      }
      ASSERT_EQ(k, draws.offsets[i + 1]) << "extra draws, particle " << i;
      ASSERT_EQ(bank.nextTime(i), next[i]);
    }
    now = epochEnd;
  }
}

TEST(PoissonClockBank, UniformDefaultEqualsExplicitOnes) {
  PoissonClockBank a(7, 5, 1);
  PoissonClockBank b(7, 5, 1, std::vector<double>(5, 1.0));
  EXPECT_EQ(a.totalRate(), b.totalRate());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a.nextTime(i), b.nextTime(i));
    EXPECT_EQ(a.state(i), b.state(i));
  }
}

TEST(PoissonClockBank, RejectsBadRates) {
  EXPECT_THROW(PoissonClockBank(1, 3, 1, {1.0, 0.0, 1.0}),
               sops::ContractViolation);
  EXPECT_THROW(PoissonClockBank(1, 3, 1, {1.0, -2.0, 1.0}),
               sops::ContractViolation);
  EXPECT_THROW(PoissonClockBank(1, 3, 1, {1.0, 1.0}),
               sops::ContractViolation);
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

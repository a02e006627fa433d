// Rejection-free epochs for Algorithm A (amoebot/rejection_free.hpp) and
// the sharded amoebot runner's epoch routing (amoebot/parallel_scheduler).
//
//  1. The index: after every event its bytes, mass sums, chunk masses,
//     Fenwick tree, tail histogram and crossing mass C equal a
//     from-scratch rebuild — on flat and tiled planes, with crash and
//     Byzantine faults; the histogram's band count equals the
//     particle-by-particle count; the memory budget.
//  2. The law: a rejection-free epoch samples the block-path epoch's law.
//     Chi-square of the quiescent configurations against exact π at
//     n = 4, 5 (and at 3-activation epochs, where nearly every geometric
//     run is cut at the epoch end); two-sample KS of the perimeter, the
//     skip count and every outcome tally against the list-order oracle at
//     n = 10⁴.
//  3. Routing: compressed epochs route rejection-free and the runner
//     pinned to the block path never does; with routing on, the
//     trajectory — tallies and rejection-free epoch count included — is
//     identical at every thread count and across a snapshot resumed at a
//     different thread count; v5/v6 payloads restore on the block path.
//
// Pre-registered design of the distributional tests (as in
// tests/local_vs_chain_test.cpp): burn-in 50,000 activations; one sample
// per 48 activations (eight 6-activation epochs), quiescent instants
// only; chi-square p > 0.01 with cells below 5 expected pooled; KS
// p > 0.001 per observable; fixed seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/faults.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "amoebot/rejection_free.hpp"
#include "analysis/stats.hpp"
#include "core/block_executor.hpp"
#include "enumeration/exact_distribution.hpp"
#include "system/canonical.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "system/snapshot.hpp"

namespace sops::amoebot {
namespace {

using system::ParticleSystem;

// --- 1. the index -----------------------------------------------------------

/// A line of `n` along the x-axis, plus (for `tiled`) a far singleton that
/// promotes the planes to tiles.
ParticleSystem lineWithOutlier(std::int32_t n, bool tiled) {
  std::vector<TriPoint> points;
  for (std::int32_t i = 0; i < n; ++i) points.push_back({i, 0});
  if (tiled) points.push_back({60000, 20000});
  return ParticleSystem(points);
}

TEST(AmoebotRejectionFreeIndex, MatchesRebuildAfterEveryEvent) {
  for (const bool faulty : {false, true}) {
    for (const bool tiled : {false, true}) {
      // A 1100-particle line at λ = 4 (past the particle-pass size, so
      // the histogram counts C) in 1000-activation epochs: hundreds of
      // events, each followed by a full comparison (verifyEachEvent
      // throws on the first drift).  With faults, 10% of the particles
      // crash and 5% turn Byzantine.
      rng::Random ctor(17);
      AmoebotSystem sys(lineWithOutlier(1100, tiled), ctor);
      ASSERT_EQ(sys.occupancyGrid().tiled(), tiled);
      if (faulty) {
        rng::Random faultRng(19);
        FaultPlan plan = randomCrashes(sys.size(), 0.1, faultRng);
        plan.byzantine = randomByzantine(sys.size(), 0.05, faultRng).byzantine;
        applyFaults(sys, plan);
      }
      const LocalCompressionAlgorithm algo({4.0});
      ShardedOptions options;
      options.threads = 1;
      options.targetEventsPerEpoch = 1000;
      ShardedPoissonRunner runner(sys, algo, 4001, options);
      runner.forceRejectionFreeForTest(/*verifyEachEvent=*/true);
      const std::string label = std::string(faulty ? "faults" : "none") +
                                (tiled ? " tiled" : " flat");
      ASSERT_NO_THROW(runner.runAtLeast(4 * 1000)) << label;
      EXPECT_EQ(runner.rejectionFreeEpochs(), 4u) << label;
      const ActivationTallies& t = runner.tallies();
      EXPECT_EQ(t.idle + t.events() + runner.sweepActivations(),
                runner.activations())
          << label;
      EXPECT_GT(t.events(), 100u) << label;
      // The live id index agrees with the particles.
      std::size_t expanded = 0;
      for (std::size_t id = 0; id < sys.size(); ++id) {
        const Particle& p = sys.particle(id);
        ASSERT_EQ(sys.at(p.tail).particle, static_cast<std::int32_t>(id));
        ASSERT_EQ(sys.at(p.head).particle, static_cast<std::int32_t>(id));
        if (p.expanded) ++expanded;
      }
      EXPECT_EQ(expanded, sys.expandedCount()) << label;
    }
  }
}

TEST(AmoebotRejectionFreeIndex, BandCountMatchesParticleCount) {
  // A 10⁵ spiral after a few block epochs (so expanded particles exist),
  // with crash and Byzantine faults: the histogram's band count of C must
  // equal the particle-by-particle count under every offset.
  rng::Random ctor(23);
  AmoebotSystem sys(system::spiralConfiguration(100000), ctor);
  rng::Random faultRng(29);
  FaultPlan plan = randomCrashes(sys.size(), 0.01, faultRng);
  plan.byzantine = randomByzantine(sys.size(), 0.01, faultRng).byzantine;
  applyFaults(sys, plan);
  const LocalCompressionAlgorithm algo({4.0});
  ShardedOptions options;
  options.threads = 2;
  ShardedPoissonRunner runner(sys, algo, 31, options);
  runner.forceBlockPathForTest();
  runner.runAtLeast(3 * 200000);
  ASSERT_GT(sys.expandedCount(), 0u);
  RejectionFreeIndex index(algo);
  index.rebuild(sys);
  for (std::uint64_t e = 0; e < 48; ++e) {
    const core::BlockEpoch ep = core::BlockEpoch::draw(77, e);
    index.beginEpoch(sys, ep);
    EXPECT_EQ(static_cast<std::int64_t>(index.crossingMass()),
              index.crossingByParticles(sys, ep))
        << "epoch " << e;
    EXPECT_GT(index.crossingMass(), 10000u);
    EXPECT_TRUE(index.matchesRebuild(sys, ep));
  }
}

TEST(AmoebotRejectionFreeIndex, FitsTheMemoryBudgetAtN1e5) {
  rng::Random ctor(37);
  const ParticleSystem spiral = system::spiralConfiguration(100000);
  const AmoebotSystem sys(spiral, ctor);
  const LocalCompressionAlgorithm algo({4.0});
  RejectionFreeIndex index(algo);
  index.rebuild(sys);
  // One byte per particle, two chunk words per 64, the 64 KiB histogram.
  EXPECT_LE(index.memoryBytes(), std::size_t{256} << 10);
  // All contracted, none expanded: the candidates are the (particle,
  // empty neighbour) pairs, 6n − 2e.
  EXPECT_EQ(index.candidateMass(),
            6u * 100000u - 2 * static_cast<std::uint64_t>(
                                   system::countEdges(spiral)));
}

}  // namespace
}  // namespace sops::amoebot

// --- 2. the law -------------------------------------------------------------

namespace sops::amoebot {
namespace {

constexpr int kBurnIn = 50000;
constexpr int kStride = 48;
constexpr double kAcceptP = 0.01;

/// Chi-square of the quiescent configurations a forced-rejection-free
/// runner visits against the exact π(σ) = λ^e/Z over Ω*.
void expectRejectionFreeMatchesPi(int n, int instants, std::uint64_t seed,
                                  std::uint64_t epochLength) {
  const enumeration::ExactEnsemble ensemble(n);
  const double lambda = 2.0;
  std::unordered_map<std::string, std::size_t> indexOf;
  for (std::size_t i = 0; i < ensemble.configs().size(); ++i) {
    indexOf.emplace(
        system::canonicalKeyFromPoints(ensemble.configs()[i].points), i);
  }
  rng::Random ctor(seed);
  AmoebotSystem sys(system::lineConfiguration(n), ctor);
  const LocalCompressionAlgorithm algo({lambda});
  ShardedOptions options;
  options.threads = 1;
  options.targetEventsPerEpoch = epochLength;
  ShardedPoissonRunner runner(sys, algo, seed + 1, options);
  runner.forceRejectionFreeForTest();
  runner.runAtLeast(kBurnIn);
  std::vector<double> counts(ensemble.configs().size(), 0.0);
  int skipBursts = 0;
  for (int s = 0; s < instants; ++s) {
    const std::uint64_t skipsBefore = runner.sweepActivations();
    runner.runAtLeast(kStride);
    if (runner.sweepActivations() != skipsBefore) ++skipBursts;
    if (sys.expandedCount() != 0) continue;  // quiescent instants only
    const auto it = indexOf.find(system::canonicalKey(sys.tailConfiguration()));
    ASSERT_NE(it, indexOf.end()) << "rejection-free runner left Ω*";
    counts[it->second] += 1.0;
  }
  EXPECT_EQ(runner.rejectionFreeEpochs() * epochLength, runner.activations());
  const double share = static_cast<double>(skipBursts) / instants;
  std::printf("bursts with a skip: %.2f%%\n", 100.0 * share);
  EXPECT_GE(share, 0.03);
  double total = 0.0;
  for (const double c : counts) total += c;
  ASSERT_GT(total, 1000.0) << "not enough quiescent samples";
  const analysis::ChiSquareResult gof =
      analysis::chiSquareGoodnessOfFit(counts, ensemble.stationary(lambda));
  std::printf("chi-square p = %.3f (%.0f samples)\n", gof.pValue, total);
  EXPECT_GT(gof.pValue, kAcceptP)
      << "chi2 = " << gof.statistic << ", dof = " << gof.dof
      << ", samples = " << total;
}

TEST(AmoebotRejectionFreeDistribution, MatchesExactPiN4) {
  expectRejectionFreeMatchesPi(4, 120000, 2203, 6);
}

TEST(AmoebotRejectionFreeDistribution, MatchesExactPiN5) {
  expectRejectionFreeMatchesPi(5, 200000, 2303, 6);
}

TEST(AmoebotRejectionFreeDistribution, TruncatedEpochsMatchExactPi) {
  // Three activations per epoch: a geometric run rarely fits, so nearly
  // every epoch ends by cutting one — the memorylessness the truncation
  // relies on is what this weighs.
  expectRejectionFreeMatchesPi(5, 200000, 2503, 3);
}

/// Two-sample KS of the perimeter, the skip count and every outcome tally
/// between `replicas` rejection-free runs and as many runs of the
/// list-order oracle (the block path's law, bit for bit) from `start`,
/// `epochs` epochs of `length` activations each at λ = 4.
void expectRejectionFreeMatchesListOrderKS(const ParticleSystem& start,
                                           std::uint64_t length, int epochs,
                                           int replicas,
                                           std::uint64_t seedBase) {
  const LocalCompressionAlgorithm algo({4.0});
  constexpr int kObservables = 6;
  const char* const names[kObservables] = {
      "perimeter", "skipped",       "idle",
      "expanded",  "moved to head", "contracted back"};
  std::vector<double> samples[kObservables][2];
  for (int side = 0; side < 2; ++side) {
    for (int r = 0; r < replicas; ++r) {
      const std::uint64_t seed =
          seedBase + static_cast<std::uint64_t>(r) * 31 + 100000 * side;
      rng::Random ctor(seed);
      AmoebotSystem sys(start, ctor);
      ShardedOptions options;
      options.threads = 1;
      options.targetEventsPerEpoch = length;
      ShardedPoissonRunner runner(sys, algo, seed + 1, options);
      if (side == 0) {
        runner.forceRejectionFreeForTest();
      } else {
        runner.forceBlockPathForTest();
      }
      runner.runAtLeast(static_cast<std::uint64_t>(epochs) * length);
      ASSERT_EQ(runner.rejectionFreeEpochs(),
                static_cast<std::uint64_t>(side == 0 ? epochs : 0));
      const ActivationTallies& t = runner.tallies();
      ASSERT_EQ(t.idle + t.events() + runner.sweepActivations(),
                runner.activations());
      const double values[kObservables] = {
          static_cast<double>(system::perimeter(sys.tailConfiguration())),
          static_cast<double>(runner.sweepActivations()),
          static_cast<double>(t.idle),
          static_cast<double>(t.expanded),
          static_cast<double>(t.movedToHead),
          static_cast<double>(t.contractedBack)};
      for (int k = 0; k < kObservables; ++k) {
        samples[k][side].push_back(values[k]);
      }
    }
  }
  for (int k = 0; k < kObservables; ++k) {
    const analysis::KsResult ks =
        analysis::ksTwoSample(samples[k][0], samples[k][1]);
    std::printf("%s: KS p = %.3f\n", names[k], ks.pValue);
    EXPECT_GT(ks.pValue, 0.001) << names[k] << ": D = " << ks.statistic;
  }
}

TEST(AmoebotRejectionFreeDistribution, MatchesListOrderOracleKS) {
  // The compressed regime at n = 10⁴: 48 replicas per side from the same
  // spiral, six epochs each.
  expectRejectionFreeMatchesListOrderKS(system::spiralConfiguration(10000),
                                        20000, 6, 48, 7000);
}

TEST(AmoebotRejectionFreeDistribution, MatchesListOrderOracleAcrossABlockLine) {
  // A 130-particle line spans more than a block, so every epoch cuts it
  // at an x block line and a few of its candidates cross: the skip count
  // and the outcome tallies then weigh the thinning, which the π tests
  // cannot see (executing a crossing candidate instead of skipping it
  // still samples π).
  expectRejectionFreeMatchesListOrderKS(system::lineConfiguration(130), 260,
                                        4, 300, 9000);
}

}  // namespace
}  // namespace sops::amoebot

// --- 3. routing -------------------------------------------------------------

namespace sops::amoebot {
namespace {

/// Everything two runs can disagree on, the routing count included.
struct Signature {
  std::vector<TriPoint> tails;
  std::vector<TriPoint> heads;
  std::vector<bool> flags;
  ActivationTallies tallies;
  std::uint64_t activations = 0;
  std::uint64_t sweepActivations = 0;
  std::uint64_t rejectionFreeEpochs = 0;
  double now = 0.0;

  bool operator==(const Signature& other) const {
    return tails == other.tails && heads == other.heads &&
           flags == other.flags && tallies.idle == other.tallies.idle &&
           tallies.expanded == other.tallies.expanded &&
           tallies.movedToHead == other.tallies.movedToHead &&
           tallies.contractedBack == other.tallies.contractedBack &&
           activations == other.activations &&
           sweepActivations == other.sweepActivations &&
           rejectionFreeEpochs == other.rejectionFreeEpochs &&
           now == other.now;
  }
};

Signature signatureOf(const AmoebotSystem& sys,
                      const ShardedPoissonRunner& runner) {
  Signature sig;
  for (std::size_t id = 0; id < sys.size(); ++id) {
    sig.tails.push_back(sys.particle(id).tail);
    sig.heads.push_back(sys.particle(id).head);
    sig.flags.push_back(sys.particle(id).flag);
  }
  sig.tallies = runner.tallies();
  sig.activations = runner.activations();
  sig.sweepActivations = runner.sweepActivations();
  sig.rejectionFreeEpochs = runner.rejectionFreeEpochs();
  sig.now = runner.now();
  return sig;
}

ShardedOptions withThreads(unsigned threads) {
  ShardedOptions options;
  options.threads = threads;
  return options;
}

TEST(AmoebotRejectionFreeRouting, DefaultRunnerRoutesCompressedEpochs) {
  // A 10⁴ spiral at λ = 4: the first epoch runs on the block path, every
  // later one rejection-free; the test-only hook keeps all on the block
  // path.
  const LocalCompressionAlgorithm algo({4.0});
  const ParticleSystem spiral = system::spiralConfiguration(10000);
  rng::Random ctor(41);
  AmoebotSystem sys(spiral, ctor);
  ShardedPoissonRunner routed(sys, algo, 1213, withThreads(4));
  routed.runAtLeast(6 * 20000);
  EXPECT_EQ(routed.rejectionFreeEpochs(), 5u);
  rng::Random ctor2(41);
  AmoebotSystem blockSys(spiral, ctor2);
  ShardedPoissonRunner block(blockSys, algo, 1213, withThreads(4));
  block.forceBlockPathForTest();
  block.runAtLeast(6 * 20000);
  EXPECT_EQ(block.rejectionFreeEpochs(), 0u);
  EXPECT_EQ(block.activations(), routed.activations());
}

TEST(AmoebotRejectionFreeRouting, TrajectoryIndependentOfThreadCountAndResume) {
  // A 2·10⁴ spiral at λ = 4 has far fewer than L/64 non-Idle activations
  // per epoch, so every epoch after the first routes rejection-free.
  // Each thread count runs six epochs, snapshots, resumes at another
  // count and runs six more; every run must end on the list-order run's
  // state.
  const LocalCompressionAlgorithm algo({4.0});
  const ParticleSystem spiral = system::spiralConfiguration(20000);
  const auto runWith = [&](unsigned threads, unsigned resumeThreads) {
    rng::Random ctor(43);
    AmoebotSystem sys(spiral, ctor);
    ShardedPoissonRunner runner(sys, algo, 3301, withThreads(threads));
    runner.runAtLeast(6 * 40000);
    system::SnapshotWriter w;
    sys.saveState(w);
    runner.saveState(w);
    rng::Random other(47);  // restore overwrites its draws
    AmoebotSystem resumedSys(spiral, other);
    ShardedPoissonRunner resumed(resumedSys, algo, 3301,
                                 withThreads(resumeThreads));
    system::SnapshotReader r(w.payload());
    resumedSys.restoreState(r);
    resumed.restoreState(r);
    r.finish();
    resumed.runAtLeast(6 * 40000);
    EXPECT_TRUE(system::isConnected(resumedSys.tailConfiguration()));
    return signatureOf(resumedSys, resumed);
  };
  const Signature oracle = runWith(1, 1);
  EXPECT_EQ(oracle.rejectionFreeEpochs, 11u);
  EXPECT_GT(oracle.sweepActivations, 0u);
  EXPECT_GT(oracle.tallies.events(), 0u);
  EXPECT_TRUE(runWith(2, 4) == oracle);
  EXPECT_TRUE(runWith(4, 3) == oracle);
  EXPECT_TRUE(runWith(3, 2) == oracle);
}

TEST(AmoebotRejectionFreeRouting, BusyEpochsStayOnTheBlockPath) {
  // A 2000-particle line at λ = 4 is far from compressed: more than L/64
  // of its activations move something, so the route never leaves the
  // block path and runs the trajectory of the runner pinned to it.
  const LocalCompressionAlgorithm algo({4.0});
  const ParticleSystem line = system::lineConfiguration(2000);
  rng::Random ctor(53);
  AmoebotSystem sys(line, ctor);
  ShardedPoissonRunner routed(sys, algo, 3401, withThreads(2));
  rng::Random ctor2(53);
  AmoebotSystem plainSys(line, ctor2);
  ShardedPoissonRunner plain(plainSys, algo, 3401, withThreads(2));
  plain.forceBlockPathForTest();
  routed.runAtLeast(8 * 4000);
  plain.runAtLeast(8 * 4000);
  EXPECT_EQ(routed.rejectionFreeEpochs(), 0u);
  EXPECT_GT(routed.tallies().events() * kAmoebotRejectionFreeDivisor,
            routed.activations());
  EXPECT_TRUE(signatureOf(sys, routed) == signatureOf(plainSys, plain));
}

TEST(AmoebotRejectionFreeRouting, OlderPayloadsRestoreOnTheBlockPath) {
  // A v5/v6 amoebot payload is a v7 payload without the six words of
  // tallies and routing state: it restores with the tallies at zero and
  // the first epoch on the block path.
  const LocalCompressionAlgorithm algo({4.0});
  const ParticleSystem spiral = system::spiralConfiguration(20000);
  constexpr std::uint64_t kLength = 40000;  // L = 2n
  rng::Random ctor(59);
  AmoebotSystem sys(spiral, ctor);
  ShardedPoissonRunner runner(sys, algo, 3501, withThreads(2));
  runner.runAtLeast(4 * kLength);
  ASSERT_GT(runner.rejectionFreeEpochs(), 0u);
  system::SnapshotWriter w;
  sys.saveState(w);
  runner.saveState(w);
  const std::vector<std::uint8_t> old(w.payload().begin(),
                                      w.payload().end() - 6 * 8);
  for (const std::uint32_t version : {5u, 6u}) {
    rng::Random other(61);
    AmoebotSystem resumedSys(spiral, other);
    ShardedPoissonRunner resumed(resumedSys, algo, 3501, withThreads(2));
    system::SnapshotReader r(old, version);
    resumedSys.restoreState(r);
    resumed.restoreState(r);
    r.finish();
    EXPECT_EQ(resumed.rejectionFreeEpochs(), 0u) << version;
    EXPECT_EQ(resumed.tallies().events() + resumed.tallies().idle, 0u);
    EXPECT_EQ(resumed.activations(), runner.activations()) << version;
    EXPECT_EQ(resumed.sweepActivations(), runner.sweepActivations());
    resumed.runAtLeast(kLength);  // the first epoch after the resume: block
    EXPECT_EQ(resumed.rejectionFreeEpochs(), 0u) << version;
    resumed.runAtLeast(kLength);
    EXPECT_EQ(resumed.rejectionFreeEpochs(), 1u) << version;
    EXPECT_TRUE(system::isConnected(resumedSys.tailConfiguration()));
  }
}

}  // namespace
}  // namespace sops::amoebot

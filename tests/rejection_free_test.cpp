// Rejection-free epochs (core/rejection_free.hpp) and the sharded runner's
// epoch routing (core/sharded_chain_runner.hpp).
//
//  1. The index: after every accepted move its incrementally kept codes,
//     per-code counts, chunk counts, Fenwick trees and crossing counts
//     equal a from-scratch rebuild — on flat and tiled systems, for the
//     paper's chain and its ablations; the band scan
//     equals the particle-by-particle crossing count; the memory budget.
//  2. The law: a rejection-free epoch samples the block-path epoch's law.
//     Chi-square of visited configurations against exact π at n = 4, 5, 6
//     (and at 3-proposal epochs, where nearly every geometric run is cut
//     at the epoch end); two-sample KS of e(σ), the perimeter, the
//     boundary-reject count and every stage tally against the list-order
//     oracle at n = 10⁴.
//  3. Routing: the default runner never leaves the block path; with
//     routing on, the trajectory — and the rejection-free epoch count — is
//     identical at every thread count and across a snapshot at a different
//     thread count; v5 payloads restore.
//
// Pre-registered design of the distributional tests (as in
// tests/sharded_chain_test.cpp): burn-in 50,000 proposals; one sample per
// 96 proposals (eight 12-proposal epochs); chi-square p > 0.01 with cells
// below 5 expected pooled; KS p > 0.001 per observable; fixed seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/stats.hpp"
#include "core/block_executor.hpp"
#include "core/rejection_free.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "enumeration/exact_distribution.hpp"
#include "system/canonical.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "system/snapshot.hpp"

namespace sops::core {
namespace {

using Runner = ShardedChainRunner<CompressionModel>;

Runner makeRunner(system::ParticleSystem initial, const ChainOptions& options,
                  std::uint64_t seed, unsigned threads,
                  std::uint64_t epochLength = 0) {
  ShardedChainOptions sharded;
  sharded.threads = threads;
  sharded.targetEventsPerEpoch = epochLength;
  return Runner(std::move(initial), CompressionModel(options), seed, sharded);
}

// --- 1. the index -----------------------------------------------------------

TEST(RejectionFreeIndex, MatchesRebuildAfterEveryAcceptedMove) {
  enum class Backend { Flat, Tiled };
  struct Ablation {
    const char* name;
    ChainOptions options;
  };
  std::vector<Ablation> ablations(4);
  ablations[0].name = "paper";
  ablations[1].name = "greedy";
  ablations[1].options.greedy = true;
  ablations[2].name = "properties=false";
  ablations[2].options.enforceProperties = false;
  ablations[3].name = "property2=false";
  ablations[3].options.allowProperty2 = false;
  for (const Ablation& ablation : ablations) {
    std::vector<std::uint64_t> acceptedByBackend;
    for (const Backend backend : {Backend::Flat, Backend::Tiled}) {
      // A 150-particle line at λ = 4 in 1500-proposal epochs: dozens of
      // accepted moves (a handful under greedy), each followed by a full
      // comparison (verifyEachMove throws on the first drift).
      system::ParticleSystem line = system::lineConfiguration(150);
      if (backend == Backend::Tiled) line.forceTiledForTest();
      Runner runner =
          makeRunner(std::move(line), ablation.options, 4001, 1, 1500);
      runner.forceRejectionFreeForTest(/*verifyEachMove=*/true);
      ASSERT_NO_THROW(runner.runAtLeast(16 * 1500)) << ablation.name;
      EXPECT_EQ(runner.rejectionFreeEpochs(), 16u) << ablation.name;
      EXPECT_EQ(runner.stats().steps, 16u * 1500u) << ablation.name;
      EXPECT_EQ(runner.edges(), system::countEdges(runner.system()))
          << ablation.name;
      acceptedByBackend.push_back(runner.stats().movement.accepted);
    }
    EXPECT_GT(acceptedByBackend[0], 5u) << ablation.name;
    // The crossing counts are exact on every backend, so the draws — and
    // the trajectory — do not depend on it.
    EXPECT_EQ(acceptedByBackend[1], acceptedByBackend[0]) << ablation.name;
  }
}

TEST(RejectionFreeIndex, BandScanMatchesParticleScan) {
  // A 10⁵ spiral on a flat grid crosses several block lines in both axes
  // under every offset; the word-parallel band scan must count exactly
  // the crossing pairs the per-particle definition does, code by code.
  const system::ParticleSystem spiral = system::spiralConfiguration(100000);
  ASSERT_FALSE(spiral.grid().tiled());
  ChainOptions options;
  RejectionFreeIndex index(buildDecisionTable(options), false, 1);
  index.rebuild(spiral);
  for (std::uint64_t e = 0; e < 48; ++e) {
    const BlockEpoch ep = BlockEpoch::draw(77, e);
    index.countCrossingsByBands(spiral, ep);
    const PairCounts bands = index.crossingCounts();
    index.countCrossingsByParticles(spiral, ep);
    EXPECT_EQ(bands, index.crossingCounts()) << "epoch " << e;
    EXPECT_GT(bands[kPairOccupied], 1000u);
  }
}

TEST(RejectionFreeIndex, FitsTheMemoryBudgetAtN1e5) {
  const system::ParticleSystem spiral = system::spiralConfiguration(100000);
  ChainOptions options;
  RejectionFreeIndex index(buildDecisionTable(options), false, 1);
  index.rebuild(spiral);
  EXPECT_LE(index.memoryBytes(), std::size_t{1} << 20);
  // Occupied pairs are the edges counted from both ends.
  EXPECT_EQ(index.counts()[kPairOccupied],
            2 * static_cast<std::uint64_t>(system::countEdges(spiral)));
  std::uint64_t pairs = 0;
  for (const std::uint64_t c : index.counts()) pairs += c;
  EXPECT_EQ(pairs, 6u * 100000u);
}

}  // namespace
}  // namespace sops::core

// --- 2. the law -------------------------------------------------------------

namespace sops::core {
namespace {

constexpr int kBurnIn = 50000;
constexpr int kStride = 96;
constexpr double kAcceptP = 0.01;

/// Chi-square of the configurations a forced-rejection-free runner visits
/// against the exact π(σ) = λ^e/Z over Ω*.
void expectRejectionFreeMatchesPi(int n, int instants, std::uint64_t seed,
                                  std::uint64_t epochLength) {
  const enumeration::ExactEnsemble ensemble(n);
  const double lambda = 2.0;
  std::unordered_map<std::string, std::size_t> indexOf;
  for (std::size_t i = 0; i < ensemble.configs().size(); ++i) {
    indexOf.emplace(
        system::canonicalKeyFromPoints(ensemble.configs()[i].points), i);
  }
  ChainOptions options;
  options.lambda = lambda;
  Runner runner =
      makeRunner(system::lineConfiguration(n), options, seed, 1, epochLength);
  runner.forceRejectionFreeForTest();
  runner.runAtLeast(kBurnIn);
  std::vector<double> counts(ensemble.configs().size(), 0.0);
  int boundaryBursts = 0;
  for (int s = 0; s < instants; ++s) {
    const std::uint64_t rejectsBefore = runner.sweepEvents();
    runner.runAtLeast(kStride);
    if (runner.sweepEvents() != rejectsBefore) ++boundaryBursts;
    const auto it = indexOf.find(system::canonicalKey(runner.system()));
    ASSERT_NE(it, indexOf.end()) << "rejection-free runner left Ω*";
    counts[it->second] += 1.0;
  }
  EXPECT_EQ(runner.rejectionFreeEpochs(), runner.epochs());
  const double share = static_cast<double>(boundaryBursts) / instants;
  std::printf("bursts with a boundary rejection: %.2f%%\n", 100.0 * share);
  EXPECT_GE(share, 0.03);
  const analysis::ChiSquareResult gof =
      analysis::chiSquareGoodnessOfFit(counts, ensemble.stationary(lambda));
  EXPECT_GT(gof.pValue, kAcceptP)
      << "chi2 = " << gof.statistic << ", dof = " << gof.dof;
}

TEST(RejectionFreeDistribution, MatchesExactPiN4) {
  expectRejectionFreeMatchesPi(4, 150000, 2201, 12);
}

TEST(RejectionFreeDistribution, MatchesExactPiN5) {
  expectRejectionFreeMatchesPi(5, 200000, 2301, 12);
}

TEST(RejectionFreeDistribution, MatchesExactPiN6) {
  expectRejectionFreeMatchesPi(6, 400000, 2401, 12);
}

TEST(RejectionFreeDistribution, TruncatedEpochsMatchExactPi) {
  // Three proposals per epoch: a geometric run rarely fits, so nearly
  // every epoch ends by cutting one — the memorylessness the truncation
  // relies on is what this weighs.
  expectRejectionFreeMatchesPi(5, 200000, 2501, 3);
}

TEST(RejectionFreeDistribution, MatchesListOrderOracleKS) {
  // The compressed regime at n = 10⁴: R independent replicas per side
  // from the same spiral, k epochs each; the rejection-free side against
  // the list-order oracle (the block path's law, bit for bit).  e(σ), the
  // perimeter, the boundary-reject count and every stage tally of
  // EngineStats, each by two-sample KS.
  const std::int64_t n = 10000;
  constexpr int kReplicas = 48;
  constexpr int kEpochs = 6;
  constexpr std::uint64_t kLength = 2 * n;
  ChainOptions options;
  options.lambda = 4.0;
  constexpr int kObservables = 8;
  const char* const names[kObservables] = {
      "e(sigma)", "perimeter",    "boundary rejects",  "accepted",
      "occupied", "rejected gap", "rejected property", "rejected filter"};
  std::vector<double> samples[kObservables][2];
  for (int side = 0; side < 2; ++side) {
    for (int r = 0; r < kReplicas; ++r) {
      Runner runner =
          makeRunner(system::spiralConfiguration(n), options,
                     7000 + static_cast<std::uint64_t>(r) * 31 + 100000 * side,
                     1, kLength);
      if (side == 0) {
        runner.forceRejectionFreeForTest();
      } else {
        runner.forceBlockPathForTest();
      }
      runner.runAtLeast(kEpochs * kLength);
      ASSERT_EQ(runner.rejectionFreeEpochs(),
                static_cast<std::uint64_t>(side == 0 ? kEpochs : 0));
      const ChainStats& m = runner.stats().movement;
      ASSERT_EQ(runner.stats().steps, m.steps + runner.sweepEvents());
      const double values[kObservables] = {
          static_cast<double>(runner.edges()),
          static_cast<double>(system::perimeter(runner.system())),
          static_cast<double>(runner.sweepEvents()),
          static_cast<double>(m.accepted),
          static_cast<double>(m.targetOccupied),
          static_cast<double>(m.rejectedGap),
          static_cast<double>(m.rejectedProperty),
          static_cast<double>(m.rejectedFilter)};
      for (int k = 0; k < kObservables; ++k) {
        samples[k][side].push_back(values[k]);
      }
    }
  }
  for (int k = 0; k < kObservables; ++k) {
    const analysis::KsResult ks =
        analysis::ksTwoSample(samples[k][0], samples[k][1]);
    EXPECT_GT(ks.pValue, 0.001) << names[k] << ": D = " << ks.statistic;
  }
}

}  // namespace
}  // namespace sops::core

// --- 3. routing -------------------------------------------------------------

namespace sops::core {
namespace {

/// Everything two runs can disagree on, including the routing count.
struct Signature {
  std::vector<TriPoint> positions;
  std::int64_t edges = 0;
  EngineStats stats;
  std::uint64_t sweepEvents = 0;
  std::uint64_t rejectionFreeEpochs = 0;

  bool operator==(const Signature& other) const {
    return positions == other.positions && edges == other.edges &&
           std::memcmp(&stats, &other.stats, sizeof(EngineStats)) == 0 &&
           sweepEvents == other.sweepEvents &&
           rejectionFreeEpochs == other.rejectionFreeEpochs;
  }
};

Signature signatureOf(const Runner& runner) {
  return {runner.system().positions(), runner.edges(), runner.stats(),
          runner.sweepEvents(), runner.rejectionFreeEpochs()};
}

TEST(RejectionFreeRouting, DefaultRunnerRoutesCompressedEpochs) {
  // A 10⁴ spiral at λ = 4: the first epoch runs on the block path, every
  // later one rejection-free; the test-only hook keeps all on the block
  // path.
  ChainOptions options;
  const system::ParticleSystem spiral = system::spiralConfiguration(10000);
  Runner routed = makeRunner(spiral, options, 1213, 4);
  routed.runAtLeast(6 * 20000);
  EXPECT_EQ(routed.epochs(), 6u);
  EXPECT_EQ(routed.rejectionFreeEpochs(), 5u);
  Runner block = makeRunner(spiral, options, 1213, 4);
  block.forceBlockPathForTest();
  block.runAtLeast(6 * 20000);
  EXPECT_EQ(block.epochs(), 6u);
  EXPECT_EQ(block.rejectionFreeEpochs(), 0u);
}

TEST(RejectionFreeRouting, TrajectoryIndependentOfThreadCountAndResume) {
  // A 2·10⁴ spiral at λ = 4 accepts far fewer than L/256 moves per epoch,
  // so every epoch after the first routes rejection-free.  Each thread
  // count runs six epochs, snapshots, resumes at another count and runs
  // six more; every run must end on the list-order run's state.
  ChainOptions options;
  const system::ParticleSystem spiral = system::spiralConfiguration(20000);
  const auto runWith = [&](unsigned threads, unsigned resumeThreads) {
    Runner runner = makeRunner(spiral, options, 3301, threads);
    runner.runAtLeast(6 * 40000);
    system::SnapshotWriter w;
    runner.saveState(w);
    Runner resumed = makeRunner(spiral, options, 3301, resumeThreads);
    system::SnapshotReader r(w.payload());
    resumed.restoreState(r);
    r.finish();
    resumed.runAtLeast(6 * 40000);
    EXPECT_EQ(resumed.edges(), system::countEdges(resumed.system()));
    EXPECT_TRUE(system::isConnected(resumed.system()));
    return signatureOf(resumed);
  };
  const Signature oracle = runWith(1, 1);
  EXPECT_EQ(oracle.rejectionFreeEpochs, 11u);
  EXPECT_GT(oracle.sweepEvents, 0u);
  EXPECT_TRUE(runWith(2, 4) == oracle);
  EXPECT_TRUE(runWith(4, 3) == oracle);
  EXPECT_TRUE(runWith(3, 2) == oracle);
}

TEST(RejectionFreeRouting, HighAcceptanceEpochsStayOnTheBlockPath) {
  // A spiral at λ = 1 accepts about 2.5% of its proposals, more than
  // L/256 per epoch: the route never leaves the block path, so it runs
  // the trajectory of the runner pinned to the block path.
  ChainOptions options;
  options.lambda = 1.0;
  Runner routed =
      makeRunner(system::spiralConfiguration(3000), options, 3401, 2);
  Runner plain =
      makeRunner(system::spiralConfiguration(3000), options, 3401, 2);
  plain.forceBlockPathForTest();
  routed.runAtLeast(8 * 6000);
  plain.runAtLeast(8 * 6000);
  EXPECT_EQ(routed.rejectionFreeEpochs(), 0u);
  EXPECT_TRUE(signatureOf(routed) == signatureOf(plain));
}

TEST(RejectionFreeRouting, VersionFivePayloadRestoresOnTheBlockPath) {
  // A v5 payload is a v6 payload without the two routing words.
  ChainOptions options;
  const system::ParticleSystem spiral = system::spiralConfiguration(20000);
  constexpr std::uint64_t kLength = 40000;  // L = 2n
  Runner runner = makeRunner(spiral, options, 3501, 2);
  runner.runAtLeast(4 * kLength);
  ASSERT_GT(runner.rejectionFreeEpochs(), 0u);
  system::SnapshotWriter w;
  runner.saveState(w);
  std::vector<std::uint8_t> v5(w.payload().begin(), w.payload().end() - 16);
  Runner resumed = makeRunner(spiral, options, 3501, 2);
  system::SnapshotReader r(v5, 5);
  resumed.restoreState(r);
  r.finish();
  EXPECT_EQ(resumed.rejectionFreeEpochs(), 0u);
  EXPECT_EQ(resumed.epochs(), runner.epochs());
  resumed.runAtLeast(kLength);  // the first epoch after a v5 resume: block
  EXPECT_EQ(resumed.rejectionFreeEpochs(), 0u);
  resumed.runAtLeast(kLength);
  EXPECT_EQ(resumed.rejectionFreeEpochs(), 1u);
  EXPECT_EQ(resumed.edges(), system::countEdges(resumed.system()));
}

}  // namespace
}  // namespace sops::core

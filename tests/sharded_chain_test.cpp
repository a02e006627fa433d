// The sharded chain runner's two contracts (core/sharded_chain_runner.hpp):
//
//  1. Determinism: the trajectory is a pure function of the seed.  The
//     block path at any thread count must equal, bit for bit, the
//     threads == 1 path that runs the epoch's proposal list in list order
//     — the oracle — for all three weight models, on configurations that
//     straddle many block boundaries, and across a kill-and-resume.  These
//     tests run under TSan in CI (suite ShardedChain is in the tsan job's
//     filter), so the word-disjoint block discipline is also checked for
//     data races, not just outcomes.
//
//  2. Distribution: every executed proposal is a π-reversible Metropolis
//     kernel (the boundary rule is symmetric), so the runner samples the
//     exact π.  At enumerable sizes the exact π is available; beyond them
//     the sequential engine is the reference.
//
// Pre-registered design for the distributional tests (fixed before
// looking at outcomes, matching tests/local_vs_chain_test.cpp):
//   - burn-in 50,000 proposals; one sample every 96 proposals (eight
//     epochs of 12); 150,000 samples at n = 4 (44 states), 200,000 at
//     n = 5 (186);
//   - expected cells below 5 pooled (Cochran, the stats.hpp default);
//   - acceptance: chi-square p > 0.01; two-sample KS p > 0.001;
//   - fixed seeds, so the tests are reproducible rather than flaky.
// The chi-square assumes independent samples.  One epoch per sample is
// not enough: a small configuration at a block edge has most proposals
// of the epoch rejected, so the next sample repeats the last far more
// often than the sequential chain's would.  That inflated the statistic
// without biasing it (alignment at n = 3: chi2 ≈ 2650 on 2375 dof at
// both 120k and 1.2M samples — a bias would have grown tenfold); spread
// over eight epochs, each with fresh block offsets, the statistic sits at
// its dof again.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "analysis/stats.hpp"
#include "core/block_executor.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "enumeration/exact_distribution.hpp"
#include "system/canonical.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace sops::core {
namespace {

using system::ParticleSystem;

// --- determinism across thread counts --------------------------------------

/// Everything one run can disagree on: per-id positions (stronger than
/// arrangement equality), the model's per-particle classes, the tracked
/// edge count, the full outcome tally, and the boundary-reject count.
struct RunSignature {
  std::vector<TriPoint> positions;
  std::vector<std::uint8_t> classes;
  std::int64_t edges = 0;
  EngineStats stats;
  std::uint64_t sweepEvents = 0;

  bool operator==(const RunSignature& other) const {
    return positions == other.positions && classes == other.classes &&
           edges == other.edges &&
           std::memcmp(&stats, &other.stats, sizeof(EngineStats)) == 0 &&
           sweepEvents == other.sweepEvents;
  }
};

template <typename Model>
std::vector<std::uint8_t> classesOf(const Model& model) {
  if constexpr (std::is_same_v<Model, SeparationModel>) {
    return model.colors();
  } else if constexpr (std::is_same_v<Model, AlignmentModel>) {
    return model.orientations();
  } else {
    return {};
  }
}

template <typename Model>
RunSignature signatureOf(const ShardedChainRunner<Model>& runner) {
  RunSignature sig;
  sig.positions = runner.system().positions();
  sig.classes = classesOf(runner.model());
  sig.edges = runner.edges();
  sig.stats = runner.stats();
  sig.sweepEvents = runner.sweepEvents();
  return sig;
}

/// Runs `runner` in three bursts (crossing several epoch barriers and
/// index suspend/restore cycles) and checks the bookkeeping invariants
/// every run must keep exactly: tracked e(σ) vs a full recount, and
/// connectivity (every executed event is a legal move of the model).
template <typename Model>
RunSignature runAndCheck(ShardedChainRunner<Model>& runner,
                         std::uint64_t events) {
  for (int burst = 0; burst < 3; ++burst) runner.runAtLeast(events / 3);
  EXPECT_EQ(runner.edges(), system::countEdges(runner.system()));
  EXPECT_TRUE(system::isConnected(runner.system()));
  return signatureOf(runner);
}

/// The thread counts the contract quantifies over: list order, small pool,
/// a count coprime to any block structure, and whatever this host has.
std::vector<unsigned> contractThreadCounts() {
  return {1u, 2u, 7u, std::max(1u, std::thread::hardware_concurrency())};
}

TEST(ShardedChain, CompressionTrajectoryIndependentOfThreadCount) {
  // n = 300 line: it spans three 128-column blocks, so the start
  // straddles block boundaries and the boundary rule stays busy all run.
  ChainOptions options;
  options.lambda = 4.0;
  std::vector<RunSignature> signatures;
  for (const unsigned threads : contractThreadCounts()) {
    ShardedChainOptions sharded;
    sharded.threads = threads;
    ShardedChainRunner<CompressionModel> runner(
        system::lineConfiguration(300), CompressionModel(options), 9001,
        sharded);
    signatures.push_back(runAndCheck(runner, 120000));
    EXPECT_GT(signatures.back().sweepEvents, 0u);
    EXPECT_LT(signatures.back().sweepEvents, signatures.back().stats.steps);
  }
  for (std::size_t i = 1; i < signatures.size(); ++i) {
    EXPECT_TRUE(signatures[i] == signatures[0]) << "thread count #" << i;
  }
}

TEST(ShardedChain, SeparationTrajectoryIndependentOfThreadCount) {
  SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  std::vector<RunSignature> signatures;
  std::vector<std::vector<std::uint8_t>> colorings;
  for (const unsigned threads : contractThreadCounts()) {
    ShardedChainOptions sharded;
    sharded.threads = threads;
    ShardedChainRunner<SeparationModel> runner(
        system::lineConfiguration(300),
        SeparationModel(options, system::alternatingClasses(300, 2)), 9007,
        sharded);
    signatures.push_back(runAndCheck(runner, 120000));
    colorings.push_back(runner.model().colors());
    EXPECT_GT(runner.stats().auxAccepted, 0u);  // swaps actually exercised
  }
  for (std::size_t i = 1; i < signatures.size(); ++i) {
    EXPECT_TRUE(signatures[i] == signatures[0]) << "thread count #" << i;
    EXPECT_EQ(colorings[i], colorings[0]) << "thread count #" << i;
  }
}

TEST(ShardedChain, AlignmentTrajectoryIndependentOfThreadCount) {
  AlignmentModel::Options options;
  options.lambda = 4.0;
  options.kappa = 4.0;
  std::vector<RunSignature> signatures;
  std::vector<std::vector<std::uint8_t>> orientations;
  for (const unsigned threads : contractThreadCounts()) {
    ShardedChainOptions sharded;
    sharded.threads = threads;
    ShardedChainRunner<AlignmentModel> runner(
        system::lineConfiguration(300),
        AlignmentModel(options, system::alternatingClasses(300, 6)), 9011,
        sharded);
    signatures.push_back(runAndCheck(runner, 120000));
    orientations.push_back(runner.model().orientations());
    EXPECT_GT(runner.stats().auxAccepted, 0u);  // rotations exercised
  }
  for (std::size_t i = 1; i < signatures.size(); ++i) {
    EXPECT_TRUE(signatures[i] == signatures[0]) << "thread count #" << i;
    EXPECT_EQ(orientations[i], orientations[0]) << "thread count #" << i;
  }
}

TEST(ShardedChain, IdPlaneOverflowRunsStripedOnPagedPlane) {
  // Between ParticleIdPlane::kMaxCells (2^24 cells) and BitGrid's flat cap
  // (2^28 bits) lies a regime where the window is dense but the u32 id
  // mirror is too large to allocate flat: the plane switches to its paged
  // backend and the epochs keep running on the block path — block workers
  // resolve swap partners from the pages the coordinator reserved.  A 10k
  // line's window (proportional margins make it ~15100 × 5063 ≈ 76M cells
  // but only ~1.2M words) sits squarely in that regime.
  const std::size_t n = 10000;
  SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  ShardedChainOptions sharded;
  sharded.threads = 2;
  ShardedChainRunner<SeparationModel> runner(
      system::lineConfiguration(static_cast<std::int64_t>(n)),
      SeparationModel(options, system::alternatingClasses(n, 2)), 9017,
      sharded);
  ASSERT_GT(runner.system().grid().width() * runner.system().grid().height(),
            ParticleIdPlane::kMaxCells);
  ASSERT_TRUE(runner.system().grid().enabled());
  const std::uint64_t executed = runner.runAtLeast(50000);
  // The boundary rule rejects only a sliver of the proposals.
  EXPECT_LT(runner.sweepEvents(), executed / 10);
  EXPECT_EQ(runner.stats().steps, executed);
  EXPECT_GT(runner.stats().auxAccepted, 0u);  // swaps resolved partners
  EXPECT_FALSE(runner.system().indexSuspended());
  EXPECT_EQ(runner.edges(), system::countEdges(runner.system()));
}

TEST(ShardedChain, ThreadInvariantAcrossEpochConfigurations) {
  // The contract quantifies over the epoch machinery too: several fixed
  // list lengths (small epochs, derived-scale epochs, big epochs), the
  // derived default, and heterogeneous selection weights must each give a
  // trajectory that is a pure function of the seed.
  struct Config {
    std::uint64_t target;  // 0 = derived
    bool ramped;           // heterogeneous weights?
  };
  const std::size_t n = 300;
  std::vector<double> ramp(n);
  for (std::size_t i = 0; i < n; ++i) {
    ramp[i] = 1.0 + 3.0 * static_cast<double>(i) / static_cast<double>(n - 1);
  }
  for (const Config config :
       {Config{96, false}, Config{2048, false}, Config{16384, false},
        Config{0, false}, Config{0, true}}) {
    std::vector<RunSignature> signatures;
    std::vector<std::uint64_t> targets;
    for (const unsigned threads : {1u, 3u, std::max(
             1u, std::thread::hardware_concurrency())}) {
      ChainOptions options;
      options.lambda = 4.0;
      ShardedChainOptions sharded;
      sharded.threads = threads;
      sharded.targetEventsPerEpoch = config.target;
      if (config.ramped) sharded.rates = ramp;
      ShardedChainRunner<CompressionModel> runner(
          system::lineConfiguration(static_cast<std::int64_t>(n)),
          CompressionModel(options), 9019, sharded);
      signatures.push_back(runAndCheck(runner, 90000));
      targets.push_back(runner.epochTarget());
    }
    for (std::size_t i = 1; i < signatures.size(); ++i) {
      EXPECT_TRUE(signatures[i] == signatures[0])
          << "target " << config.target << " ramped " << config.ramped
          << " thread count #" << i;
      EXPECT_EQ(targets[i], targets[0])
          << "target " << config.target << " ramped " << config.ramped;
    }
    if (config.target != 0) {
      EXPECT_EQ(targets[0], config.target);
    }
  }
}

TEST(ShardedChain, DerivedEpochTargetClampedToCap) {
  // Regression: the derived default target (2n) used to bypass the 2^28
  // guard that explicit targets got, so a hypothetical 2^27-particle
  // system would have produced epochs above the cap (and with it an
  // event-buffer footprint no epoch buffer budgets for).
  // The derivation is a pure function, so the regression pins it
  // directly, plus the floor and the midrange.
  EXPECT_EQ(derivedEpochTarget(1), 1024u);
  EXPECT_EQ(derivedEpochTarget(512), 1024u);
  EXPECT_EQ(derivedEpochTarget(10000), 20000u);
  EXPECT_EQ(derivedEpochTarget(std::uint64_t{1} << 27), kMaxEventsPerEpoch);
  EXPECT_EQ(derivedEpochTarget((std::uint64_t{1} << 27) + 12345),
            kMaxEventsPerEpoch);
  EXPECT_EQ(derivedEpochTarget(std::uint64_t{1} << 40), kMaxEventsPerEpoch);
}

TEST(ShardedChain, CompactShapeTrajectoryIndependentOfThreadCount) {
  // A spiral sits inside a few blocks with the action at the window's
  // interior — the complementary block geometry to the line.
  ChainOptions options;
  options.lambda = 4.0;
  std::vector<RunSignature> signatures;
  for (const unsigned threads : contractThreadCounts()) {
    ShardedChainOptions sharded;
    sharded.threads = threads;
    ShardedChainRunner<CompressionModel> runner(
        system::spiralConfiguration(500), CompressionModel(options), 9013,
        sharded);
    signatures.push_back(runAndCheck(runner, 90000));
  }
  for (std::size_t i = 1; i < signatures.size(); ++i) {
    EXPECT_TRUE(signatures[i] == signatures[0]) << "thread count #" << i;
  }
}

// --- the list-order oracle -------------------------------------------------

/// Runs `make(threads)` for threads == 1 (the list-order oracle) and for
/// every block-path count in {2, 3, 4, hw}, in two bursts with a
/// snapshot/restore into a fresh runner between them, and requires every
/// block-path run to equal the oracle bit for bit.  `minBlocks` is the
/// number of blocks the block path must spread one epoch over.  Returns
/// the oracle's signature.
template <typename MakeRunner>
RunSignature expectBlockPathMatchesOracle(MakeRunner&& make,
                                          std::uint64_t events,
                                          std::size_t minBlocks) {
  const auto runWith = [&](unsigned threads) {
    auto runner = make(threads);
    runner.runAtLeast(events / 2);
    if (threads > 1) {
      EXPECT_GE(runner.lastEpochBlocks(), minBlocks) << "threads " << threads;
    }
    system::SnapshotWriter w;
    runner.saveState(w);
    auto resumed = make(threads == 1 ? 1u : 4u);  // resume across counts
    system::SnapshotReader r(w.payload());
    resumed.restoreState(r);
    r.finish();
    resumed.runAtLeast(events / 2);
    EXPECT_EQ(resumed.edges(), system::countEdges(resumed.system()));
    EXPECT_TRUE(system::isConnected(resumed.system()));
    return signatureOf(resumed);
  };
  const RunSignature oracle = runWith(1);
  for (const unsigned threads :
       {2u, 3u, 4u, std::max(2u, std::thread::hardware_concurrency())}) {
    EXPECT_TRUE(runWith(threads) == oracle) << "threads " << threads;
  }
  return oracle;
}

TEST(ShardedChain, BlockPathMatchesListOrderOracleOnLargeSpiral) {
  // A 1e5 spiral spans ~370 columns and rows: every epoch spreads over
  // at least 8 blocks, with the heavy ones in the middle.
  ChainOptions options;
  options.lambda = 4.0;
  const system::ParticleSystem spiral = system::spiralConfiguration(100000);
  const RunSignature oracle = expectBlockPathMatchesOracle(
      [&](unsigned threads) {
        ShardedChainOptions sharded;
        sharded.threads = threads;
        sharded.targetEventsPerEpoch = 60000;
        ShardedChainRunner<CompressionModel> runner(
            spiral, CompressionModel(options), 9101, sharded);
        runner.forceBlockPathForTest();
        return runner;
      },
      120000, 8);
  EXPECT_GT(oracle.sweepEvents, 0u);
}

TEST(ShardedChain, BlockPathMatchesListOrderOracleForPairMoves) {
  // Separation's swaps and alignment's rotations on a 1e4 line: ~80 blocks
  // in a row, the line on a block-row boundary half the epochs.
  const std::size_t n = 10000;
  SeparationModel::Options separation;
  separation.gamma = 4.0;
  const RunSignature separationOracle = expectBlockPathMatchesOracle(
      [&](unsigned threads) {
        ShardedChainOptions sharded;
        sharded.threads = threads;
        return ShardedChainRunner<SeparationModel>(
            system::lineConfiguration(static_cast<std::int64_t>(n)),
            SeparationModel(separation, system::alternatingClasses(n, 2)),
            9103, sharded);
      },
      80000, 8);
  EXPECT_GT(separationOracle.sweepEvents, 0u);
  AlignmentModel::Options alignment;
  alignment.kappa = 4.0;
  const RunSignature alignmentOracle = expectBlockPathMatchesOracle(
      [&](unsigned threads) {
        ShardedChainOptions sharded;
        sharded.threads = threads;
        return ShardedChainRunner<AlignmentModel>(
            system::lineConfiguration(static_cast<std::int64_t>(n)),
            AlignmentModel(alignment, system::alternatingClasses(n, 6)), 9107,
            sharded);
      },
      80000, 8);
  EXPECT_GT(alignmentOracle.sweepEvents, 0u);
}

TEST(ShardedChain, StoragePrePhaseMatchesListOrderOracle) {
  // A 20-particle line with 4096-proposal epochs: each particle owns ~200
  // proposals, far beyond the flat window's margin or the tiles allocated
  // around it, so the first block epoch leaves its block to the
  // coordinator, which grows the window (flat) or the tiles and id pages
  // (tiled, separation) before running it.  The result must still be
  // the list-order oracle's.
  ChainOptions options;
  options.lambda = 4.0;
  expectBlockPathMatchesOracle(
      [&](unsigned threads) {
        ShardedChainOptions sharded;
        sharded.threads = threads;
        sharded.targetEventsPerEpoch = 4096;
        ShardedChainRunner<CompressionModel> runner(
            system::lineConfiguration(20), CompressionModel(options), 9111,
            sharded);
        runner.forceBlockPathForTest();
        return runner;
      },
      16384, 1);
  SeparationModel::Options separation;
  separation.gamma = 4.0;
  expectBlockPathMatchesOracle(
      [&](unsigned threads) {
        ShardedChainOptions sharded;
        sharded.threads = threads;
        sharded.targetEventsPerEpoch = 4096;
        system::ParticleSystem line = system::lineConfiguration(20);
        line.forceTiledForTest();
        return ShardedChainRunner<SeparationModel>(
            std::move(line),
            SeparationModel(separation, system::alternatingClasses(20, 2)),
            9113, sharded);
      },
      16384, 1);
}

// --- golden pins ------------------------------------------------------------

/// FNV-1a 64 over everything a run can disagree on: per-id positions, the
/// full outcome tally, e(σ) and the boundary-reject count.
template <typename Model>
std::uint64_t trajectoryHash(const ShardedChainRunner<Model>& runner) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ULL;
    }
  };
  for (const TriPoint p : runner.system().positions()) {
    mix(&p.x, sizeof p.x);
    mix(&p.y, sizeof p.y);
  }
  const EngineStats stats = runner.stats();
  mix(&stats, sizeof stats);
  const std::int64_t edges = runner.edges();
  mix(&edges, sizeof edges);
  const std::uint64_t rejects = runner.sweepEvents();
  mix(&rejects, sizeof rejects);
  return h;
}

TEST(ShardedChain, GoldenPinsAtLargeScale) {
  // Fixed trajectories of the block path at sizes where many blocks run
  // in parallel: a refactor of the executor must reproduce them bit for
  // bit.  Four epochs each at the derived L = 2n; the values were
  // recorded from the runner before its block machinery moved into
  // core::BlockExecutor.
  ChainOptions compression;
  compression.lambda = 4.0;
  ShardedChainOptions four;
  four.threads = 4;
  ShardedChainRunner<CompressionModel> spiral(
      system::spiralConfiguration(10000), CompressionModel(compression), 1213,
      four);
  spiral.forceBlockPathForTest();  // compression would route rejection-free
  spiral.runAtLeast(4 * 20000);
  EXPECT_EQ(spiral.epochs(), 4u);
  EXPECT_EQ(trajectoryHash(spiral), 0x2b6295b9f3b907b9ULL);

  SeparationModel::Options separation;
  separation.gamma = 4.0;
  ShardedChainOptions three;
  three.threads = 3;
  ShardedChainRunner<SeparationModel> line(
      system::lineConfiguration(10000),
      SeparationModel(separation, system::alternatingClasses(10000, 2)), 1217,
      three);
  line.runAtLeast(4 * 20000);
  EXPECT_EQ(line.epochs(), 4u);
  EXPECT_EQ(trajectoryHash(line), 0x2b7c67739e6f7f25ULL);
}

TEST(ShardedChain, BoundaryRejectsIndependentOfBurstsAndThreads) {
  // The boundary rule is a pure function of (seed, epoch, proposal
  // cells): cutting the same eight epochs into one burst or eight, on the
  // list-order path or the block path, rejects the same proposals.
  ChainOptions options;
  options.lambda = 4.0;
  const auto rejectsAfter = [&](unsigned threads, int bursts) {
    ShardedChainOptions sharded;
    sharded.threads = threads;
    sharded.targetEventsPerEpoch = 4096;
    ShardedChainRunner<CompressionModel> runner(
        system::lineConfiguration(400), CompressionModel(options), 9109,
        sharded);
    for (int b = 0; b < bursts; ++b) runner.runAtLeast(4096 * 8 / bursts);
    EXPECT_EQ(runner.epochs(), 8u);
    return runner.sweepEvents();
  };
  const std::uint64_t once = rejectsAfter(1, 1);
  EXPECT_GT(once, 0u);
  EXPECT_EQ(rejectsAfter(1, 8), once);
  EXPECT_EQ(rejectsAfter(3, 2), once);
}

}  // namespace
}  // namespace sops::core

// --- distributional validation ---------------------------------------------
// Heavier chains live in their own suite so the TSan job (which runs the
// ShardedChain determinism tests above under a ~10x slowdown) does not
// also pay for millions of distribution-sampling events.

namespace sops::core {
namespace {

constexpr int kBurnIn = 50000;
constexpr int kStride = 96;
constexpr int kEpochsPerSample = 8;
constexpr double kAcceptP = 0.01;
/// Share of sampling bursts that must contain a boundary rejection, so the
/// chi-square actually weighs the rule (the Poisson-clock runner's bursts
/// mixed stripe and sweep events in only 0.75–1.1% of bursts).
constexpr double kMinBoundaryBurstShare = 0.03;

/// Chi-square of the sharded compression runner's visited configurations
/// against the exact π(σ) = λ^e/Z over Ω*.  Each runAtLeast() burst is
/// kEpochsPerSample epochs, each with fresh block offsets.  The runner
/// takes the list-order path (threads = 1): the oracle tests above pin the
/// block path to it bit for bit, and a few particles in 12-proposal epochs
/// would only pay the block path's thread hand-offs.
void expectShardedCompressionMatchesPi(int n, int instants, std::uint64_t seed,
                                       std::vector<double> rates = {}) {
  const enumeration::ExactEnsemble ensemble(n);
  const double lambda = 2.0;
  std::unordered_map<std::string, std::size_t> indexOf;
  for (std::size_t i = 0; i < ensemble.configs().size(); ++i) {
    indexOf.emplace(
        system::canonicalKeyFromPoints(ensemble.configs()[i].points), i);
  }
  ChainOptions options;
  options.lambda = lambda;
  ShardedChainOptions sharded;
  sharded.threads = 1;
  sharded.targetEventsPerEpoch = kStride / kEpochsPerSample;
  sharded.rates = std::move(rates);
  ShardedChainRunner<CompressionModel> runner(
      system::lineConfiguration(n), CompressionModel(options), seed, sharded);
  runner.runAtLeast(kBurnIn);
  std::vector<double> counts(ensemble.configs().size(), 0.0);
  int boundaryBursts = 0;
  for (int s = 0; s < instants; ++s) {
    const std::uint64_t rejectsBefore = runner.sweepEvents();
    runner.runAtLeast(kStride);
    if (runner.sweepEvents() != rejectsBefore) ++boundaryBursts;
    const auto it = indexOf.find(system::canonicalKey(runner.system()));
    ASSERT_NE(it, indexOf.end()) << "sharded runner left the support of pi";
    counts[it->second] += 1.0;
  }
  const double share = static_cast<double>(boundaryBursts) / instants;
  std::printf("bursts with a boundary rejection: %.2f%%\n", 100.0 * share);
  EXPECT_GE(share, kMinBoundaryBurstShare);
  const std::vector<double> exact = ensemble.stationary(lambda);
  double total = 0.0;
  for (const double c : counts) total += c;
  ASSERT_GT(total, 1000.0);
  const analysis::ChiSquareResult gof =
      analysis::chiSquareGoodnessOfFit(counts, exact);
  EXPECT_GT(gof.pValue, kAcceptP)
      << "chi2 = " << gof.statistic << ", dof = " << gof.dof
      << ", samples = " << total;
}

TEST(ShardedChainDistribution, CompressionMatchesExactPiN4) {
  expectShardedCompressionMatchesPi(4, 150000, 1201);
}

TEST(ShardedChainDistribution, CompressionMatchesExactPiN5) {
  expectShardedCompressionMatchesPi(5, 200000, 1301);
}

// Heterogeneous selection weights leave π unchanged: the alias table
// picks particle i with probability r_i / Σr, but a move σ→τ and its
// reverse τ→σ are proposals of the *same* particle (the one that moves),
// so the selection bias cancels pairwise and the Metropolis filter
// min(1, λ^Δe) still balances π(σ) ∝ λ^{e(σ)}.  Only how often each
// transition is tried changes, not the stationary law — so the expected
// chi-square counts are the plain exact π, same as the uniform chain.

TEST(ShardedChainDistribution, HeterogeneousRatesMatchExactPiN4) {
  expectShardedCompressionMatchesPi(4, 150000, 1401, {0.5, 2.0, 1.25, 3.0});
}

TEST(ShardedChainDistribution, HeterogeneousRatesMatchExactPiN5) {
  expectShardedCompressionMatchesPi(5, 200000, 1501,
                                    {1.0, 4.0, 0.25, 2.0, 1.5});
}

TEST(ShardedChainDistribution, PerimeterMatchesSequentialEngineKS) {
  // Beyond enumerable sizes: at n = 10⁴ the sharded runner and the
  // sequential engine must agree on observables.  Each side runs R
  // independent replicas from the same line start for a matched number
  // of events (the sequential replica re-runs the sharded one's exact
  // executed count, absorbing epoch rounding), and the two final-
  // perimeter samples are compared by two-sample KS.  Replicas are
  // independent, so the KS iid assumption is sound.
  const std::int64_t n = 10000;
  const double lambda = 4.0;
  constexpr int kReplicas = 24;
  constexpr std::uint64_t kEvents = 150000;

  std::vector<double> shardedPerimeters;
  std::vector<double> enginePerimeters;
  for (int r = 0; r < kReplicas; ++r) {
    ChainOptions options;
    options.lambda = lambda;
    ShardedChainRunner<CompressionModel> runner(
        system::lineConfiguration(n), CompressionModel(options),
        5000 + static_cast<std::uint64_t>(r) * 13);
    runner.runAtLeast(kEvents);
    shardedPerimeters.push_back(
        static_cast<double>(system::perimeter(runner.system())));

    CompressionEngine engine(system::lineConfiguration(n),
                             CompressionModel(options),
                             9000 + static_cast<std::uint64_t>(r) * 17);
    engine.run(runner.stats().steps);
    enginePerimeters.push_back(
        static_cast<double>(system::perimeter(engine.system())));
  }
  const analysis::KsResult ks =
      analysis::ksTwoSample(shardedPerimeters, enginePerimeters);
  EXPECT_GT(ks.pValue, 0.001) << "D = " << ks.statistic;
}

}  // namespace
}  // namespace sops::core

// Golden-trajectory equivalence for Algorithm A: the optimized amoebot
// layer (bit-plane occupancy, N* ring gathers, per-λ decision table) must
// be *draw-for-draw identical* to the frozen seed kernel in
// amoebot/reference_local_kernel.hpp — same ActivationResult per
// activation, same RNG consumption, same tails/heads/flags — under every
// scheduler, with and without faults, on flat and on tiled planes.  This
// is what keeps the stationary-distribution and
// differential tests meaningful after hot-path rewrites: the optimization
// is required to be a no-op on the trajectory.
//
// The file also pins the sharded runner's determinism contract: the
// trajectory is a pure function of the seed — independent of the worker
// thread count and of snapshot/restore — the block path equals the
// list-order oracle bit for bit, and the boundary rule actually skips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "amoebot/faults.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "amoebot/reference_local_kernel.hpp"
#include "amoebot/scheduler.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "system/snapshot.hpp"

namespace sops::amoebot {
namespace {

using lattice::TriPoint;
using reference::ReferenceAmoebotSystem;
using reference::ReferenceLocalKernel;
using system::ParticleSystem;

void expectSameState(const AmoebotSystem& fast,
                     const ReferenceAmoebotSystem& ref) {
  ASSERT_EQ(fast.size(), ref.size());
  EXPECT_EQ(fast.expandedCount(), ref.expandedCount());
  for (std::size_t id = 0; id < fast.size(); ++id) {
    const Particle& a = fast.particle(id);
    const Particle& b = ref.particle(id);
    ASSERT_EQ(a.tail, b.tail) << "particle " << id;
    ASSERT_EQ(a.head, b.head) << "particle " << id;
    ASSERT_EQ(a.expanded, b.expanded) << "particle " << id;
    ASSERT_EQ(a.flag, b.flag) << "particle " << id;
    ASSERT_EQ(a.orientationOffset, b.orientationOffset) << "particle " << id;
    ASSERT_EQ(a.mirrored, b.mirrored) << "particle " << id;
  }
}

enum class SchedulerKind { Sequential, RoundRobin, Poisson };

void expectGoldenTrajectory(const ParticleSystem& start, double lambda,
                            SchedulerKind kind, std::uint64_t steps,
                            const FaultPlan& faults = {}) {
  // Identically seeded construction draws on both sides.
  rng::Random ctorFast(101);
  rng::Random ctorRef(101);
  AmoebotSystem fast(start, ctorFast);
  ReferenceAmoebotSystem ref(start, ctorRef);
  applyFaults(fast, faults);
  for (const std::size_t id : faults.crashed) ref.markCrashed(id);
  for (const std::size_t id : faults.byzantine) ref.markByzantine(id);

  const LocalCompressionAlgorithm algo({lambda});
  const ReferenceLocalKernel refAlgo({lambda});
  rng::Random coinFast(103);
  rng::Random coinRef(103);

  // One activation stream per side, identically seeded, so any divergence
  // in RNG consumption shows up as a divergence in the stream itself.
  SequentialScheduler seqFast(start.size(), rng::Random(105));
  SequentialScheduler seqRef(start.size(), rng::Random(105));
  RoundRobinScheduler rrFast(start.size(), rng::Random(105));
  RoundRobinScheduler rrRef(start.size(), rng::Random(105));
  PoissonScheduler poiFast(start.size(), rng::Random(105));
  PoissonScheduler poiRef(start.size(), rng::Random(105));

  for (std::uint64_t i = 0; i < steps; ++i) {
    std::size_t idFast = 0;
    std::size_t idRef = 0;
    switch (kind) {
      case SchedulerKind::Sequential:
        idFast = seqFast.next();
        idRef = seqRef.next();
        break;
      case SchedulerKind::RoundRobin:
        idFast = rrFast.next();
        idRef = rrRef.next();
        break;
      case SchedulerKind::Poisson: {
        const Activation a = poiFast.next();
        const Activation b = poiRef.next();
        ASSERT_EQ(a.particle, b.particle) << "scheduler diverged at " << i;
        ASSERT_EQ(a.time, b.time) << "scheduler diverged at " << i;
        idFast = a.particle;
        idRef = b.particle;
        break;
      }
    }
    ASSERT_EQ(idFast, idRef);
    const ActivationResult fastResult = algo.activate(fast, idFast, coinFast);
    const ActivationResult refResult = refAlgo.activate(ref, idRef, coinRef);
    ASSERT_EQ(fastResult, refResult) << "activation " << i;
  }
  expectSameState(fast, ref);
  // The coins must have been consumed in lockstep too.
  EXPECT_EQ(coinFast.bits(), coinRef.bits());
}

TEST(LocalGolden, SequentialSchedulerLineCompression) {
  expectGoldenTrajectory(system::lineConfiguration(40), 4.0,
                         SchedulerKind::Sequential, 300000);
}

TEST(LocalGolden, SequentialSchedulerExpansionRegime) {
  expectGoldenTrajectory(system::spiralConfiguration(48), 0.5,
                         SchedulerKind::Sequential, 200000);
}

TEST(LocalGolden, RoundRobinScheduler) {
  expectGoldenTrajectory(system::lineConfiguration(40), 4.0,
                         SchedulerKind::RoundRobin, 300000);
}

TEST(LocalGolden, PoissonScheduler) {
  expectGoldenTrajectory(system::lineConfiguration(40), 4.0,
                         SchedulerKind::Poisson, 300000);
}

TEST(LocalGolden, PoissonSchedulerSpiralNearCritical) {
  expectGoldenTrajectory(system::spiralConfiguration(60), 2.0,
                         SchedulerKind::Poisson, 200000);
}

TEST(LocalGolden, WithCrashAndByzantineFaults) {
  FaultPlan plan;
  plan.crashed = {3, 11, 17};
  plan.byzantine = {5, 23};
  expectGoldenTrajectory(system::lineConfiguration(30), 4.0,
                         SchedulerKind::Poisson, 200000, plan);
}

TEST(LocalGolden, TiledWindowMatchesReference) {
  // A configuration too spread out for one flat window (the far singleton
  // keeps the bounding box over the 32 MiB flat cap) promotes the bit
  // planes to the tiled backend: the dense path must stay golden there.
  std::vector<TriPoint> points;
  for (std::int32_t i = 0; i < 20; ++i) points.push_back({i, 0});
  points.push_back({60000, 20000});
  const ParticleSystem start(points);
  {
    rng::Random probe(1);
    AmoebotSystem sys(start, probe);
    ASSERT_TRUE(sys.occupancyGrid().tiled()) << "expected tiled promotion";
  }
  expectGoldenTrajectory(start, 4.0, SchedulerKind::Sequential, 150000);
}

// --- sharded runner determinism ---------------------------------------

struct ShardedOutcome {
  std::vector<TriPoint> tails;
  std::vector<bool> flags;
  std::uint64_t activations = 0;
  std::uint64_t sweepActivations = 0;
  double now = 0.0;
};

ShardedOutcome runSharded(unsigned threads, std::uint64_t seed,
                          std::uint64_t minActivations) {
  rng::Random ctor(7);
  AmoebotSystem sys(system::lineConfiguration(400), ctor);
  const LocalCompressionAlgorithm algo({4.0});
  ShardedOptions options;
  options.threads = threads;
  ShardedPoissonRunner runner(sys, algo, seed, options);
  runner.runAtLeast(minActivations);
  ShardedOutcome out;
  for (std::size_t id = 0; id < sys.size(); ++id) {
    out.tails.push_back(sys.particle(id).tail);
    out.flags.push_back(sys.particle(id).flag);
  }
  out.activations = runner.activations();
  out.sweepActivations = runner.sweepActivations();
  out.now = runner.now();
  return out;
}

TEST(ShardedRunner, TrajectoryIndependentOfThreadCount) {
  const ShardedOutcome one = runSharded(1, 2016, 250000);
  const ShardedOutcome three = runSharded(3, 2016, 250000);
  const ShardedOutcome eight = runSharded(8, 2016, 250000);
  EXPECT_EQ(one.tails, three.tails);
  EXPECT_EQ(one.flags, three.flags);
  EXPECT_EQ(one.activations, three.activations);
  EXPECT_EQ(one.sweepActivations, three.sweepActivations);
  EXPECT_EQ(one.now, three.now);
  EXPECT_EQ(one.tails, eight.tails);
  EXPECT_EQ(one.activations, eight.activations);
  // The line crosses block edges, so the boundary rule skips some
  // activations — but only a sliver of them.
  EXPECT_GT(one.sweepActivations, 0u);
  EXPECT_LT(one.sweepActivations, one.activations / 10);
}

TEST(ShardedRunner, RepeatableForSeedAndSensitiveToIt) {
  const ShardedOutcome a = runSharded(2, 99, 120000);
  const ShardedOutcome b = runSharded(2, 99, 120000);
  const ShardedOutcome c = runSharded(2, 100, 120000);
  EXPECT_EQ(a.tails, b.tails);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_NE(a.tails, c.tails);
}

TEST(ShardedRunner, PreservesInvariantsAndCompresses) {
  rng::Random ctor(11);
  AmoebotSystem sys(system::lineConfiguration(100), ctor);
  const LocalCompressionAlgorithm algo({4.0});
  ShardedPoissonRunner runner(sys, algo, 13);
  const std::int64_t initial = system::perimeter(sys.tailConfiguration());
  std::int64_t best = initial;
  for (int burst = 0; burst < 12; ++burst) {
    runner.runAtLeast(500000);
    const ParticleSystem tails = sys.tailConfiguration();
    ASSERT_TRUE(system::isConnected(tails)) << "burst " << burst;
    best = std::min(best, system::perimeter(tails));
  }
  // At equilibrium the perimeter fluctuates by ±15-20 around its mean at
  // this size, so pin compression by the best burst boundary (strict
  // bound) and the endpoint (loose bound) rather than one knife-edge
  // sample of the stationary distribution.
  EXPECT_LT(best, (3 * initial) / 5);
  EXPECT_LT(system::perimeter(sys.tailConfiguration()), (2 * initial) / 3);
  // Between bursts the id index is restored: cell views are consistent.
  std::size_t expanded = 0;
  for (std::size_t id = 0; id < sys.size(); ++id) {
    const Particle& p = sys.particle(id);
    if (p.expanded) ++expanded;
    const AmoebotSystem::CellView view = sys.at(p.tail);
    ASSERT_EQ(view.particle, static_cast<std::int32_t>(id));
  }
  EXPECT_EQ(expanded, sys.expandedCount());
}

/// Everything a sharded run can disagree on: per-id cells, expansion
/// state and flags, and the runner's counts.
struct AmoebotSignature {
  std::vector<Particle> particles;
  std::uint64_t activations = 0;
  std::uint64_t sweepActivations = 0;
  double now = 0.0;

  bool operator==(const AmoebotSignature& other) const {
    if (particles.size() != other.particles.size()) return false;
    for (std::size_t id = 0; id < particles.size(); ++id) {
      const Particle& a = particles[id];
      const Particle& b = other.particles[id];
      if (a.tail != b.tail || a.head != b.head || a.expanded != b.expanded ||
          a.flag != b.flag || a.expandDir != b.expandDir) {
        return false;
      }
    }
    return activations == other.activations &&
           sweepActivations == other.sweepActivations && now == other.now;
  }
};

/// Runs `start` at threads = 1 (the list-order oracle) and at every
/// block-path count in {2, 3, 4, hw}, every epoch on the block path (the
/// runner's rejection-free route pinned off): two epochs of `epoch`
/// activations,
/// a snapshot, a resume into a fresh system and runner at another thread
/// count, two more epochs.  Every block-path run must equal the oracle
/// bit for bit and spread an epoch over at least `minBlocks` blocks.
void expectBlockPathMatchesOracle(const ParticleSystem& start,
                                  std::uint64_t epoch, std::size_t minBlocks,
                                  std::uint64_t seed) {
  const LocalCompressionAlgorithm algo({4.0});
  const auto runWith = [&](unsigned threads, unsigned resumeThreads) {
    ShardedOptions options;
    options.targetEventsPerEpoch = epoch;
    options.threads = threads;
    rng::Random ctor(31);
    AmoebotSystem sys(start, ctor);
    ShardedPoissonRunner runner(sys, algo, seed, options);
    runner.forceBlockPathForTest();
    runner.runAtLeast(2 * epoch);
    if (threads > 1) {
      EXPECT_GE(runner.lastEpochBlocks(), minBlocks) << "threads " << threads;
    }
    system::SnapshotWriter w;
    sys.saveState(w);
    runner.saveState(w);

    options.threads = resumeThreads;
    rng::Random otherCtor(37);  // restore overwrites its draws
    AmoebotSystem resumedSys(start, otherCtor);
    ShardedPoissonRunner resumed(resumedSys, algo, seed, options);
    resumed.forceBlockPathForTest();
    system::SnapshotReader r(w.payload());
    resumedSys.restoreState(r);
    resumed.restoreState(r);
    r.finish();
    resumed.runAtLeast(2 * epoch);
    if (system::isConnected(start)) {
      EXPECT_TRUE(system::isConnected(resumedSys.tailConfiguration()));
    }
    AmoebotSignature sig;
    for (std::size_t id = 0; id < resumedSys.size(); ++id) {
      sig.particles.push_back(resumedSys.particle(id));
    }
    sig.activations = resumed.activations();
    sig.sweepActivations = resumed.sweepActivations();
    sig.now = resumed.now();
    return sig;
  };
  const AmoebotSignature oracle = runWith(1, 1);
  EXPECT_EQ(oracle.activations, 4 * epoch);
  for (const unsigned threads :
       {2u, 3u, 4u, std::max(2u, std::thread::hardware_concurrency())}) {
    EXPECT_TRUE(runWith(threads, threads == 2 ? 3u : 2u) == oracle)
        << "threads " << threads;
  }
}

TEST(ShardedRunner, BlockPathMatchesListOrderOracleOnLargeSpiral) {
  // A 1e5 spiral spans ~370 columns and rows, so every epoch spreads over
  // at least 8 blocks.
  expectBlockPathMatchesOracle(system::spiralConfiguration(100000), 60000, 8,
                               2027);
}

TEST(ShardedRunner, BlockPathMatchesListOrderOracleOnLongLine) {
  // A compressing 1e4 line keeps moving along ~80 blocks in a row, so
  // block edges cut through the action in every epoch; without the
  // boundary rule the block path would diverge here.
  expectBlockPathMatchesOracle(system::lineConfiguration(10000), 20000, 8,
                               2031);
}

TEST(ShardedRunner, StoragePrePhaseMatchesListOrderOracle) {
  // A 20-particle line with long epochs: each particle owns hundreds of
  // activations, beyond the flat window's margin or the tiles allocated
  // around it, so the first block epoch leaves its block to the
  // coordinator, which grows the three planes (AmoebotSystem::
  // reserveInterior) before running it.  The far singleton promotes the
  // planes to tiles.
  expectBlockPathMatchesOracle(system::lineConfiguration(20), 4096, 1, 2029);
  std::vector<TriPoint> points;
  for (std::int32_t i = 0; i < 20; ++i) points.push_back({i, 0});
  points.push_back({60000, 20000});
  expectBlockPathMatchesOracle(ParticleSystem(points), 16384, 2, 2039);
}

TEST(ShardedRunner, HeterogeneousRatesRunAndStayDeterministic) {
  const auto run = [](unsigned threads) {
    rng::Random ctor(21);
    AmoebotSystem sys(system::lineConfiguration(200), ctor);
    const LocalCompressionAlgorithm algo({4.0});
    ShardedOptions options;
    options.threads = threads;
    options.rates.assign(sys.size(), 1.0);
    for (std::size_t i = 0; i < options.rates.size(); ++i) {
      options.rates[i] = 0.5 + static_cast<double>(i % 7);
    }
    ShardedPoissonRunner runner(sys, algo, 23, options);
    runner.runAtLeast(150000);
    std::vector<TriPoint> tails;
    for (std::size_t id = 0; id < sys.size(); ++id) {
      tails.push_back(sys.particle(id).tail);
    }
    return tails;
  };
  EXPECT_EQ(run(1), run(4));

  // Rates must give one positive rate per particle.
  rng::Random ctor(25);
  AmoebotSystem sys(system::lineConfiguration(3), ctor);
  const LocalCompressionAlgorithm algo({4.0});
  for (const std::vector<double>& rates :
       {std::vector<double>{1.0, 1.0}, std::vector<double>{1.0, 0.0, 1.0},
        std::vector<double>{1.0, -2.0, 1.0}}) {
    ShardedOptions options;
    options.rates = rates;
    EXPECT_THROW(ShardedPoissonRunner(sys, algo, 27, options),
                 ContractViolation);
  }
}

}  // namespace
}  // namespace sops::amoebot

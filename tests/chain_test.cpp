// Tests for the Markov chain M (S6): kernel correctness on hand-built
// configurations, determinism, and the paper's invariants (Lemmas 3.1, 3.2,
// 3.9) asserted along real trajectories.
#include <gtest/gtest.h>

#include <vector>

#include "core/scenario_models.hpp"
#include "rng/random.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace sops::core {
namespace {

using lattice::Direction;
using lattice::TriPoint;
using system::ParticleSystem;

CompressionModel withLambda(double lambda) {
  ChainOptions options;
  options.lambda = lambda;
  return CompressionModel(options);
}

TEST(ChainConstruction, RejectsDisconnectedStart) {
  const ParticleSystem sys(std::vector<TriPoint>{{0, 0}, {5, 5}});
  EXPECT_THROW(CompressionEngine(sys, withLambda(4.0), 1), ContractViolation);
}

TEST(ChainConstruction, RejectsNonPositiveLambda) {
  const ParticleSystem sys = system::lineConfiguration(4);
  EXPECT_THROW(CompressionEngine(sys, withLambda(0.0), 1), ContractViolation);
  EXPECT_THROW(CompressionEngine(sys, withLambda(-1.0), 1), ContractViolation);
}

TEST(ChainStep, DeterministicGivenSeed) {
  CompressionEngine a(system::lineConfiguration(20), withLambda(4.0), 99);
  CompressionEngine b(system::lineConfiguration(20), withLambda(4.0), 99);
  a.run(20000);
  b.run(20000);
  EXPECT_TRUE(a.system().sameArrangement(b.system()));
  EXPECT_EQ(a.stats().movement.accepted, b.stats().movement.accepted);
}

TEST(ChainStep, DifferentSeedsDiverge) {
  CompressionEngine a(system::lineConfiguration(20), withLambda(4.0), 1);
  CompressionEngine b(system::lineConfiguration(20), withLambda(4.0), 2);
  a.run(20000);
  b.run(20000);
  EXPECT_FALSE(a.system().sameArrangement(b.system()));
}

TEST(ChainStep, ParticleCountConserved) {
  CompressionEngine chain(system::lineConfiguration(15), withLambda(3.0), 5);
  chain.run(50000);
  EXPECT_EQ(chain.system().size(), 15u);
}

TEST(ChainStep, OutcomeCountsAddUp) {
  CompressionEngine chain(system::lineConfiguration(15), withLambda(4.0), 5);
  chain.run(10000);
  const ChainStats& s = chain.stats().movement;
  EXPECT_EQ(s.steps, 10000u);
  EXPECT_EQ(s.accepted + s.targetOccupied + s.rejectedGap + s.rejectedProperty +
                s.rejectedFilter,
            s.steps);
}

TEST(ApplyProposal, GapRejection) {
  // Particle 0 at the center with 5 neighbors; the only empty neighbor is
  // East.  Condition (1) must reject regardless of q.
  std::vector<TriPoint> points{{0, 0}};
  for (const Direction d : lattice::kAllDirections) {
    if (d != Direction::East) points.push_back(lattice::neighbor({0, 0}, d));
  }
  CompressionEngine chain(ParticleSystem(points), withLambda(4.0), 1);
  EXPECT_EQ(chain.applyProposal(0, Direction::East, 0.0).movement,
            StepOutcome::RejectedGap);
}

TEST(ApplyProposal, MetropolisFilterThreshold) {
  // Triangle: moving the top particle East drops one neighbor (Δe = -1),
  // so with λ=4 acceptance needs q < 1/4.
  const std::vector<TriPoint> triangle{{0, 0}, {1, 0}, {0, 1}};
  {
    CompressionEngine chain(ParticleSystem(triangle), withLambda(4.0), 1);
    EXPECT_EQ(chain.applyProposal(2, Direction::East, 0.2).movement,
              StepOutcome::Accepted);
    EXPECT_TRUE(chain.system().occupied({1, 1}));
  }
  {
    CompressionEngine chain(ParticleSystem(triangle), withLambda(4.0), 1);
    EXPECT_EQ(chain.applyProposal(2, Direction::East, 0.26).movement,
              StepOutcome::RejectedFilter);
    EXPECT_TRUE(chain.system().occupied({0, 1}));
  }
}

TEST(ApplyProposal, UphillMovesAlwaysAccepted) {
  // λ>1: gaining neighbors accepts with probability 1 (threshold ≥ 1).
  // Four in a row with one below: move the lone bottom particle to tuck in.
  const std::vector<TriPoint> points{{0, 0}, {1, 0}, {2, 0}, {0, -1}};
  CompressionEngine chain(ParticleSystem(points), withLambda(4.0), 1);
  // (0,-1) moving East to (1,-1): e=1 (only (0,0)) becomes e'=2
  // ((0,0) and (1,0)), so the threshold λ^{+1} ≥ 1 accepts any q.
  EXPECT_EQ(chain.applyProposal(3, Direction::East, 0.999999).movement,
            StepOutcome::Accepted);
}

TEST(ApplyProposal, TargetOccupied) {
  CompressionEngine chain(system::lineConfiguration(3), withLambda(4.0), 1);
  EXPECT_EQ(chain.applyProposal(0, Direction::East, 0.0).movement,
            StepOutcome::TargetOccupied);
}

TEST(ApplyProposal, PropertyRejectionOnWouldBeDisconnection) {
  // Middle of a line of 3 moving up would disconnect the ends.
  CompressionEngine chain(system::lineConfiguration(3), withLambda(4.0), 1);
  EXPECT_EQ(chain.applyProposal(1, Direction::NorthEast, 0.0).movement,
            StepOutcome::RejectedProperty);
}

TEST(ChainInvariants, ConnectivityPreservedFromHoledStart) {
  // Lemma 3.1: connectivity is invariant, even while holes exist.
  rng::Random rng(7);
  const ParticleSystem start = system::randomConnected(40, rng);
  CompressionEngine chain(start, withLambda(4.0), 13);
  for (int burst = 0; burst < 100; ++burst) {
    chain.run(2000);
    ASSERT_TRUE(system::isConnected(chain.system())) << "burst " << burst;
  }
}

TEST(ChainInvariants, HoleFreeIsAbsorbing) {
  // Lemma 3.2: once hole-free, always hole-free.
  CompressionEngine chain(system::lineConfiguration(30), withLambda(4.0), 17);
  for (int burst = 0; burst < 200; ++burst) {
    chain.run(1000);
    ASSERT_EQ(system::countHoles(chain.system()), 0) << "burst " << burst;
  }
}

TEST(ChainInvariants, HolesEventuallyEliminated) {
  // Lemma 3.8 (behavioral): from a ring (one hole), the chain reaches Ω*.
  CompressionEngine chain(system::ringConfiguration(2), withLambda(4.0), 23);
  bool holeFree = false;
  for (int burst = 0; burst < 500 && !holeFree; ++burst) {
    chain.run(500);
    holeFree = system::countHoles(chain.system()) == 0;
  }
  EXPECT_TRUE(holeFree) << "ring hole did not close in 250k iterations";
}

TEST(ChainInvariants, AcceptedMovesAreReversible) {
  // Lemma 3.9: on Ω*, every executed move's reverse is a valid proposal.
  // The moved particle is the one whose position changed across the step.
  CompressionEngine chain(system::lineConfiguration(20), withLambda(4.0), 31);
  std::vector<TriPoint> before = chain.system().positions();
  std::uint64_t checkedMoves = 0;
  for (std::uint64_t step = 0; step < 50000; ++step) {
    if (chain.step().movement != StepOutcome::Accepted) continue;
    ++checkedMoves;
    const std::vector<TriPoint>& after = chain.system().positions();
    std::size_t moved = after.size();
    for (std::size_t i = 0; i < after.size(); ++i) {
      if (after[i] == before[i]) continue;
      ASSERT_EQ(moved, after.size()) << "two particles moved in one step";
      moved = i;
    }
    ASSERT_LT(moved, after.size()) << "accepted step moved no particle";
    const auto back = lattice::directionBetween(after[moved], before[moved]);
    ASSERT_TRUE(back.has_value());
    const MoveEvaluation reverse =
        evaluateMove(chain.system(), after[moved], *back);
    ASSERT_FALSE(reverse.targetOccupied);
    ASSERT_TRUE(reverse.gapOk);
    ASSERT_TRUE(reverse.propertyOk);
    before[moved] = after[moved];
  }
  EXPECT_GT(checkedMoves, 1000u);
}

TEST(ChainBehavior, CompressesAtLambdaFour) {
  // Fig 2 in miniature: n=50 from a line at λ=4 must visibly compress.
  CompressionEngine chain(system::lineConfiguration(50), withLambda(4.0), 41);
  const auto initial = system::perimeter(chain.system());
  chain.run(1500000);
  const auto finalPerimeter = system::perimeter(chain.system());
  EXPECT_LT(finalPerimeter, initial / 2);
  EXPECT_LT(static_cast<double>(finalPerimeter),
            2.2 * static_cast<double>(system::pMin(50)));
}

TEST(ChainBehavior, StaysExpandedAtLambdaOne) {
  // λ=1 (unbiased) keeps the perimeter near the maximum (Theorem 5.7
  // regime, in miniature).
  CompressionEngine chain(system::lineConfiguration(50), withLambda(1.0), 43);
  chain.run(1500000);
  const auto p = system::perimeter(chain.system());
  EXPECT_GT(static_cast<double>(p), 0.55 *
            static_cast<double>(system::pMax(50)));
}

TEST(ChainBehavior, GreedyOptionOnlyMovesWeaklyUphill) {
  ChainOptions options;
  options.lambda = 4.0;
  options.greedy = true;
  CompressionEngine chain(system::lineConfiguration(20),
                          CompressionModel(options), 47);
  std::int64_t previousEdges = system::countEdges(chain.system());
  for (int burst = 0; burst < 50; ++burst) {
    chain.run(1000);
    const std::int64_t edges = system::countEdges(chain.system());
    ASSERT_GE(edges, previousEdges) << "greedy chain lost edges";
    previousEdges = edges;
  }
}

TEST(ChainBehavior, RunWithCheckpointsCoversAllIterations) {
  CompressionEngine chain(system::lineConfiguration(10), withLambda(2.0), 3);
  std::vector<std::uint64_t> seen;
  chain.runWithCheckpoints(
      2500, 1000, [&seen](std::uint64_t done) { seen.push_back(done); });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1000, 2000, 2500}));
  EXPECT_EQ(chain.stats().steps, 2500u);
}

TEST(ChainBehavior, LambdaBelowOneDisperses) {
  // λ < 1 disfavors neighbors: a compact spiral should lose edges.
  CompressionEngine chain(system::spiralConfiguration(30), withLambda(0.5), 53);
  const std::int64_t before = system::countEdges(chain.system());
  chain.run(500000);
  EXPECT_LT(system::countEdges(chain.system()), before);
}

}  // namespace
}  // namespace sops::core

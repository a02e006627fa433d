// Golden-trajectory equivalence: the optimized chain (bitboard occupancy +
// precomputed move/decision tables) must be *step-for-step identical* to an
// independent re-implementation of the seed kernel — same RNG draw order,
// same outcome classification, same arrangement, same incrementally
// maintained edge count — for fixed seeds over long runs.  This is what
// keeps the stationary-distribution tests meaningful after hot-path
// rewrites: the optimization is required to be a no-op on the trajectory.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/properties.hpp"
#include "core/reference_kernel.hpp"
#include "core/scenario_models.hpp"
#include "rng/random.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace sops::core {
namespace {

using lattice::Direction;
using lattice::TriPoint;
using system::ParticleSystem;

// The reference side is core::ReferenceKernel (core/reference_kernel.hpp):
// the frozen seed implementation, shared with bench_perf's before/after
// measurements so the benchmarked baseline is exactly the certified one.

void expectIdenticalTrajectory(const ParticleSystem& start,
                               ChainOptions options, std::uint64_t seed,
                               std::uint64_t steps) {
  CompressionEngine fast(start, CompressionModel(options), seed);
  ReferenceKernel reference(start, options, seed);
  for (std::uint64_t i = 0; i < steps; ++i) {
    const StepOutcome a = fast.step().movement;
    const StepOutcome b = reference.step();
    ASSERT_EQ(a, b) << "outcome diverged at step " << i;
  }
  EXPECT_TRUE(fast.system().sameArrangement(reference.system()));
  EXPECT_EQ(fast.edges(), reference.edges());
  EXPECT_EQ(fast.edges(), system::countEdges(fast.system()));
  const ChainStats& fs = fast.stats().movement;
  const ChainStats& rs = reference.stats();
  EXPECT_EQ(fs.steps, rs.steps);
  EXPECT_EQ(fs.accepted, rs.accepted);
  EXPECT_EQ(fs.targetOccupied, rs.targetOccupied);
  EXPECT_EQ(fs.rejectedGap, rs.rejectedGap);
  EXPECT_EQ(fs.rejectedProperty, rs.rejectedProperty);
  EXPECT_EQ(fs.rejectedFilter, rs.rejectedFilter);
}

ChainOptions withLambda(double lambda) {
  ChainOptions options;
  options.lambda = lambda;
  return options;
}

TEST(GoldenTrajectory, LineStartCompressionRegime) {
  expectIdenticalTrajectory(system::lineConfiguration(60), withLambda(4.0),
                            1603, 20000);
}

TEST(GoldenTrajectory, LineStartExpansionRegime) {
  expectIdenticalTrajectory(system::lineConfiguration(60), withLambda(2.0),
                            77, 20000);
}

TEST(GoldenTrajectory, SpiralStart) {
  // The hexagonal spiral is the p_min witness — a maximally dense start.
  expectIdenticalTrajectory(system::spiralConfiguration(64), withLambda(4.0),
                            9001, 15000);
}

TEST(GoldenTrajectory, SpiralStartDispersal) {
  expectIdenticalTrajectory(system::spiralConfiguration(64), withLambda(0.5),
                            13, 15000);
}

TEST(GoldenTrajectory, HexagonRingStartWithHole) {
  // Hexagon-boundary start: exercises hole elimination (Lemma 3.8).
  expectIdenticalTrajectory(system::ringConfiguration(4), withLambda(4.0),
                            23, 15000);
}

TEST(GoldenTrajectory, GreedyMode) {
  ChainOptions options = withLambda(4.0);
  options.greedy = true;
  expectIdenticalTrajectory(system::lineConfiguration(40), options, 5, 10000);
}

TEST(GoldenTrajectory, AblationSwitches) {
  ChainOptions options = withLambda(3.0);
  options.allowProperty2 = false;
  expectIdenticalTrajectory(system::lineConfiguration(40), options, 31, 10000);

  ChainOptions noGap = withLambda(3.0);
  noGap.enforceGapCondition = false;
  expectIdenticalTrajectory(system::lineConfiguration(40), noGap, 37, 10000);

  ChainOptions unconstrained = withLambda(3.0);
  unconstrained.enforceProperties = false;
  unconstrained.enforceGapCondition = false;
  expectIdenticalTrajectory(system::spiralConfiguration(40), unconstrained, 41,
                            10000);
}

TEST(GoldenTrajectory, RandomHoleFreeStart) {
  rng::Random rng(99);
  const ParticleSystem start = system::randomHoleFree(50, rng);
  expectIdenticalTrajectory(start, withLambda(4.0), 311, 15000);
}

TEST(GoldenTrajectory, ApplyProposalMatchesReferenceSemantics) {
  // q < λ^{e'-e} must be evaluated with the exact same threshold the
  // reference kernel uses, including the q-at-threshold boundary.
  const std::vector<TriPoint> triangle{{0, 0}, {1, 0}, {0, 1}};
  CompressionEngine chain(ParticleSystem(triangle),
                          CompressionModel(withLambda(4.0)), 1);
  // Moving the top particle East loses one neighbor: threshold 1/4.
  EXPECT_EQ(chain.applyProposal(2, Direction::East, 0.2499999).movement,
            StepOutcome::Accepted);
  CompressionEngine chain2(ParticleSystem(triangle),
                           CompressionModel(withLambda(4.0)), 1);
  EXPECT_EQ(chain2.applyProposal(2, Direction::East, 0.25).movement,
            StepOutcome::RejectedFilter);
}

}  // namespace
}  // namespace sops::core

// The weight-model engine's correctness contract:
//
//  1. the separation scenario (color bit planes + power tables) is
//     draw-for-draw identical to the fixed extensions::SeparationChain,
//     whose hash-index sameColorNeighbors counts independently re-derive
//     every Δhom — on a flat window AND on the tiled backend;
//  2. at γ = 1 with swaps disabled, the separation scenario degenerates to
//     the compression scenario exactly (the threshold-unification pin);
//  3. the alignment scenario preserves the movement invariants and
//     produces the ferromagnetic phase behavior;
//  4. the shared 32-bit particle-draw guard rejects truncating counts
//     (regression for the SeparationChain size_t→uint32 draw bug).
//
// The compression scenario itself (CompressionEngine, the paper's chain M)
// is pinned draw-for-draw against the frozen seed kernel by
// tests/golden_trajectory_test.cpp; multi-replica ensembles of every
// scenario run through sim::run (tests/sim_api_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/biased_chain_engine.hpp"
#include "core/draw_guard.hpp"
#include "core/scenario_models.hpp"
#include "extensions/separation.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace sops::core {
namespace {

using lattice::TriPoint;
using system::ParticleSystem;

std::vector<std::uint8_t> alternatingColors(std::size_t n) {
  return system::alternatingClasses(n, 2);
}

std::vector<std::uint8_t> cyclingOrientations(std::size_t n) {
  return system::alternatingClasses(n, 6);
}

SeparationModel::Options separationOptions(double lambda, double gamma) {
  SeparationModel::Options o;
  o.lambda = lambda;
  o.gamma = gamma;
  return o;
}

// -- 4. draw-bound guard ----------------------------------------------------

TEST(DrawGuard, AcceptsDrawableCountsAndRejectsTruncatingOnes) {
  EXPECT_EQ(checkedParticleDrawBound(1), 1u);
  EXPECT_EQ(checkedParticleDrawBound(0xFFFFFFFFull), 0xFFFFFFFFu);
  EXPECT_THROW((void)checkedParticleDrawBound(0), ContractViolation);
  // 2^32 truncates to 0, 2^32 + 5 to 5: both must throw instead.
  EXPECT_THROW((void)checkedParticleDrawBound(1ull << 32), ContractViolation);
  EXPECT_THROW((void)checkedParticleDrawBound((1ull << 32) + 5),
               ContractViolation);
}

// -- 1. separation golden vs the reference chain ----------------------------

void expectSeparationGolden(const ParticleSystem& start,
                            std::vector<std::uint8_t> colors,
                            SeparationModel::Options options,
                            std::uint64_t seed, std::uint64_t steps) {
  SeparationEngine engine(start, SeparationModel(options, colors), seed);
  extensions::SeparationOptions refOptions;
  refOptions.lambda = options.lambda;
  refOptions.gamma = options.gamma;
  refOptions.enableSwaps = options.enableSwaps;
  extensions::SeparationChain reference(start, std::move(colors), refOptions,
                                        seed);
  engine.run(steps);
  reference.run(steps);
  EXPECT_TRUE(engine.system().sameArrangement(reference.system()));
  EXPECT_EQ(engine.model().colors(), reference.colors());
  EXPECT_EQ(engine.stats().steps, reference.stats().steps);
  EXPECT_EQ(engine.stats().movement.accepted, reference.stats().movesAccepted);
  EXPECT_EQ(engine.stats().auxAccepted, reference.stats().swapsAccepted);
  EXPECT_EQ(engine.model().homogeneousEdges(engine.system()),
            reference.homogeneousEdges());
  EXPECT_EQ(engine.edges(), system::countEdges(engine.system()));
}

TEST(EngineGolden, SeparationMatchesReferenceChainDensePath) {
  expectSeparationGolden(system::lineConfiguration(40), alternatingColors(40),
                         separationOptions(4.0, 4.0), 7, 200000);
  expectSeparationGolden(system::spiralConfiguration(48), alternatingColors(48),
                         separationOptions(4.0, 0.25), 11, 200000);
  expectSeparationGolden(system::lineConfiguration(30), alternatingColors(30),
                         separationOptions(2.0, 6.0), 23, 200000);
}

TEST(EngineGolden, SeparationMatchesReferenceChainWithoutSwaps) {
  SeparationModel::Options noSwaps = separationOptions(3.0, 3.0);
  noSwaps.enableSwaps = false;
  expectSeparationGolden(system::lineConfiguration(24), alternatingColors(24),
                         noSwaps, 31, 100000);
}

TEST(EngineGolden, SeparationMatchesReferenceChainOnTiledWindow) {
  // A 20000-particle line exceeds the flat window cap (with proportional
  // margin), so ParticleSystem promotes to the tiled backend — the dense
  // plane-backed kernel must match the reference chain there too.
  const ParticleSystem start = system::lineConfiguration(20000);
  ASSERT_TRUE(start.grid().enabled());
  ASSERT_TRUE(start.grid().tiled());
  expectSeparationGolden(start, alternatingColors(20000),
                         separationOptions(4.0, 4.0), 41, 30000);
}

// -- 2. γ = 1 degenerates to the compression chain --------------------------

TEST(EngineGolden, SeparationAtGammaOneMatchesCompressionChain) {
  // With γ = 1 every γ-power is exactly 1.0, and with swaps disabled the
  // draw stream is the chain's: the two kernels must produce the identical
  // trajectory.  This pins the threshold unification (shared lambdaPower).
  SeparationModel::Options options = separationOptions(4.0, 1.0);
  options.enableSwaps = false;
  const ParticleSystem start = system::lineConfiguration(50);
  SeparationEngine engine(start, SeparationModel(options,
                                                 alternatingColors(50)),
                          1603);
  ChainOptions chainOptions;
  chainOptions.lambda = 4.0;
  CompressionEngine chain(start, CompressionModel(chainOptions), 1603);
  for (int i = 0; i < 50000; ++i) {
    const EngineStepResult result = engine.step();
    ASSERT_EQ(result.movement, chain.step().movement)
        << "diverged at step " << i;
  }
  EXPECT_TRUE(engine.system().sameArrangement(chain.system()));
  EXPECT_EQ(engine.edges(), chain.edges());
}

TEST(Separation, MovementThresholdMatchesCompressionChainAtGammaOne) {
  // Analytic form of the same pin: for every reachable Δe the separation
  // movement threshold at γ = 1 equals the chain's Metropolis ratio from
  // the one shared lambdaPower, bit for bit.
  extensions::SeparationOptions options;
  options.lambda = 3.7;
  options.gamma = 1.0;
  for (int edgeDelta = -5; edgeDelta <= 5; ++edgeDelta) {
    for (int homDelta = -5; homDelta <= 5; ++homDelta) {
      EXPECT_EQ(
          extensions::separationMovementThreshold(options, edgeDelta, homDelta),
          lambdaPower(options.lambda, edgeDelta));
    }
  }
  EXPECT_EQ(extensions::separationSwapThreshold(options, 7), 1.0);
}

// -- 3. invariants of the two new scenarios ---------------------------------

TEST(SeparationEngine, PreservesInvariantsAndSegregates) {
  const ParticleSystem start = system::lineConfiguration(40);
  SeparationEngine segregate(
      start, SeparationModel(separationOptions(4.0, 6.0),
                             alternatingColors(40)),
      3);
  SeparationEngine integrate(
      start,
      SeparationModel(separationOptions(4.0, 1.0 / 6.0), alternatingColors(40)),
      3);
  segregate.run(2000000);
  integrate.run(2000000);
  EXPECT_EQ(segregate.model().colorOneCount(), 20u);
  EXPECT_EQ(integrate.model().colorOneCount(), 20u);
  EXPECT_TRUE(system::isConnected(segregate.system()));
  EXPECT_EQ(system::countHoles(segregate.system()), 0);
  const double homSeg =
      static_cast<double>(
          segregate.model().homogeneousEdges(segregate.system())) /
      static_cast<double>(system::countEdges(segregate.system()));
  const double homInt =
      static_cast<double>(
          integrate.model().homogeneousEdges(integrate.system())) /
      static_cast<double>(system::countEdges(integrate.system()));
  EXPECT_GT(homSeg, homInt + 0.2);
}

TEST(AlignmentEngine, PreservesInvariantsAndAligns) {
  const ParticleSystem start = system::lineConfiguration(40);
  AlignmentModel::Options ferro;
  ferro.lambda = 4.0;
  ferro.kappa = 6.0;
  AlignmentModel::Options para;
  para.lambda = 4.0;
  para.kappa = 1.0 / 6.0;
  AlignmentEngine aligned(start, AlignmentModel(ferro, cyclingOrientations(40)),
                          5);
  AlignmentEngine disordered(start,
                             AlignmentModel(para, cyclingOrientations(40)), 5);
  aligned.run(2000000);
  disordered.run(2000000);
  EXPECT_TRUE(system::isConnected(aligned.system()));
  EXPECT_EQ(system::countHoles(aligned.system()), 0);
  EXPECT_EQ(aligned.system().size(), 40u);
  EXPECT_GT(aligned.stats().auxAccepted, 0u);
  const double aliFerro =
      static_cast<double>(aligned.model().alignedEdges(aligned.system())) /
      static_cast<double>(system::countEdges(aligned.system()));
  const double aliPara =
      static_cast<double>(
          disordered.model().alignedEdges(disordered.system())) /
      static_cast<double>(system::countEdges(disordered.system()));
  // κ = 6 should drive most edges to a common orientation; κ < 1 keeps the
  // system near the 1/6 random-agreement baseline.
  EXPECT_GT(aliFerro, aliPara + 0.3);
  EXPECT_LT(aliPara, 0.4);
}

TEST(AlignmentEngine, CompressesUnderLargeLambda) {
  AlignmentModel::Options options;
  options.lambda = 4.0;
  options.kappa = 2.0;
  AlignmentEngine engine(system::lineConfiguration(40),
                         AlignmentModel(options, cyclingOrientations(40)), 9);
  const std::int64_t initial = system::perimeter(engine.system());
  engine.run(2500000);
  EXPECT_LT(system::perimeter(engine.system()), (2 * initial) / 3);
  EXPECT_EQ(engine.edges(), system::countEdges(engine.system()));
}

}  // namespace
}  // namespace sops::core

// Tests for the baselines (S11): the leader-driven hexagon builder reaches
// the exact minimum perimeter; greedy/unbiased chains behave as expected.
#include <gtest/gtest.h>

#include "baseline/hexagon_builder.hpp"
#include "core/scenario_models.hpp"
#include "rng/random.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace sops::baseline {
namespace {

TEST(HexagonBuilder, LineBecomesPerfectHexagon) {
  for (const std::int64_t n : {5, 12, 20, 50}) {
    const HexagonBuildResult result =
        buildHexagon(system::lineConfiguration(n));
    EXPECT_EQ(result.finalSystem.size(), static_cast<std::size_t>(n));
    EXPECT_TRUE(system::isConnected(result.finalSystem));
    EXPECT_EQ(system::countHoles(result.finalSystem), 0);
    EXPECT_EQ(system::perimeter(result.finalSystem), system::pMin(n))
        << "n=" << n;
  }
}

TEST(HexagonBuilder, RandomStartsAlsoReachPMin) {
  rng::Random rng(5150);
  for (int trial = 0; trial < 10; ++trial) {
    const auto n = static_cast<std::int64_t>(10 + rng.below(40));
    const HexagonBuildResult result =
        buildHexagon(system::randomConnected(n, rng));
    EXPECT_EQ(system::perimeter(result.finalSystem), system::pMin(n));
  }
}

TEST(HexagonBuilder, SpiralStartNeedsNoMoves) {
  // A spiral anchored anywhere is already the target up to the seed choice;
  // starting *at* the builder's own output must be a fixed point.
  const HexagonBuildResult once = buildHexagon(system::lineConfiguration(19));
  const HexagonBuildResult twice = buildHexagon(once.finalSystem);
  EXPECT_EQ(twice.relocations, 0u);
  EXPECT_EQ(twice.unitMoves, 0u);
}

TEST(HexagonBuilder, MoveCostGrowsSuperlinearly) {
  // Relocating Θ(n) particles over Θ(√n)–Θ(n) distances: unit moves for a
  // line start grow clearly faster than n.
  const std::uint64_t moves20 =
      buildHexagon(system::lineConfiguration(20)).unitMoves;
  const std::uint64_t moves80 =
      buildHexagon(system::lineConfiguration(80)).unitMoves;
  EXPECT_GT(moves80, 4 * moves20);
}

TEST(HexagonBuilder, RelocationsNeverExceedParticleCount) {
  for (const std::int64_t n : {7, 23, 40}) {
    const HexagonBuildResult result =
        buildHexagon(system::lineConfiguration(n));
    EXPECT_LE(result.relocations, static_cast<std::uint64_t>(n));
  }
}

TEST(GreedyBaseline, GetsStuckAboveStationaryCompression) {
  // Zero-temperature dynamics lock into local minima: long-run perimeter
  // stays above what the Metropolis chain reaches with the same budget.
  core::ChainOptions greedyOptions;
  greedyOptions.lambda = 4.0;
  greedyOptions.greedy = true;
  core::CompressionEngine greedy(system::lineConfiguration(60),
                                 core::CompressionModel(greedyOptions), 9);
  core::ChainOptions metropolisOptions;
  metropolisOptions.lambda = 4.0;
  core::CompressionEngine metropolis(
      system::lineConfiguration(60), core::CompressionModel(metropolisOptions),
      9);
  greedy.run(2000000);
  metropolis.run(2000000);
  EXPECT_GE(system::perimeter(greedy.system()),
            system::perimeter(metropolis.system()));
}

}  // namespace
}  // namespace sops::baseline

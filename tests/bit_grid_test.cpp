// Tests for the dense bitboard occupancy window (system/bit_grid) and its
// integration into ParticleSystem: the bitboard and the cell → id hash
// index (occupiedSparse, the oracle) must answer occupancy identically
// along whole chain trajectories, across window regrowth, and after
// promotion to the tiled backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/scenario_models.hpp"
#include "rng/random.hpp"
#include "system/bit_grid.hpp"
#include "system/metrics.hpp"
#include "system/particle_system.hpp"
#include "system/shapes.hpp"

namespace sops::system {
namespace {

using lattice::TriPoint;

TEST(BitGrid, SetTestClearRoundTrip) {
  BitGrid grid;
  const std::vector<TriPoint> points{{0, 0}, {3, -2}, {-5, 7}};
  ASSERT_TRUE(grid.rebuild(points, 4));
  EXPECT_TRUE(grid.enabled());
  for (const TriPoint p : points) EXPECT_TRUE(grid.test(p));
  EXPECT_FALSE(grid.test({1, 1}));
  grid.clear({3, -2});
  EXPECT_FALSE(grid.test({3, -2}));
  grid.set({3, -2});
  EXPECT_TRUE(grid.test({3, -2}));
}

TEST(BitGrid, OutOfWindowCellsReadUnoccupied) {
  BitGrid grid;
  ASSERT_TRUE(grid.rebuild(std::vector<TriPoint>{{0, 0}}, 2));
  EXPECT_FALSE(grid.test({100, 0}));
  EXPECT_FALSE(grid.test({-100, 0}));
  EXPECT_FALSE(grid.test({0, 100}));
  // Coordinates that would overflow naive 32-bit window arithmetic.
  EXPECT_FALSE(grid.test({INT32_MAX, INT32_MIN}));
  EXPECT_FALSE(grid.test({INT32_MIN, INT32_MAX}));
}

TEST(BitGrid, RowBitsMatchesPerCellTest) {
  // Random points straddling tile seams and the window edge: every
  // 64-cell row word, at aligned and unaligned starts, inside and past
  // the storage, must equal 64 single-cell tests — flat and tiled.
  rng::Random rng(91);
  std::vector<TriPoint> points;
  for (int i = 0; i < 3000; ++i) {
    points.push_back({static_cast<std::int32_t>(rng.between(-1100, 300)),
                      static_cast<std::int32_t>(rng.between(-300, 40))});
  }
  for (const bool tiled : {false, true}) {
    BitGrid grid;
    if (tiled) {
      grid.rebuildTiled(points, 2);
    } else {
      ASSERT_TRUE(grid.rebuild(points, 2));
    }
    for (int probe = 0; probe < 4000; ++probe) {
      const std::int64_t x = rng.between(-1300, 500);
      const std::int64_t y = rng.between(-400, 120);
      std::uint64_t expected = 0;
      for (int j = 0; j < 64; ++j) {
        if (grid.test({static_cast<std::int32_t>(x + j),
                       static_cast<std::int32_t>(y)})) {
          expected |= std::uint64_t{1} << j;
        }
      }
      ASSERT_EQ(grid.rowBits(x, y), expected)
          << (tiled ? "tiled" : "flat") << " at (" << x << ", " << y << ")";
    }
  }
}

TEST(BitGrid, RebuildCapPromotesToTiled) {
  BitGrid grid;
  // Bounding box ~2^30 × 2^30 cells: far over kMaxWords for a flat
  // window, so rebuild allocates tiles around the occupied cells instead
  // of giving up.
  const std::vector<TriPoint> sparse{{0, 0}, {1 << 30, 1 << 30}};
  EXPECT_TRUE(grid.rebuild(sparse, 0));
  EXPECT_TRUE(grid.enabled());
  EXPECT_TRUE(grid.tiled());
  EXPECT_TRUE(grid.test({0, 0}));
  EXPECT_TRUE(grid.test({1 << 30, 1 << 30}));
  EXPECT_FALSE(grid.test({5, 5}));
  EXPECT_FALSE(grid.test({(1 << 30) + 1, 1 << 30}));
}

TEST(BitGrid, EmptyRebuildDisables) {
  BitGrid grid;
  EXPECT_FALSE(grid.rebuild(std::vector<TriPoint>{}, 4));
  EXPECT_FALSE(grid.enabled());
}

TEST(ParticleSystemGrid, DenseAndSparseAgreeOnConstruction) {
  const ParticleSystem sys = spiralConfiguration(64);
  EXPECT_TRUE(sys.grid().enabled());
  for (const TriPoint p : sys.positions()) {
    EXPECT_TRUE(sys.occupied(p));
    EXPECT_TRUE(sys.occupiedSparse(p));
    for (const auto d : lattice::kAllDirections) {
      const TriPoint q = lattice::neighbor(p, d);
      EXPECT_EQ(sys.occupied(q), sys.occupiedSparse(q));
    }
  }
}

TEST(ParticleSystemGrid, MovesKeepViewsInSync) {
  ParticleSystem sys = lineConfiguration(10);
  sys.moveParticle(0, {0, 5});
  EXPECT_TRUE(sys.occupied({0, 5}));
  EXPECT_FALSE(sys.occupied({0, 0}));
  EXPECT_EQ(sys.occupied({0, 5}), sys.occupiedSparse({0, 5}));
  EXPECT_EQ(sys.occupied({0, 0}), sys.occupiedSparse({0, 0}));
}

TEST(ParticleSystemGrid, AddRemoveKeepViewsInSync) {
  ParticleSystem sys;
  const std::size_t a = sys.add({0, 0});
  EXPECT_TRUE(sys.occupied({0, 0}));
  sys.add({1, 0});
  sys.remove(a);  // swap-with-last: particle 0 becomes the one at (1,0)
  EXPECT_FALSE(sys.occupied({0, 0}));
  EXPECT_TRUE(sys.occupied({1, 0}));
  EXPECT_EQ(sys.size(), 1u);
  EXPECT_EQ(sys.particleAt({1, 0}), std::optional<std::size_t>{0});
}

TEST(ParticleSystemGrid, RegrowthOnEscapeKeepsAnswersExact) {
  ParticleSystem sys = lineConfiguration(5);
  // March a particle far outside the initial window, forcing regrowth.
  TriPoint p = sys.position(0);
  for (int i = 0; i < 500; ++i) {
    const TriPoint next{p.x, p.y + 1};
    sys.moveParticle(0, next);
    p = next;
    ASSERT_TRUE(sys.occupied(p));
    ASSERT_EQ(sys.occupied(p), sys.occupiedSparse(p));
  }
  EXPECT_TRUE(sys.grid().enabled());
  EXPECT_TRUE(sys.grid().covers(p));
}

TEST(ParticleSystemGrid, HugeBoundingBoxPromotesToTiled) {
  const std::vector<TriPoint> far{{0, 0}, {1 << 28, 0}};
  const ParticleSystem sys(far);
  EXPECT_TRUE(sys.grid().enabled());
  EXPECT_TRUE(sys.grid().tiled());
  EXPECT_STREQ(sys.regimeName(), "dense-tiled");
  EXPECT_TRUE(sys.occupied({0, 0}));
  EXPECT_TRUE(sys.occupied({1 << 28, 0}));
  EXPECT_FALSE(sys.occupied({5, 5}));
  EXPECT_EQ(sys.particleAt({1 << 28, 0}), std::optional<std::size_t>{1});
}

TEST(ParticleSystemGrid, NeighborQueriesMatchSparseAlongTrajectory) {
  // Drive a real chain and cross-check the two occupancy views (and the
  // derived neighborMask/neighborCount) at every particle periodically.
  core::ChainOptions options;
  options.lambda = 4.0;
  core::CompressionEngine chain(lineConfiguration(30),
                                core::CompressionModel(options), 1603);
  for (int burst = 0; burst < 20; ++burst) {
    chain.run(2500);
    const ParticleSystem& sys = chain.system();
    for (const TriPoint p : sys.positions()) {
      ASSERT_EQ(sys.occupied(p), sys.occupiedSparse(p));
      std::uint8_t sparseMask = 0;
      for (const auto d : lattice::kAllDirections) {
        if (sys.occupiedSparse(lattice::neighbor(p, d))) {
          sparseMask = static_cast<std::uint8_t>(
              sparseMask | (1u << lattice::index(d)));
        }
      }
      ASSERT_EQ(sys.neighborMask(p), sparseMask);
    }
  }
}

}  // namespace
}  // namespace sops::system

// Tests for the amoebot substrate (S7): expand/contract mechanics, head and
// tail occupancy, the N* oracle, flags, and private orientations (§2.1).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/faults.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace sops::amoebot {
namespace {

using lattice::Direction;
using lattice::TriPoint;

AmoebotSystem makeSystem(const std::vector<TriPoint>& points,
                         std::uint64_t seed = 1) {
  rng::Random rng(seed);
  return AmoebotSystem(system::ParticleSystem(points), rng);
}

TEST(AmoebotSystem, InitialStateIsContracted) {
  const AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  EXPECT_EQ(sys.size(), 2u);
  EXPECT_EQ(sys.expandedCount(), 0u);
  for (std::size_t id = 0; id < sys.size(); ++id) {
    EXPECT_FALSE(sys.particle(id).expanded);
    EXPECT_EQ(sys.particle(id).head, sys.particle(id).tail);
  }
}

TEST(AmoebotSystem, FreshSystemFillsItsIdIndexOnFirstUse) {
  // The constructor leaves the tail-id index empty; the first at() or
  // freezeIdIndex() fills it.
  const system::ParticleSystem spiral = system::spiralConfiguration(500);
  {
    const AmoebotSystem sys = makeSystem(spiral.positions(), 3);
    for (std::size_t id = 0; id < sys.size(); ++id) {
      const AmoebotSystem::CellView view = sys.at(sys.particle(id).tail);
      ASSERT_EQ(view.particle, static_cast<std::int32_t>(id));
      EXPECT_FALSE(view.isHead);
    }
    EXPECT_TRUE(sys.at({1000, 1000}).empty());
  }
  {
    AmoebotSystem sys = makeSystem(spiral.positions(), 3);
    sys.freezeIdIndex();
    for (std::size_t id = 0; id < sys.size(); ++id) {
      ASSERT_EQ(sys.frozenTailId(sys.particle(id).tail),
                static_cast<std::int32_t>(id));
    }
    EXPECT_EQ(sys.frozenTailId({1000, 1000}),
              AmoebotSystem::CellView::kEmpty);
    sys.thawIdIndex(0);
    EXPECT_EQ(sys.at(sys.particle(7).tail).particle, 7);
  }
}

TEST(AmoebotSystem, CellViewsTrackHeadsAndTails) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  sys.expand(0, Direction::NorthEast);
  const auto headView = sys.at({0, 1});
  EXPECT_EQ(headView.particle, 0);
  EXPECT_TRUE(headView.isHead);
  const auto tailView = sys.at({0, 0});
  EXPECT_EQ(tailView.particle, 0);
  EXPECT_FALSE(tailView.isHead);
  EXPECT_TRUE(sys.occupied({0, 1}));
  EXPECT_EQ(sys.expandedCount(), 1u);
}

TEST(AmoebotSystem, ExpandIntoOccupiedThrows) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  EXPECT_THROW(sys.expand(0, Direction::East), ContractViolation);
}

TEST(AmoebotSystem, DoubleExpandThrows) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  sys.expand(0, Direction::NorthEast);
  EXPECT_THROW(sys.expand(0, Direction::NorthWest), ContractViolation);
}

TEST(AmoebotSystem, ContractToHeadCompletesMove) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  sys.expand(0, Direction::NorthEast);
  sys.contractToHead(0);
  EXPECT_FALSE(sys.particle(0).expanded);
  EXPECT_EQ(sys.particle(0).tail, (TriPoint{0, 1}));
  EXPECT_FALSE(sys.occupied({0, 0}));
  EXPECT_TRUE(sys.occupied({0, 1}));
  EXPECT_FALSE(sys.at({0, 1}).isHead);  // now an ordinary contracted cell
  EXPECT_EQ(sys.expandedCount(), 0u);
}

TEST(AmoebotSystem, ContractBackAbortsMove) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  sys.expand(0, Direction::NorthEast);
  sys.contractBack(0);
  EXPECT_FALSE(sys.particle(0).expanded);
  EXPECT_EQ(sys.particle(0).tail, (TriPoint{0, 0}));
  EXPECT_TRUE(sys.occupied({0, 0}));
  EXPECT_FALSE(sys.occupied({0, 1}));
}

TEST(AmoebotSystem, ContractWhenContractedThrows) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  EXPECT_THROW(sys.contractToHead(0), ContractViolation);
  EXPECT_THROW(sys.contractBack(0), ContractViolation);
}

TEST(AmoebotSystem, ExpandedParticleAdjacentDetection) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}, {3, 0}});
  EXPECT_FALSE(sys.expandedParticleAdjacent({1, 0}, 1));
  sys.expand(0, Direction::NorthEast);  // particle 0 occupies (0,0)+(0,1)
  // (1,0) is adjacent to both cells of particle 0.
  EXPECT_TRUE(sys.expandedParticleAdjacent({1, 0}, 1));
  // (3,0) is adjacent to (2,0),(4,0)... none of particle 0's cells.
  EXPECT_FALSE(sys.expandedParticleAdjacent({3, 0}, 2));
  // Self is excluded.
  EXPECT_FALSE(sys.expandedParticleAdjacent({0, 0}, 0));
}

TEST(AmoebotSystem, NStarOracleIgnoresHeads) {
  AmoebotSystem sys = makeSystem({{0, 0}, {2, 0}});
  sys.expand(0, Direction::East);  // head at (1,0), adjacent to (2,0)
  // From particle 1's perspective, the head at (1,0) is not a neighbor
  // under N* (step 9 of Algorithm A)...
  EXPECT_FALSE(sys.occupiedExcludingHeads({1, 0}, 1));
  // ...but the tail at (0,0) would be.
  EXPECT_TRUE(sys.occupiedExcludingHeads({0, 0}, 1));
  // A particle's own cells never count.
  EXPECT_FALSE(sys.occupiedExcludingHeads({1, 0}, 0));
  // Contracted particles count normally.
  EXPECT_TRUE(sys.occupiedExcludingHeads({2, 0}, 0));
}

TEST(AmoebotSystem, GlobalDirectionIsBijectivePerParticle) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const AmoebotSystem sys = makeSystem({{0, 0}, {5, 5}}, seed);
    for (std::size_t id = 0; id < sys.size(); ++id) {
      std::set<int> images;
      for (int port = 0; port < 6; ++port) {
        images.insert(index(sys.globalDirection(id, port)));
      }
      EXPECT_EQ(images.size(), 6u) << "seed " << seed;
    }
  }
}

TEST(AmoebotSystem, OrientationsVaryAcrossParticles) {
  rng::Random rng(99);
  const AmoebotSystem sys(system::lineConfiguration(30), rng);
  std::set<std::pair<int, bool>> orientations;
  for (std::size_t id = 0; id < sys.size(); ++id) {
    orientations.insert(
        {sys.particle(id).orientationOffset, sys.particle(id).mirrored});
  }
  EXPECT_GT(orientations.size(), 3u);  // no shared compass
}

TEST(AmoebotSystem, TailConfigurationProjectsExpandedParticles) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  sys.expand(0, Direction::NorthEast);
  const system::ParticleSystem tails = sys.tailConfiguration();
  EXPECT_EQ(tails.size(), 2u);
  EXPECT_TRUE(tails.occupied({0, 0}));  // expanded particle counted at tail
  EXPECT_TRUE(tails.occupied({1, 0}));
  EXPECT_FALSE(tails.occupied({0, 1}));
}

TEST(AmoebotSystem, TailTopologyWithoutATailConfiguration) {
  // The sampler's projection — tails() and isTail() fed to the cell-list
  // overloads of topology()/countEdges()/perimeter() — must equal the
  // same metrics of tailConfiguration(), with expanded and crashed
  // particles, on flat planes (a ring with a hole, so holes count) and on
  // tiled ones (a far outlier promotes them; two components).
  for (const bool tiled : {false, true}) {
    std::vector<TriPoint> points = system::ringConfiguration(4).positions();
    for (std::int32_t x = 5; x < 40; ++x) points.push_back({x, 0});
    if (tiled) points.push_back({60000, 20000});
    AmoebotSystem sys = makeSystem(points, 7);
    ASSERT_EQ(sys.occupancyGrid().tiled(), tiled);
    std::size_t expanded = 0;
    for (std::size_t i = 0; i < sys.size(); i += 3) {
      for (const Direction d : lattice::kAllDirections) {
        const TriPoint head = lattice::neighbor(sys.particle(i).tail, d);
        if (sys.occupancyGrid().test(head)) continue;
        sys.expand(i, d);
        ++expanded;
        break;
      }
      if (i % 2 == 0) sys.markCrashed(i);
    }
    ASSERT_GT(expanded, 10u);
    const system::ParticleSystem reference = sys.tailConfiguration();
    const std::vector<TriPoint> tails = sys.tails();
    const auto isTail = [&sys](TriPoint p) { return sys.isTail(p); };
    const system::Topology shape = system::topology(tails, isTail);
    const system::Topology expected = system::topology(reference);
    EXPECT_EQ(shape.components, expected.components);
    EXPECT_EQ(shape.holes, expected.holes);
    EXPECT_EQ(shape.components, tiled ? 2 : 1);
    EXPECT_EQ(system::countEdges(tails, isTail),
              system::countEdges(reference));
    if (!tiled) {
      EXPECT_EQ(shape.holes, 1);
      EXPECT_EQ(system::perimeter(tails, isTail),
                system::perimeter(reference));
    }
  }
}

/// The word-parallel sample (system::planeShape over occ & ~heads) equals
/// the cell-list metrics of tails() and isTail().
void expectPlaneShapeMatchesTails(const AmoebotSystem& sys,
                                  const std::string& label) {
  const std::vector<TriPoint> tails = sys.tails();
  const auto isTail = [&sys](TriPoint p) { return sys.isTail(p); };
  const system::PlaneShape shape =
      system::planeShape(sys.occupancyGrid(), sys.headGrid());
  const system::Topology expected = system::topology(tails, isTail);
  EXPECT_EQ(shape.cells, static_cast<std::int64_t>(tails.size())) << label;
  EXPECT_EQ(shape.edges, system::countEdges(tails, isTail)) << label;
  EXPECT_EQ(shape.topology.components, expected.components) << label;
  EXPECT_EQ(shape.topology.holes, expected.holes) << label;
  if (expected.components == 1) {
    EXPECT_EQ(system::perimeter(shape), system::perimeter(tails, isTail))
        << label;
  } else {
    EXPECT_THROW((void)system::perimeter(shape), ContractViolation) << label;
  }
}

/// Runs `epochs` block-path epochs of Algorithm A at λ = 4.
void runBlockEpochs(AmoebotSystem& sys, std::uint64_t epochs,
                    std::uint64_t seed) {
  const LocalCompressionAlgorithm algo({4.0});
  ShardedOptions options;
  options.threads = 2;
  ShardedPoissonRunner runner(sys, algo, seed, options);
  runner.forceBlockPathForTest();
  runner.runAtLeast(epochs * runner.epochTarget());
}

TEST(AmoebotSystem, PlaneShapeMatchesTheTailCellList) {
  {
    // A 10⁵ spiral after block-path epochs, expanded particles present.
    AmoebotSystem sys =
        makeSystem(system::spiralConfiguration(100000).positions());
    runBlockEpochs(sys, 3, 41);
    ASSERT_GT(sys.expandedCount(), 0u);
    expectPlaneShapeMatchesTails(sys, "spiral");
  }
  {
    // Crash and Byzantine faults, and holes cut out of a spiral; the
    // epochs leave Byzantine particles expanded.
    const system::ParticleSystem spiral = system::spiralConfiguration(3000);
    std::vector<TriPoint> points;
    for (const TriPoint p : spiral.positions()) {
      if ((p.x * 7 + p.y * 13) % 23 != 0) points.push_back(p);
    }
    AmoebotSystem sys = makeSystem(points, 3);
    rng::Random faultRng(5);
    FaultPlan plan = randomCrashes(sys.size(), 0.1, faultRng);
    plan.byzantine = randomByzantine(sys.size(), 0.05, faultRng).byzantine;
    applyFaults(sys, plan);
    ASSERT_GT(system::topology(sys.tails(),
                               [&sys](TriPoint p) { return sys.isTail(p); })
                  .holes,
              10);
    runBlockEpochs(sys, 2, 43);
    ASSERT_GT(sys.expandedCount(), 0u);
    expectPlaneShapeMatchesTails(sys, "faults and holes");
  }
  for (const bool tiled : {false, true}) {
    // Negative coordinates, on flat and on tiled planes (a far outlier
    // promotes them: two components, and no perimeter).
    const system::ParticleSystem spiral = system::spiralConfiguration(2000);
    std::vector<TriPoint> points;
    for (const TriPoint p : spiral.positions()) {
      points.push_back({p.x - 5000, p.y - 3000});
    }
    if (tiled) points.push_back({-70000, -30000});
    AmoebotSystem sys = makeSystem(points, 9);
    ASSERT_EQ(sys.occupancyGrid().tiled(), tiled);
    runBlockEpochs(sys, 2, 47);
    ASSERT_GT(sys.expandedCount(), 0u);
    expectPlaneShapeMatchesTails(sys, tiled ? "negative tiled" : "negative");
  }
  for (const bool tiled : {false, true}) {
    // Runs that start and end at 64-bit word boundaries, and heads on
    // both sides of them: rows of 192 cells (window and tiles are
    // 64-aligned) with gaps at columns 63, 64, 127 and 128.
    std::vector<TriPoint> points;
    for (std::int32_t y = 0; y < 6; ++y) {
      for (std::int32_t x = 0; x < 192; ++x) {
        const bool gap = (y == 1 && x == 63) || (y == 2 && x == 64) ||
                         (y == 3 && (x == 127 || x == 128));
        if (!gap) points.push_back({x, y});
      }
    }
    if (tiled) points.push_back({60000, 20000});
    AmoebotSystem sys = makeSystem(points, 11);
    ASSERT_EQ(sys.occupancyGrid().tiled(), tiled);
    // Heads at columns 63, 64, 127 and 128 of the row above.
    for (std::size_t id = 0; id < sys.size(); ++id) {
      const TriPoint tail = sys.particle(id).tail;
      if (tail.y == 5 && (tail.x % 64 == 63 || tail.x % 64 == 0)) {
        sys.expand(id, Direction::NorthEast);
      }
    }
    ASSERT_EQ(sys.expandedCount(), 6u);
    expectPlaneShapeMatchesTails(sys,
                                 tiled ? "word edges tiled" : "word edges");
  }
}

TEST(AmoebotSystem, FlagStorage) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  EXPECT_FALSE(sys.particle(0).flag);
  sys.setFlag(0, true);
  EXPECT_TRUE(sys.particle(0).flag);
  sys.setFlag(0, false);
  EXPECT_FALSE(sys.particle(0).flag);
}

}  // namespace
}  // namespace sops::amoebot

// The run decomposition behind system::topology() (countHoles,
// isConnected, perimeter) and its word-parallel twin over the occupancy
// grid, system::planeShape() (the chain scenario samplers), against brute
// force: analyzeComplement's flood of the complement window for holes, a
// plain BFS over occupied cells for components, and Euler's relation
// holes = e − n + C − t tying both to the local counts.  Every check
// repeats on a forced-tiled copy, so both occupancy regimes answer the
// decomposition's lookups.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "core/scenario_models.hpp"
#include "enumeration/config_enum.hpp"
#include "rng/random.hpp"
#include "sim/observer.hpp"
#include "sim/runner.hpp"
#include "system/metrics.hpp"
#include "system/particle_system.hpp"
#include "system/serialize.hpp"
#include "system/shapes.hpp"

namespace sops {
namespace {

using lattice::Direction;
using lattice::TriPoint;
using system::ParticleSystem;

/// Components by BFS through a std::set: the obviously-correct reference.
[[nodiscard]] std::vector<std::vector<TriPoint>> bruteComponents(
    const ParticleSystem& sys) {
  std::set<std::pair<std::int32_t, std::int32_t>> unseen;
  for (const TriPoint p : sys.positions()) unseen.insert({p.x, p.y});
  std::vector<std::vector<TriPoint>> components;
  while (!unseen.empty()) {
    const auto [x, y] = *unseen.begin();
    unseen.erase(unseen.begin());
    std::vector<TriPoint> component;
    std::deque<TriPoint> frontier = {TriPoint{x, y}};
    while (!frontier.empty()) {
      const TriPoint p = frontier.front();
      frontier.pop_front();
      component.push_back(p);
      for (const Direction d : lattice::kAllDirections) {
        const TriPoint q = lattice::neighbor(p, d);
        if (unseen.erase({q.x, q.y}) != 0) frontier.push_back(q);
      }
    }
    components.push_back(std::move(component));
  }
  return components;
}

void expectMatchesOracleIn(const ParticleSystem& sys,
                           const std::string& regime) {
  SCOPED_TRACE(regime + " n=" + std::to_string(sys.size()));
  const system::Topology shape = system::topology(sys);
  const auto components =
      static_cast<std::int64_t>(bruteComponents(sys).size());
  const std::int64_t holes = system::analyzeComplement(sys).holeCount;
  EXPECT_EQ(shape.components, components);
  EXPECT_EQ(shape.holes, holes);
  EXPECT_EQ(system::countHoles(sys), holes);
  EXPECT_EQ(system::isConnected(sys), components == 1);
  // Euler on the induced plane graph: V − E + F = 1 + C with
  // F = t + holes + 1.
  const auto n = static_cast<std::int64_t>(sys.size());
  const std::int64_t e = system::countEdges(sys);
  const std::int64_t t = system::countTriangles(sys);
  EXPECT_EQ(holes, e - n + components - t);
  // The chain samplers' word-parallel reading of the same configuration
  // off its occupancy grid.
  const system::PlaneShape planes = system::planeShape(sys.grid());
  EXPECT_EQ(planes.cells, n);
  EXPECT_EQ(planes.edges, e);
  EXPECT_EQ(planes.topology.components, components);
  EXPECT_EQ(planes.topology.holes, holes);
  if (components == 1) {
    EXPECT_EQ(system::perimeter(planes), system::perimeter(sys));
  }
}

void expectMatchesOracle(const ParticleSystem& sys) {
  ASSERT_FALSE(sys.empty());
  expectMatchesOracleIn(sys, sys.regimeName());
  ParticleSystem tiled = sys;
  tiled.forceTiledForTest();
  expectMatchesOracleIn(tiled, tiled.regimeName());
}

[[nodiscard]] ParticleSystem translated(const ParticleSystem& sys,
                                        TriPoint by) {
  std::vector<TriPoint> points;
  for (const TriPoint p : sys.positions()) points.push_back(p + by);
  return ParticleSystem(points);
}

[[nodiscard]] ParticleSystem unionOf(const ParticleSystem& a,
                                     const ParticleSystem& b) {
  std::vector<TriPoint> points = a.positions();
  points.insert(points.end(), b.positions().begin(), b.positions().end());
  return ParticleSystem(points);
}

TEST(MetricsRuns, EmptyAndSingleParticle) {
  const ParticleSystem empty;
  EXPECT_EQ(system::topology(empty).components, 0);
  EXPECT_EQ(system::topology(empty).holes, 0);
  EXPECT_TRUE(system::isConnected(empty));
  const std::vector<TriPoint> one = {{3, -2}};
  expectMatchesOracle(ParticleSystem(one));
}

TEST(MetricsRuns, EveryEnumeratedConfigurationUpToSeven) {
  for (int n = 1; n <= 7; ++n) {
    for (const auto& config : enumeration::enumerateConnected(n)) {
      expectMatchesOracle(ParticleSystem(config.points));
    }
  }
}

TEST(MetricsRuns, RingsOfRadiusOneToFive) {
  for (std::int32_t radius = 1; radius <= 5; ++radius) {
    const ParticleSystem ring = system::ringConfiguration(radius);
    EXPECT_EQ(system::countHoles(ring), 1);
    expectMatchesOracle(ring);
  }
}

TEST(MetricsRuns, RandomShapes) {
  rng::Random rng(1603);
  for (int trial = 0; trial < 4; ++trial) {
    expectMatchesOracle(system::perforatedBlob(400, 40, rng));
    expectMatchesOracle(system::randomConnected(300, rng));
    expectMatchesOracle(system::randomDendrite(300, rng));
  }
}

TEST(MetricsRuns, DisjointRingsAndAnIslandInsideARing) {
  const ParticleSystem ring = system::ringConfiguration(2);
  const ParticleSystem twoRings =
      unionOf(ring, translated(ring, TriPoint{9, 1}));
  EXPECT_EQ(system::topology(twoRings).components, 2);
  EXPECT_EQ(system::topology(twoRings).holes, 2);
  expectMatchesOracle(twoRings);

  // A radius-3 ring around a lone particle at its center: the island
  // splits off no new hole, the annulus stays one.
  const std::vector<TriPoint> center = {{0, 0}};
  const ParticleSystem island =
      unionOf(system::ringConfiguration(3), ParticleSystem(center));
  EXPECT_EQ(system::topology(island).components, 2);
  EXPECT_EQ(system::topology(island).holes, 1);
  expectMatchesOracle(island);

  // A ring inside a ring: two holes, the inner disk and the annulus.
  const ParticleSystem nested =
      unionOf(system::ringConfiguration(4), system::ringConfiguration(1));
  EXPECT_EQ(system::topology(nested).holes, 2);
  expectMatchesOracle(nested);
}

TEST(MetricsRuns, NegativeCoordinates) {
  rng::Random rng(77);
  const ParticleSystem blob = system::perforatedBlob(300, 30, rng);
  expectMatchesOracle(translated(blob, TriPoint{-5000, -3001}));
  expectMatchesOracle(
      translated(system::ringConfiguration(3), TriPoint{-7, 12}));
  expectMatchesOracle(
      translated(system::randomDendrite(200, rng), TriPoint{40, -900}));
}

TEST(MetricsRuns, AblationChainWithoutPropertiesIncludingDisconnected) {
  // properties=false lets moves cut the system apart and open holes: the
  // decomposition must track both.
  core::ChainOptions options;
  options.lambda = 4.0;
  options.enforceProperties = false;
  core::CompressionEngine engine(system::spiralConfiguration(100),
                                 core::CompressionModel(options), 31);
  bool sawDisconnected = false;
  bool sawHole = false;
  for (int sample = 0; sample < 100; ++sample) {
    engine.run(1000);
    const ParticleSystem& sys = engine.system();
    expectMatchesOracle(sys);
    sawDisconnected |= !system::isConnected(sys);
    sawHole |= system::countHoles(sys) > 0;
  }
  EXPECT_TRUE(sawDisconnected);
  EXPECT_TRUE(sawHole);
}

TEST(MetricsRuns, SouthEastLineIsAreaFree) {
  // A line along the SouthEast (1, −1) axis: its bounding box is
  // 2·10⁴ × 2·10⁴ cells, 4·10⁸ in all, which the complement flood would
  // visit one by one.  The run decomposition touches the n particles.
  constexpr std::int32_t kLength = 20000;
  std::vector<TriPoint> points;
  for (std::int32_t i = 0; i < kLength; ++i) points.push_back({i, -i});
  const ParticleSystem line(points);
  const system::Topology shape = system::topology(line);
  EXPECT_EQ(shape.components, 1);
  EXPECT_EQ(shape.holes, 0);
  EXPECT_TRUE(system::isConnected(line));
  EXPECT_EQ(system::perimeter(line), 2 * kLength - 2);
}

/// Keeps the last sample and the final arrangement of a one-replica run.
class SampleCapture : public sim::Observer {
 public:
  void onRunBegin(const sim::RunHeader& header) override {
    names = header.metricNames;
  }
  void onSample(const sim::Sample& sample) override {
    last.assign(sample.values.begin(), sample.values.end());
  }
  void onReplicaEnd(const sim::ReplicaSummary& summary) override {
    if (summary.finalSystem != nullptr) {
      arrangement = system::toText(*summary.finalSystem);
    }
  }
  [[nodiscard]] double metric(const std::string& name) const {
    const auto at = std::find(names.begin(), names.end(), name);
    return last.at(static_cast<std::size_t>(at - names.begin()));
  }
  std::vector<std::string> names;
  std::vector<double> last;
  std::string arrangement;
};

TEST(MetricsRuns, DisconnectedPerimeterIsTheSumOverComponents) {
  sim::RunSpec spec;
  spec.scenario = "compression";
  spec.shape = "line";
  spec.n = 60;
  spec.steps = 200000;
  spec.checkpointEvery = 200000;
  spec.seed = 5;
  spec.params.set("properties", "false");
  SampleCapture capture;
  (void)sim::run(spec, capture);
  const ParticleSystem last = system::fromText(capture.arrangement);
  const auto components = bruteComponents(last);
  ASSERT_GT(components.size(), 1u) << "the ablation run stayed connected";
  std::int64_t sum = 0;
  for (const auto& component : components) {
    sum += system::perimeter(ParticleSystem(component));
  }
  EXPECT_EQ(capture.metric("perimeter"), static_cast<double>(sum));
  EXPECT_EQ(capture.metric("holes"),
            static_cast<double>(system::countHoles(last)));
}

}  // namespace
}  // namespace sops

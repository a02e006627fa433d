// Parameterized property sweeps (TEST_P): the paper's invariants and
// identities checked across grids of λ, n, seeds, and shapes — not just at
// single hand-picked points.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/scenario_models.hpp"
#include "enumeration/chain_matrix.hpp"
#include "enumeration/exact_distribution.hpp"
#include "markov/stationary.hpp"
#include "system/boundary.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace sops {
namespace {

// ---------------------------------------------------------------------
// Sweep 1: chain invariants across (λ, seed), including λ < 1.
// ---------------------------------------------------------------------
class ChainInvariantSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(ChainInvariantSweep, ConnectivityHoleFreedomAndEdgeTracking) {
  const auto [lambda, seed] = GetParam();
  core::ChainOptions options;
  options.lambda = lambda;
  core::CompressionEngine chain(system::lineConfiguration(24),
                                core::CompressionModel(options), seed);
  for (int burst = 0; burst < 30; ++burst) {
    chain.run(2000);
    ASSERT_TRUE(system::isConnected(chain.system()));
    ASSERT_EQ(system::countHoles(chain.system()), 0);
    // Incremental edge tracking must agree with a full recount (Lemma 2.3
    // then gives the perimeter for free).
    ASSERT_EQ(chain.edges(), system::countEdges(chain.system()));
    ASSERT_EQ(chain.perimeterIfHoleFree(), system::perimeter(chain.system()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    LambdaSeedGrid, ChainInvariantSweep,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0, 2.17, 3.42, 4.0, 8.0),
                       ::testing::Values(1ULL, 7ULL, 1603ULL)));

// ---------------------------------------------------------------------
// Sweep 2: detailed balance and irreducibility of the exact kernel across λ
// (Lemmas 3.9/3.10/3.13 must hold for every positive bias, not just λ>1).
// ---------------------------------------------------------------------
class KernelLambdaSweep : public ::testing::TestWithParam<double> {};

TEST_P(KernelLambdaSweep, ExactKernelAuditsAtEveryLambda) {
  const double lambda = GetParam();
  core::ChainOptions options;
  options.lambda = lambda;
  const enumeration::ChainModel model = enumeration::buildChainModel(4,
      options);
  EXPECT_LT(model.matrix.maxRowDefect(), 1e-12);
  const markov::BalanceAudit audit = markov::auditDetailedBalance(
      model.matrix, model.edgeWeights(lambda), model.holeFree);
  EXPECT_TRUE(audit.holds) << "lambda=" << lambda
                           << " violation=" << audit.maxViolation;
  EXPECT_TRUE(model.matrix.stronglyConnectedWithin(model.holeFree));
}

INSTANTIATE_TEST_SUITE_P(LambdaGrid, KernelLambdaSweep,
                         ::testing::Values(0.25, 0.5, 1.0, 1.5, 2.0, 2.17, 3.0,
                                           3.42, 4.0, 6.0, 10.0));

// ---------------------------------------------------------------------
// Sweep 3: perimeter identities and tracer agreement across shapes & sizes.
// ---------------------------------------------------------------------
struct ShapeCase {
  const char* name;
  system::ParticleSystem (*make)(std::int64_t);
  bool holeFree;
};

system::ParticleSystem makeLine(std::int64_t n) {
  return system::lineConfiguration(n);
}
system::ParticleSystem makeSpiral(std::int64_t n) {
  return system::spiralConfiguration(n);
}
system::ParticleSystem makeDendrite(std::int64_t n) {
  rng::Random rng(static_cast<std::uint64_t>(n) * 31 + 5);
  return system::randomDendrite(n, rng);
}
system::ParticleSystem makeBlob(std::int64_t n) {
  rng::Random rng(static_cast<std::uint64_t>(n) * 17 + 3);
  return system::randomConnected(n, rng);
}

class ShapeMetricsSweep
    : public ::testing::TestWithParam<std::tuple<int, std::int64_t>> {
 public:
  static const ShapeCase kShapes[4];
};

const ShapeCase ShapeMetricsSweep::kShapes[4] = {
    {"line", &makeLine, true},
    {"spiral", &makeSpiral, true},
    {"dendrite", &makeDendrite, true},
    {"blob", &makeBlob, false},
};

TEST_P(ShapeMetricsSweep, IdentitiesAndTracersAgree) {
  const auto [shapeIndex, n] = GetParam();
  const ShapeCase& shape = kShapes[shapeIndex];
  const system::ParticleSystem sys = shape.make(n);
  ASSERT_TRUE(system::isConnected(sys)) << shape.name;

  const std::int64_t e = system::countEdges(sys);
  const std::int64_t t = system::countTriangles(sys);
  const std::int64_t h = system::countHoles(sys);
  const std::int64_t p = system::perimeter(sys);

  // Generalized Lemma 2.3 and the independent tracer.
  EXPECT_EQ(p, 3 * n - e - 3 + 3 * h) << shape.name;
  EXPECT_EQ(system::perimeterTraced(sys), p) << shape.name;
  if (h == 0) {
    EXPECT_EQ(t, 2 * n - p - 2) << shape.name;  // Lemma 2.4
    EXPECT_GE(p, system::pMin(n));
    EXPECT_LE(p, system::pMax(n));
  }
  if (shape.holeFree) {
    EXPECT_EQ(h, 0) << shape.name;
  }

  // Lemma 2.1: p ≥ √n.
  EXPECT_GE(static_cast<double>(p) + 1e-9, std::sqrt(static_cast<double>(n)));

  // Fig 9 duality: external dual cycle has 2·(external walk) + 6 edges.
  const system::HexBoundaryDecomposition hex = system::hexBoundaryCycles(sys);
  EXPECT_EQ(hex.externalHexLength, 2 * system::traceExternalWalk(sys) + 6);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSizeGrid, ShapeMetricsSweep,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values<std::int64_t>(2, 3, 7, 19, 37, 64,
                                                       111, 200)));

// ---------------------------------------------------------------------
// Sweep 4: Theorem 4.5's monotonicity at every small n — exact.
// ---------------------------------------------------------------------
class EnsembleSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(EnsembleSizeSweep, CompressionProbabilityMonotoneInLambda) {
  const int n = GetParam();
  const enumeration::ExactEnsemble ensemble(n);
  const double threshold = 1.5 * static_cast<double>(system::pMin(n));
  double previous = 1.1;
  for (const double lambda : {0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0}) {
    const double probability = ensemble.probPerimeterAtLeast(lambda, threshold);
    EXPECT_LE(probability, previous + 1e-12) << "n=" << n << " λ=" << lambda;
    previous = probability;
  }
}

TEST_P(EnsembleSizeSweep, ExpectedEdgesMonotoneIncreasingInLambda) {
  const int n = GetParam();
  const enumeration::ExactEnsemble ensemble(n);
  // At n=2 every configuration has exactly one edge, so E[e] is constant;
  // for larger n the expectation must strictly increase with λ.
  const bool strict = ensemble.minPerimeter() != ensemble.maxPerimeter();
  double previous = -1.0;
  for (const double lambda : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const double edges = ensemble.expectedEdges(lambda);
    if (strict && previous >= 0.0) {
      EXPECT_GT(edges, previous) << "n=" << n;
    } else {
      EXPECT_GE(edges, previous) << "n=" << n;
    }
    previous = edges;
  }
}

TEST_P(EnsembleSizeSweep, StationaryIsAProbabilityDistribution) {
  const int n = GetParam();
  const enumeration::ExactEnsemble ensemble(n);
  for (const double lambda : {0.5, 2.0, 5.0}) {
    double total = 0.0;
    for (const double p : ensemble.stationary(lambda)) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallSizes, EnsembleSizeSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7));

// ---------------------------------------------------------------------
// Sweep 5: pMin formula vs spiral across a dense size range.
// ---------------------------------------------------------------------
class PMinSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(PMinSweep, SpiralAttainsFormula) {
  const std::int64_t n = GetParam();
  EXPECT_EQ(system::perimeter(system::spiralConfiguration(n)), system::pMin(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PMinSweep,
                         ::testing::Values<std::int64_t>(1, 2, 3, 4, 5, 6, 7, 8,
                                                         19, 20, 37, 38, 61, 91,
                                                         127, 169, 217, 271,
                                                             331,
                                                         397, 1000, 1001,
                                                             2500));

}  // namespace
}  // namespace sops

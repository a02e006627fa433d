// Tests for the MCMC convergence diagnostics (S9) and the perforated-blob
// generator backing the §3.7 hole experiment.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/convergence.hpp"
#include "core/scenario_models.hpp"
#include "rng/random.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace sops::analysis {
namespace {

std::vector<double> iidNormalish(std::size_t n, std::uint64_t seed) {
  rng::Random rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) {
    // sum of 4 uniforms: light-tailed, mean 2, var 1/3
    x = rng.uniform() + rng.uniform() + rng.uniform() + rng.uniform();
  }
  return xs;
}

/// AR(1) series with coefficient phi: τ = (1+phi)/(1-phi).
std::vector<double> ar1(std::size_t n, double phi, std::uint64_t seed) {
  rng::Random rng(seed);
  std::vector<double> xs(n);
  double state = 0.0;
  for (double& x : xs) {
    state = phi * state + (rng.uniform() - 0.5);
    x = state;
  }
  return xs;
}

TEST(Autocorrelation, LagZeroIsOne) {
  const auto xs = iidNormalish(1000, 1);
  const auto rho = autocorrelation(xs, 10);
  EXPECT_NEAR(rho[0], 1.0, 1e-12);
}

TEST(Autocorrelation, IidIsNearZeroBeyondLagZero) {
  const auto xs = iidNormalish(20000, 2);
  const auto rho = autocorrelation(xs, 5);
  for (std::size_t lag = 1; lag <= 5; ++lag) {
    EXPECT_LT(std::fabs(rho[lag]), 0.03) << lag;
  }
}

TEST(Autocorrelation, Ar1DecaysGeometrically) {
  const double phi = 0.8;
  const auto xs = ar1(100000, phi, 3);
  const auto rho = autocorrelation(xs, 4);
  for (std::size_t lag = 1; lag <= 4; ++lag) {
    EXPECT_NEAR(rho[lag], std::pow(phi, lag), 0.05) << lag;
  }
}

TEST(Autocorrelation, ConstantSeriesIsDefined) {
  const std::vector<double> xs(100, 3.14);
  const auto rho = autocorrelation(xs, 3);
  EXPECT_NEAR(rho[0], 1.0, 1e-12);
  EXPECT_NEAR(rho[1], 0.0, 1e-12);
}

TEST(IntegratedTau, NearOneForIid) {
  const auto xs = iidNormalish(50000, 4);
  EXPECT_NEAR(integratedAutocorrelationTime(xs), 1.0, 0.15);
}

TEST(IntegratedTau, MatchesAr1Theory) {
  const double phi = 0.6;
  const auto xs = ar1(200000, phi, 5);
  const double expected = (1 + phi) / (1 - phi);  // = 4
  EXPECT_NEAR(integratedAutocorrelationTime(xs), expected, 0.5);
}

TEST(EffectiveSampleSize, ShrinksWithCorrelation) {
  const auto iid = iidNormalish(20000, 6);
  const auto sticky = ar1(20000, 0.9, 7);
  EXPECT_GT(effectiveSampleSize(iid), effectiveSampleSize(sticky) * 3);
}

TEST(Geweke, StationarySeriesPasses) {
  const auto xs = ar1(50000, 0.5, 8);
  EXPECT_LT(std::fabs(gewekeZScore(xs)), 3.0);
}

TEST(Geweke, TrendingSeriesFails) {
  std::vector<double> xs(5000);
  rng::Random rng(9);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(i) * 0.01 + rng.uniform();
  }
  EXPECT_GT(std::fabs(gewekeZScore(xs)), 5.0);
}

TEST(Geweke, RejectsBadFractions) {
  const auto xs = iidNormalish(1000, 10);
  EXPECT_THROW((void)gewekeZScore(xs, 0.7, 0.7), ContractViolation);
}

TEST(ChainDiagnostics, PerimeterTraceReachesQuasiStationarity) {
  // End-to-end: at λ=4, n=30, the perimeter trace after burn-in passes the
  // Geweke diagnostic and has a finite autocorrelation time.
  core::ChainOptions options;
  options.lambda = 4.0;
  core::CompressionEngine chain(system::lineConfiguration(30),
                                core::CompressionModel(options), 17);
  chain.run(600000);  // burn-in past the compression transient
  std::vector<double> trace;
  for (int i = 0; i < 4000; ++i) {
    chain.run(250);
    trace.push_back(static_cast<double>(chain.perimeterIfHoleFree()));
  }
  EXPECT_LT(std::fabs(gewekeZScore(trace)), 3.5);
  EXPECT_GT(effectiveSampleSize(trace), 50.0);
}

}  // namespace
}  // namespace sops::analysis

namespace sops::system {
namespace {

TEST(PerforatedBlob, HasRequestedSizeAndHoles) {
  rng::Random rng(11);
  const ParticleSystem sys = perforatedBlob(100, 8, rng);
  EXPECT_EQ(sys.size(), 100u);
  EXPECT_TRUE(isConnected(sys));
  EXPECT_EQ(countHoles(sys), 8);
}

TEST(PerforatedBlob, ZeroHolesIsJustABlob) {
  rng::Random rng(12);
  const ParticleSystem sys = perforatedBlob(50, 0, rng);
  EXPECT_EQ(sys.size(), 50u);
  EXPECT_EQ(countHoles(sys), 0);
}

TEST(PerforatedBlob, PerimeterIdentityWithHoles) {
  rng::Random rng(13);
  const ParticleSystem sys = perforatedBlob(120, 10, rng);
  const auto n = static_cast<std::int64_t>(sys.size());
  EXPECT_EQ(perimeter(sys),
            3 * n - countEdges(sys) - 3 + 3 * countHoles(sys));
}

}  // namespace
}  // namespace sops::system

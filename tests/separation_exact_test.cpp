// Exact-distribution checks for the aux moves at tiny n.  Separation: the
// stationary distribution of the {movement, swap} mixture over
// (configuration × 2-coloring) states is w(σ) = λ^{e(σ)} γ^{hom(σ)} / Z,
// because both move kinds are symmetric-proposal Metropolis kernels for
// the same w.  Both states and colorings are enumerable at n = 4 (44
// hole-free configurations × C(4,2) colorings = 264 states), so empirical
// state frequencies can be tested against w exactly — this catches any
// detailed-balance bug in the swap move (a wrong Δhom, a missing
// heterochromatic-edge exclusion) on the reference chain, on the engine's
// bit-plane path and on the sharded block executor alike.  Alignment's
// rotation gets the same check at n = 3 over (configuration ×
// orientation) states, on the block executor.
//
// Pre-registered design (fixed before looking at outcomes):
//   - burn-in 30,000 steps; one sample every 32 steps (the block executor:
//     every 64, over eight epochs); 120,000 samples;
//   - expected cells below 5 pooled (Cochran, the stats.hpp default);
//   - acceptance: chi-square p > 0.01; fixed seeds, so not flaky.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/stats.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "enumeration/exact_distribution.hpp"
#include "extensions/separation.hpp"
#include "system/shapes.hpp"

namespace sops::extensions {
namespace {

using lattice::TriPoint;

constexpr int kParticles = 4;
constexpr int kBurnIn = 30000;
constexpr int kStride = 32;
constexpr int kSamples = 120000;
constexpr double kLambda = 1.5;
constexpr double kGamma = 2.5;
constexpr double kAcceptP = 0.01;

/// Translation-canonical key of a colored configuration: shift min x and
/// min y to zero, sort cells by (y, x), pack (x, y, color) bytes.
std::string coloredKey(std::vector<TriPoint> points,
                       const std::vector<std::uint8_t>& colorOf) {
  struct Cell {
    TriPoint p;
    std::uint8_t color;
  };
  std::vector<Cell> cells(points.size());
  std::int32_t minX = points[0].x;
  std::int32_t minY = points[0].y;
  for (const TriPoint p : points) {
    minX = std::min(minX, p.x);
    minY = std::min(minY, p.y);
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    cells[i] = {TriPoint{points[i].x - minX, points[i].y - minY}, colorOf[i]};
  }
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    return a.p.y != b.p.y ? a.p.y < b.p.y : a.p.x < b.p.x;
  });
  std::string key;
  key.reserve(cells.size() * 9);
  for (const Cell& cell : cells) {
    char buffer[9];
    std::memcpy(buffer, &cell.p.x, 4);
    std::memcpy(buffer + 4, &cell.p.y, 4);
    buffer[8] = static_cast<char>(cell.color);
    key.append(buffer, 9);
  }
  return key;
}

/// hom(σ) of an explicit colored point set (independent brute force).
std::int64_t homOf(const std::vector<TriPoint>& points,
                   const std::vector<std::uint8_t>& colorOf) {
  std::int64_t hom = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      bool adjacent = false;
      for (const lattice::Direction d : lattice::kAllDirections) {
        if (lattice::neighbor(points[i], d) == points[j]) adjacent = true;
      }
      if (adjacent && colorOf[i] == colorOf[j]) ++hom;
    }
  }
  return hom;
}

struct ExactColoredEnsemble {
  std::unordered_map<std::string, std::size_t> indexOf;
  std::vector<double> probabilities;  // normalized w
};

/// Enumerates hole-free configurations × k-one colorings with their exact
/// stationary probabilities under w = λ^e γ^hom.
ExactColoredEnsemble buildExactEnsemble(int n, int ones) {
  const enumeration::ExactEnsemble configs(n);
  ExactColoredEnsemble out;
  std::vector<double> weights;
  for (const enumeration::EnumeratedConfig& config : configs.configs()) {
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      if (std::popcount(mask) != ones) continue;
      std::vector<std::uint8_t> colorOf(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        colorOf[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>((mask >> i) & 1u);
      }
      const double weight =
          core::lambdaPower(kLambda, static_cast<int>(config.edges)) *
          core::lambdaPower(kGamma,
                            static_cast<int>(homOf(config.points, colorOf)));
      out.indexOf.emplace(coloredKey(config.points, colorOf), weights.size());
      weights.push_back(weight);
    }
  }
  double total = 0.0;
  for (const double w : weights) total += w;
  out.probabilities.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out.probabilities[i] = weights[i] / total;
  }
  return out;
}

void expectMatchesExact(const ExactColoredEnsemble& exact,
                        const std::vector<double>& counts) {
  double total = 0.0;
  for (const double c : counts) total += c;
  ASSERT_GT(total, 1000.0);
  const analysis::ChiSquareResult gof =
      analysis::chiSquareGoodnessOfFit(counts, exact.probabilities);
  EXPECT_GT(gof.pValue, kAcceptP)
      << "chi2 = " << gof.statistic << ", dof = " << gof.dof
      << ", samples = " << total;
}

template <typename StepFn, typename KeyFn>
std::vector<double> sampleFrequencies(const ExactColoredEnsemble& exact,
                                      StepFn&& step, KeyFn&& key) {
  for (int i = 0; i < kBurnIn; ++i) step();
  std::vector<double> counts(exact.probabilities.size(), 0.0);
  for (int s = 0; s < kSamples; ++s) {
    for (int i = 0; i < kStride; ++i) step();
    const auto it = exact.indexOf.find(key());
    if (it == exact.indexOf.end()) {
      ADD_FAILURE() << "chain left the enumerated support";
      break;
    }
    counts[it->second] += 1.0;
  }
  return counts;
}

std::vector<std::uint8_t> twoOnesColors() { return {0, 1, 0, 1}; }

TEST(SeparationExact, ReferenceChainMatchesWeightDistribution) {
  const ExactColoredEnsemble exact = buildExactEnsemble(kParticles, 2);
  ASSERT_EQ(exact.probabilities.size(), 44u * 6u);
  SeparationOptions options;
  options.lambda = kLambda;
  options.gamma = kGamma;
  SeparationChain chain(system::lineConfiguration(kParticles), twoOnesColors(),
                        options, 2027);
  const std::vector<double> counts = sampleFrequencies(
      exact, [&] { chain.step(); },
      [&] {
        return coloredKey(chain.system().positions(), chain.colors());
      });
  expectMatchesExact(exact, counts);
}

TEST(SeparationExact, EngineMatchesWeightDistribution) {
  const ExactColoredEnsemble exact = buildExactEnsemble(kParticles, 2);
  core::SeparationModel::Options options;
  options.lambda = kLambda;
  options.gamma = kGamma;
  core::SeparationEngine engine(
      system::lineConfiguration(kParticles),
      core::SeparationModel(options, twoOnesColors()), 911);
  const std::vector<double> counts = sampleFrequencies(
      exact, [&] { engine.step(); },
      [&] {
        return coloredKey(engine.system().positions(), engine.model().colors());
      });
  expectMatchesExact(exact, counts);
}

/// Runs `runner` through the burn-in and kSamples bursts of `stride`
/// proposals, counting states by `key` and the bursts that hit at least
/// one boundary rejection — whose share is printed and must reach 3%, so
/// the chi-square actually weighs the rule.
template <typename Runner, typename KeyFn>
std::vector<double> sampleShardedFrequencies(const ExactColoredEnsemble& exact,
                                             Runner& runner, int stride,
                                             KeyFn&& key) {
  runner.runAtLeast(kBurnIn);
  std::vector<double> counts(exact.probabilities.size(), 0.0);
  int boundaryBursts = 0;
  for (int s = 0; s < kSamples; ++s) {
    const std::uint64_t rejectsBefore = runner.sweepEvents();
    runner.runAtLeast(static_cast<std::uint64_t>(stride));
    if (runner.sweepEvents() != rejectsBefore) ++boundaryBursts;
    const auto it = exact.indexOf.find(key());
    if (it == exact.indexOf.end()) {
      ADD_FAILURE() << "sharded runner left the enumerated support";
      break;
    }
    counts[it->second] += 1.0;
  }
  const double share = static_cast<double>(boundaryBursts) / kSamples;
  std::printf("bursts with a boundary rejection: %.2f%%\n", 100.0 * share);
  EXPECT_GE(share, 0.03);
  return counts;
}

/// The block runner samples every 2 × kStride proposals, spread over
/// eight epochs.  The chi-square assumes independent samples: with one
/// epoch per sample, a configuration at a block edge has most of the
/// epoch's proposals rejected and the next sample repeats the last far
/// more often than the sequential chain's would.  That inflated the
/// statistic without biasing it (alignment: chi2 ≈ 2650 on 2375 dof at
/// both 120k and 1.2M samples — a bias would have grown tenfold).  The
/// runner takes the list-order path (threads = 1), which the ShardedChain
/// oracle tests pin the block path to bit for bit.
constexpr int kShardedStride = 2 * kStride;
constexpr int kShardedEpoch = kShardedStride / 8;

TEST(SeparationExact, ShardedRunnerMatchesWeightDistribution) {
  // The block executor (core/sharded_chain_runner.hpp) must sample the
  // same w = λ^e γ^hom over (configuration × coloring) states: the swap is
  // the pair move whose boundary rule takes both cells (p, q), and a
  // rejected swap must be rejected for its reverse too.
  const ExactColoredEnsemble exact = buildExactEnsemble(kParticles, 2);
  core::SeparationModel::Options options;
  options.lambda = kLambda;
  options.gamma = kGamma;
  core::ShardedChainOptions sharded;
  sharded.threads = 1;
  sharded.targetEventsPerEpoch = kShardedEpoch;
  core::ShardedChainRunner<core::SeparationModel> runner(
      system::lineConfiguration(kParticles),
      core::SeparationModel(options, twoOnesColors()), 1117, sharded);
  const std::vector<double> counts =
      sampleShardedFrequencies(exact, runner, kShardedStride, [&] {
        return coloredKey(runner.system().positions(), runner.model().colors());
      });
  expectMatchesExact(exact, counts);
}

/// Exact (configuration × orientation) weights λ^e κ^ali at n particles:
/// every hole-free configuration with each of the 6^n orientation
/// assignments.
ExactColoredEnsemble buildExactAlignmentEnsemble(int n, double lambda,
                                                 double kappa) {
  const enumeration::ExactEnsemble configs(n);
  ExactColoredEnsemble out;
  std::vector<double> weights;
  std::size_t assignments = 1;
  for (int i = 0; i < n; ++i) assignments *= 6;
  for (const enumeration::EnumeratedConfig& config : configs.configs()) {
    for (std::size_t code = 0; code < assignments; ++code) {
      std::vector<std::uint8_t> orientationOf(static_cast<std::size_t>(n));
      std::size_t rest = code;
      for (int i = 0; i < n; ++i) {
        orientationOf[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(rest % 6);
        rest /= 6;
      }
      const double weight =
          core::lambdaPower(lambda, static_cast<int>(config.edges)) *
          core::lambdaPower(
              kappa, static_cast<int>(homOf(config.points, orientationOf)));
      out.indexOf.emplace(coloredKey(config.points, orientationOf),
                          weights.size());
      weights.push_back(weight);
    }
  }
  double total = 0.0;
  for (const double w : weights) total += w;
  out.probabilities.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out.probabilities[i] = weights[i] / total;
  }
  return out;
}

TEST(SeparationExact, ShardedRunnerMatchesAlignmentWeightDistribution) {
  // Alignment's rotation is the single-particle aux move: its boundary
  // rule takes p alone.  At n = 3 the (configuration × orientation)
  // states are enumerable, with exact weights λ^e κ^ali (ali counts the
  // induced edges whose endpoints share an orientation — homOf over the
  // orientation classes).  Same design and threshold as above.
  const double lambda = 1.5;
  const double kappa = 2.0;
  const ExactColoredEnsemble exact = buildExactAlignmentEnsemble(3, lambda,
                                                                 kappa);
  core::AlignmentModel::Options options;
  options.lambda = lambda;
  options.kappa = kappa;
  core::ShardedChainOptions sharded;
  sharded.threads = 1;
  sharded.targetEventsPerEpoch = kShardedEpoch;
  core::ShardedChainRunner<core::AlignmentModel> runner(
      system::lineConfiguration(3), core::AlignmentModel(options, {0, 1, 2}),
      1123, sharded);
  const std::vector<double> counts =
      sampleShardedFrequencies(exact, runner, kShardedStride, [&] {
        return coloredKey(runner.system().positions(),
                          runner.model().orientations());
      });
  expectMatchesExact(exact, counts);
}

}  // namespace
}  // namespace sops::extensions

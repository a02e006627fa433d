// E8 — §6's conjectured phase transition in λ: expansion provably for
// λ < 2.17, compression provably for λ > 2+√2 ≈ 3.414, crossover
// conjectured in [2.17, 3.41].
//
// We sweep λ (× a seed ensemble) and report the quasi-stationary perimeter
// ratio α = p/p_min and the expansion fraction β = p/p_max for n=100 after
// a long run; the curve must fall from the expanded plateau to the
// compressed plateau somewhere inside the paper's window.
//
// Each λ is one facade RunSpec of the compression scenario whose replicas
// are the seed ensemble (seed + 7·r), fanned out across cores by
// sim::run; per-replica trajectories are deterministic per seed and
// independent of the thread count.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/csv.hpp"
#include "analysis/time_series.hpp"
#include "bench_util.hpp"
#include "sim/runner.hpp"
#include "system/metrics.hpp"

namespace {

using namespace sops;

/// Every replica's sampled perimeter after iteration 0, as a time series.
class PerimeterSeries : public sim::Observer {
 public:
  explicit PerimeterSeries(std::size_t replicas) : series_(replicas) {}

  void onSample(const sim::Sample& sample) override {
    if (sample.iteration == 0) return;
    // Metric order is the compression scenario's declared columns:
    // edges, perimeter, alpha, acceptance.
    series_[sample.replica].record(sample.iteration, sample.values[1]);
  }

  [[nodiscard]] const std::vector<analysis::TimeSeries>& series()
      const noexcept {
    return series_;
  }

 private:
  std::vector<analysis::TimeSeries> series_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::expectNoArgs(argc, argv,
                      "SOPS_PHASE_N, SOPS_PHASE_ITERS, "
                      "SOPS_PHASE_SEEDS, SOPS_SEED, SOPS_THREADS");
  const auto n = bench::envInt("SOPS_PHASE_N", 100);
  const auto iterations = bench::envInt("SOPS_PHASE_ITERS", 8000000);
  const auto seedCount =
      std::max<std::int64_t>(1, bench::envInt("SOPS_PHASE_SEEDS", 2));
  const auto baseSeed =
      static_cast<std::uint64_t>(bench::envInt("SOPS_SEED", 1603));
  const auto threads = static_cast<unsigned>(bench::envInt("SOPS_THREADS", 0));

  bench::banner("E8 / §6", "quasi-stationary perimeter vs lambda (n=" +
                               std::to_string(n) + ", " +
                               std::to_string(seedCount) + " seeds)");

  const std::vector<double> lambdas = {1.0, 1.5,  2.0, 2.17, 2.5,
                                       3.0, 3.41, 4.0, 5.0,  6.0};

  analysis::CsvWriter csv(bench::csvPath("phase_transition.csv"),
                          {"lambda", "alpha", "beta", "regime"});
  bench::Table table({"lambda", "alpha=p/pmin", "beta=p/pmax", "paper regime"});

  const double pMin = static_cast<double>(system::pMin(n));
  const double pMax = static_cast<double>(system::pMax(n));
  for (const double lambda : lambdas) {
    sim::RunSpec spec;
    spec.scenario = "compression";
    spec.params.set("lambda", bench::exactText(lambda));
    spec.n = n;
    spec.steps = static_cast<std::uint64_t>(iterations);
    spec.checkpointEvery = static_cast<std::uint64_t>(iterations) / 40;
    spec.seed = baseSeed;
    spec.replicas = static_cast<std::uint32_t>(seedCount);
    // One replica runs inline with the spec's thread budget: keep it on
    // the sequential engine, like every replica of a larger ensemble.
    spec.threads = seedCount == 1 ? 1 : threads;
    PerimeterSeries perimeters(spec.replicas);
    (void)sim::run(spec, perimeters);

    // Quasi-stationary estimate: per replica, mean perimeter over the last
    // quarter of the run; then average across the seed ensemble.
    double p = 0.0;
    for (const analysis::TimeSeries& series : perimeters.series()) {
      p += series.meanAfter(static_cast<std::uint64_t>(3 * iterations / 4));
    }
    p /= static_cast<double>(seedCount);
    const char* regime = lambda < 2.17  ? "expansion (Thm 5.7)"
                         : lambda > 3.42 ? "compression (Thm 4.5)"
                                         : "conjectured window";
    table.row({bench::fmt(lambda, 2), bench::fmt(p / pMin),
               bench::fmt(p / pMax), regime});
    csv.writeRow({analysis::formatDouble(lambda),
                  analysis::formatDouble(p / pMin),
                  analysis::formatDouble(p / pMax), regime});
  }
  std::printf(
      "\npaper shape to hold: beta ~ constant for lambda <= 2.17; alpha small\n"
      "for lambda >= 4; monotone crossover inside [2.17, 3.41].\n");
  return 0;
}

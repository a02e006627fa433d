// E2 — Reproduces paper Fig 10: 100 particles starting in a line at λ=2 do
// NOT compress even after 10M and 20M iterations (the expanded regime of
// Theorem 5.7: λ < 2.17).
//
// Contrast with Fig 2 (λ=4 compresses by 5M): the perimeter here must stay
// a constant fraction of p_max = 2n−2.  A seed ensemble runs alongside the
// primary replica to show the plateau is not a single-seed artifact.
//
// The experiment is one facade RunSpec of the compression scenario: the
// primary seed plus the ensemble run as its replicas (seed + 7·r, fanned
// out by sim::run), and an Observer takes replica 0's per-checkpoint
// summaries and final snapshot.  A single replica runs with one thread,
// i.e. on the sequential engine, like every replica of a larger ensemble.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/csv.hpp"
#include "bench_util.hpp"
#include "io/ascii_render.hpp"
#include "sim/runner.hpp"
#include "system/metrics.hpp"

namespace {

using namespace sops;

/// Replica 0's configuration summary at every checkpoint (iteration 0
/// included) and its rendering after the last step, plus every replica's
/// β = p/p_max per checkpoint from the sampled perimeter.
class Fig10Observer : public sim::Observer {
 public:
  struct Row {
    std::uint64_t iterations;
    system::ConfigSummary summary;
  };

  Fig10Observer(std::uint64_t lastIteration, double pMax,
                std::size_t replicas)
      : lastIteration_(lastIteration), pMax_(pMax), betas_(replicas) {}

  void onSample(const sim::Sample& sample) override {
    if (sample.iteration == 0) return;
    // Metric order is the compression scenario's declared columns:
    // edges, perimeter, alpha, acceptance.
    betas_[sample.replica].push_back(sample.values[1] / pMax_);
  }
  void onSnapshot(std::size_t replica, std::uint64_t iteration,
                  const system::ParticleSystem& sys) override {
    if (replica != 0) return;
    rows_.push_back(Row{iteration, system::summarize(sys)});
    if (iteration == lastIteration_) snapshot_ = io::renderAscii(sys);
  }

  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }
  [[nodiscard]] const std::string& snapshot() const noexcept {
    return snapshot_;
  }
  /// β of `replica` at its k-th checkpoint (0 when it has no such sample).
  [[nodiscard]] double beta(std::size_t replica, std::size_t k) const {
    const std::vector<double>& betas = betas_[replica];
    return k < betas.size() ? betas[k] : 0.0;
  }

 private:
  std::uint64_t lastIteration_;
  double pMax_;
  std::vector<Row> rows_;
  std::vector<std::vector<double>> betas_;
  std::string snapshot_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::expectNoArgs(argc, argv,
                      "SOPS_FIG10_N, SOPS_FIG10_LAMBDA, "
                      "SOPS_FIG10_CHECKPOINT, SOPS_FIG10_SEEDS, "
                      "SOPS_SEED, SOPS_THREADS");
  const auto n = bench::envInt("SOPS_FIG10_N", 100);
  const double lambda = bench::envDouble("SOPS_FIG10_LAMBDA", 2.0);
  const auto checkpoint = bench::envInt("SOPS_FIG10_CHECKPOINT", 10000000);
  const auto seed =
      static_cast<std::uint64_t>(bench::envInt("SOPS_SEED", 1603));
  const auto seedCount =
      std::max<std::int64_t>(1, bench::envInt("SOPS_FIG10_SEEDS", 2));
  const auto threads = static_cast<unsigned>(bench::envInt("SOPS_THREADS", 0));

  bench::banner("E2 / Fig 10", "non-compression at lambda=" +
                                   bench::fmt(lambda, 2) +
                                       " (expanded regime)");

  sim::RunSpec spec;
  spec.scenario = "compression";
  spec.params.set("lambda", bench::exactText(lambda));
  spec.n = n;
  spec.steps = 2 * static_cast<std::uint64_t>(checkpoint);
  spec.checkpointEvery = static_cast<std::uint64_t>(checkpoint);
  spec.seed = seed;
  spec.replicas = static_cast<std::uint32_t>(seedCount);
  spec.threads = seedCount == 1 ? 1 : threads;
  spec.snapshots = true;

  const std::int64_t pMax = system::pMax(n);
  Fig10Observer observer(spec.steps, static_cast<double>(pMax),
                         spec.replicas);
  const sim::RunReport report = sim::run(spec, observer);

  analysis::CsvWriter csv(bench::csvPath("fig10_expansion.csv"),
                          {"iterations", "perimeter", "alpha", "beta"});
  bench::Table table({"iterations", "perimeter", "alpha=p/pmin",
                      "beta=p/pmax"});
  for (const Fig10Observer::Row& row : observer.rows()) {
    const system::ConfigSummary& summary = row.summary;
    const double beta = static_cast<double>(summary.perimeter) /
                        static_cast<double>(pMax);
    table.row({bench::fmtInt(static_cast<std::int64_t>(row.iterations)),
               bench::fmtInt(summary.perimeter),
               bench::fmt(summary.perimeterRatio), bench::fmt(beta)});
    csv.writeRow(
        {std::to_string(row.iterations), std::to_string(summary.perimeter),
         analysis::formatDouble(summary.perimeterRatio),
         analysis::formatDouble(beta)});
  }

  std::printf("\nsnapshot after %lld iterations (Fig 10b):\n%s\n",
              static_cast<long long>(2 * checkpoint),
              observer.snapshot().c_str());

  if (report.replicas.size() > 1) {
    const std::string atOne = "beta@" + bench::fmtInt(checkpoint);
    const std::string atTwo = "beta@" + bench::fmtInt(2 * checkpoint);
    std::printf("seed ensemble (beta at the two checkpoints):\n");
    bench::Table seedsTable({"seed", atOne, atTwo, "wall s"});
    for (const sim::ReplicaSummary& r : report.replicas) {
      seedsTable.row({std::to_string(r.seed),
                      bench::fmt(observer.beta(r.replica, 0)),
                      bench::fmt(observer.beta(r.replica, 1)),
                      bench::fmt(r.wallSeconds, 2)});
    }
    std::printf("\n");
  }
  std::printf(
      "paper shape to hold: beta stays a constant fraction (no compression),\n"
      "in contrast to Fig 2 where alpha drops to a small constant by 5M.\n");
  return 0;
}

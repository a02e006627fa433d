// E1 — Reproduces paper Fig 2: 100 particles starting in a line, bias λ=4,
// snapshots and perimeter statistics at 1M..5M iterations of M.
//
// Paper claim (shape): the system compresses visibly by a few million
// iterations and is well-compressed at 5M.  We report p(σ)/p_min (the α of
// Definition 2.2), edges, and ASCII snapshots.
//
// The whole experiment is one facade RunSpec: the primary seed plus a seed
// ensemble run as replicas of the compression scenario (sim::Registry),
// measurement is an Observer instead of an inline loop, and the plot
// CSV/SVG come from the spec's sinks.  Replica r runs from seed + 7·r.
//
// Env knobs (CI shrink): SOPS_FIG2_N, SOPS_FIG2_LAMBDA,
// SOPS_FIG2_CHECKPOINT, SOPS_FIG2_CHECKPOINTS, SOPS_SEED, SOPS_FIG2_SEEDS,
// SOPS_THREADS.  Any key=value argument overrides both.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "io/ascii_render.hpp"
#include "sim/runner.hpp"
#include "system/metrics.hpp"

namespace {

using namespace sops;

/// Captures replica 0's per-checkpoint rows and its first/last snapshots
/// (the Fig 2a / Fig 2e panels).
class Fig2Observer : public sim::Observer {
 public:
  struct Row {
    std::uint64_t iteration;
    std::vector<double> values;
  };

  void onSample(const sim::Sample& sample) override {
    if (sample.replica != 0) return;
    rows_.push_back(Row{sample.iteration,
                        {sample.values.begin(), sample.values.end()}});
  }
  void onSnapshot(std::size_t replica, std::uint64_t iteration,
                  const system::ParticleSystem& sys) override {
    if (replica != 0 || iteration == 0) return;
    snapshots_.emplace_back(iteration, io::renderAscii(sys));
  }

  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::string>>&
  snapshots() const noexcept {
    return snapshots_;
  }

 private:
  std::vector<Row> rows_;
  std::vector<std::pair<std::uint64_t, std::string>> snapshots_;
};

}  // namespace

int main(int argc, char** argv) {
  const auto checkpoint = bench::envInt("SOPS_FIG2_CHECKPOINT", 1000000);
  const auto checkpoints = bench::envInt("SOPS_FIG2_CHECKPOINTS", 5);
  const sim::ParamMap params = bench::layeredParams(
      "scenario=compression shape=line n=100 lambda=4.0 seed=1603 "
      "replicas=4 seed-stride=7 snapshots=true steps=" +
          std::to_string(checkpoint * checkpoints) +
          " checkpoint=" + std::to_string(checkpoint) +
          " csv=" + bench::csvPath("fig2_compression.csv") +
          " svg=" + bench::csvPath("fig2_final.svg"),
      {{"n", "SOPS_FIG2_N"},
       {"lambda", "SOPS_FIG2_LAMBDA"},
       {"seed", "SOPS_SEED"},
       {"replicas", "SOPS_FIG2_SEEDS"},
       {"threads", "SOPS_THREADS"}},
      argc, argv);
  const sim::RunSpec spec = sim::RunSpec::fromParams(params);

  bench::banner("E1 / Fig 2",
                "compression of a line of " + std::to_string(spec.n) +
                    " particles at lambda=" +
                    bench::fmt(spec.params.getDouble("lambda", 4.0), 2));
  std::printf("spec: %s\n", spec.toText().c_str());

  const std::int64_t pMin = system::pMin(spec.n);
  std::printf("n=%lld  p_min=%lld  p_max=%lld\n\n",
              static_cast<long long>(spec.n), static_cast<long long>(pMin),
              static_cast<long long>(system::pMax(spec.n)));

  Fig2Observer observer;
  const sim::RunReport report = sim::run(spec, observer);

  bench::Table table(
      {"iterations", "perimeter", "alpha=p/pmin", "edges", "acceptance"});
  for (const Fig2Observer::Row& row : observer.rows()) {
    // Metric order is the compression scenario's declared columns:
    // edges, perimeter, alpha, acceptance.
    table.row({bench::fmtInt(static_cast<std::int64_t>(row.iteration)),
               bench::fmtInt(static_cast<std::int64_t>(row.values[1])),
               bench::fmt(row.values[2]),
               bench::fmtInt(static_cast<std::int64_t>(row.values[0])),
               bench::fmt(row.values[3])});
  }
  const auto& snapshots = observer.snapshots();
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    if (i != 0 && i + 1 != snapshots.size()) continue;  // Fig 2a / Fig 2e
    std::printf("\nsnapshot after %lld iterations (Fig 2%c):\n%s\n",
                static_cast<long long>(snapshots[i].first),
                i == 0 ? 'a' : 'e', snapshots[i].second.c_str());
  }

  if (report.replicas.size() > 1) {
    std::printf("\nseed ensemble (final alpha after %llu iterations):\n",
                static_cast<unsigned long long>(spec.steps));
    bench::Table seedsTable({"seed", "final alpha", "acceptance", "wall s"});
    for (const sim::ReplicaSummary& r : report.replicas) {
      seedsTable.row({std::to_string(r.seed),
                      bench::fmt(report.finalMetric(r.replica, "alpha")),
                      bench::fmt(report.finalMetric(r.replica, "acceptance")),
                      bench::fmt(r.wallSeconds, 2)});
    }
  }

  std::printf(
      "paper shape to hold: alpha decreasing toward a small constant\n");
  return 0;
}

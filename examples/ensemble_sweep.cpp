// Replica-ensemble parameter sweep: the workload shape of every scaled-up
// SOPS study (λ-grid × seed ensemble, each replica millions of chain
// steps), saturating all cores — one facade RunSpec per λ with a
// seed-replica fan-out (sim::run, the one ensemble path, dispatches
// replicas across core::parallelForIndex).
//
// Prints a λ × seed matrix of final compression ratios α = p/p_min, the
// aggregate step throughput, and — when run with scaling=1 — a
// thread-scaling table demonstrating speedup toward the per-spec replica
// count and thread-count independence of every replica's result.
//
//   ./examples/ensemble_sweep [key=value ...]
//     n=100 steps=1000000 replicas=4 threads=0 scaling=0
//   (env: SOPS_SWEEP_N, SOPS_SWEEP_ITERS, SOPS_SWEEP_SEEDS, SOPS_THREADS,
//    SOPS_SWEEP_SCALING)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "sim/runner.hpp"
#include "util/assert.hpp"

namespace {

using namespace sops;

sim::ParamMap withEnv(sim::ParamMap map, const char* key, const char* env) {
  const char* raw = std::getenv(env);
  if (raw != nullptr && *raw != '\0') map.set(key, raw);
  return map;
}

/// Runs one spec per λ and returns the reports (λ-major, replicas inside).
std::vector<sim::RunReport> sweep(const sim::ParamMap& base,
                                  const std::vector<double>& lambdas,
                                  unsigned threads) {
  std::vector<sim::RunReport> reports;
  for (const double lambda : lambdas) {
    sim::ParamMap params = base;
    params.set("lambda", std::to_string(lambda));
    params.set("threads", std::to_string(threads));
    reports.push_back(sim::run(sim::RunSpec::fromParams(params)));
  }
  return reports;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    sim::ParamMap params = sim::parseKeyValues(
        "scenario=compression shape=line n=100 steps=1000000 seed=1603 "
        "seed-stride=7 replicas=4");
    params = withEnv(params, "n", "SOPS_SWEEP_N");
    params = withEnv(params, "steps", "SOPS_SWEEP_ITERS");
    params = withEnv(params, "replicas", "SOPS_SWEEP_SEEDS");
    params = withEnv(params, "threads", "SOPS_THREADS");
    bool scaling = std::getenv("SOPS_SWEEP_SCALING") != nullptr &&
                   std::atoi(std::getenv("SOPS_SWEEP_SCALING")) != 0;
    params.merge(sim::parseArgs(argc, argv));
    scaling = params.getBool("scaling", scaling);
    params.erase("scaling");  // binary-local key, not part of the RunSpec

    const std::vector<double> lambdas = {2.0, 3.0, 4.0, 5.0};
    const sim::RunSpec probe = sim::RunSpec::fromParams(params);
    std::printf("ensemble sweep: %zu specs (lambdas) x %u replicas (seeds), "
                "%llu iterations each, n=%lld\n\n",
                lambdas.size(), probe.replicas,
                static_cast<unsigned long long>(probe.steps),
                static_cast<long long>(probe.n));

    const auto t0 = std::chrono::steady_clock::now();
    const auto reports = sweep(params, lambdas, probe.threads);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::printf("final alpha = p/p_min by (lambda, seed):\n%-10s", "lambda");
    for (const sim::ReplicaSummary& r : reports[0].replicas) {
      std::printf("seed=%-6llu  ", static_cast<unsigned long long>(r.seed));
    }
    std::printf("\n");
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      std::printf("%-10.2f", lambdas[i]);
      for (std::size_t s = 0; s < reports[i].replicas.size(); ++s) {
        std::printf("%-12.3f", reports[i].finalMetric(s, "alpha"));
      }
      std::printf("\n");
    }

    double replicaWork = 0.0;
    for (const auto& report : reports) {
      for (const sim::ReplicaSummary& r : report.replicas) {
        replicaWork += r.wallSeconds;
      }
    }
    const double totalSteps = static_cast<double>(probe.steps) *
                              static_cast<double>(probe.replicas) *
                              static_cast<double>(lambdas.size());
    std::printf("\nwall time %.2fs — %.1fM steps/s aggregate "
                "(%.2fs of single-thread replica work, %ux speedup)\n",
                elapsed, totalSteps / elapsed / 1e6, replicaWork,
                static_cast<unsigned>(replicaWork / elapsed + 0.5));

    if (scaling) {
      // Parallelism per spec is bounded by its replica count (the λ runs
      // are sequential since the facade port — RunSpec grids are a
      // ROADMAP item), so threads beyond `replicas` cannot add speedup.
      std::printf("\nthread scaling (same specs, hardware threads: %u; "
                  "parallelism per spec is capped at replicas=%u):\n",
                  std::thread::hardware_concurrency(), probe.replicas);
      std::printf("%-10s%-12s%-14s%-10s%s\n", "threads", "wall s", "Msteps/s",
                  "speedup", "results identical");
      double base = 0.0;
      std::vector<double> referenceAlpha;
      for (unsigned t = 1; t <= 8 && t <= 2 * probe.replicas; t *= 2) {
        const auto s0 = std::chrono::steady_clock::now();
        const auto scaled = sweep(params, lambdas, t);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          s0)
                .count();
        bool identical = true;
        std::size_t flat = 0;
        for (std::size_t i = 0; i < scaled.size(); ++i) {
          for (std::size_t s = 0; s < scaled[i].replicas.size(); ++s, ++flat) {
            const double alpha = scaled[i].finalMetric(s, "alpha");
            if (t == 1) {
              referenceAlpha.push_back(alpha);
            } else {
              identical = identical && alpha == referenceAlpha[flat];
            }
          }
        }
        if (t == 1) base = wall;
        std::printf("%-10u%-12.2f%-14.1f%-10.2f%s\n", t, wall,
                    totalSteps / wall / 1e6, base / wall,
                    identical ? "yes" : "NO — BUG");
      }
    }
    return 0;
  } catch (const sops::ContractViolation& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

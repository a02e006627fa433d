// E5/E6/E15 — Exact stationary analysis for small systems (Lemma 3.13,
// Corollary 3.14, Theorems 4.5/5.7 in miniature, Lemmas 3.1–3.12 as matrix
// audits), plus sampled-versus-exact validation of the simulator.
//
// Everything here is *exact* (full enumeration of Ω and Ω*), so it pins the
// direction of the paper's claims without noise: compression probability
// rises with λ, expansion dominates at small λ, holed states are transient,
// and the chain's empirical samples match π in total variation.
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/csv.hpp"
#include "bench_util.hpp"
#include "core/compression_chain.hpp"
#include "core/scenario_models.hpp"
#include "enumeration/chain_matrix.hpp"
#include "enumeration/exact_distribution.hpp"
#include "markov/stationary.hpp"
#include "system/canonical.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

int main(int argc, char** argv) {
  sops::bench::expectNoArgs(
      argc, argv, "SOPS_EXACT_N, SOPS_EXACT_MATRIX_N, SOPS_EXACT_SAMPLES");
  using namespace sops;
  const auto n = static_cast<int>(bench::envInt("SOPS_EXACT_N", 6));
  const std::vector<double> lambdas = {1.0, 1.5, 2.0, 2.17, 3.0, 3.42, 4.0,
                                       6.0};

  bench::banner("E5 / Thm 4.5 + Cor 4.6",
                "exact stationary compression probabilities, n=" +
                    std::to_string(n));
  const enumeration::ExactEnsemble ensemble(n);
  std::printf("|Omega*| = %zu hole-free configurations, p in [%lld, %lld]\n\n",
              ensemble.configs().size(),
              static_cast<long long>(ensemble.minPerimeter()),
              static_cast<long long>(ensemble.maxPerimeter()));

  analysis::CsvWriter csv(bench::csvPath("stationary_exact.csv"),
                          {"lambda", "p_not_compressed_a1.5",
                           "p_expanded_b0.75",
                           "expected_perimeter"});
  {
    bench::Table table({"lambda", "P(p>=1.5pmin)", "P(p>=2.0pmin)",
                        "P(p<=.75pmax)", "E[perimeter]"});
    const double pMin = static_cast<double>(system::pMin(n));
    const double pMax = static_cast<double>(system::pMax(n));
    for (const double lambda : lambdas) {
      const double notCompressed15 =
          ensemble.probPerimeterAtLeast(lambda, 1.5 * pMin);
      const double notCompressed20 =
          ensemble.probPerimeterAtLeast(lambda, 2.0 * pMin);
      const double notExpanded =
          ensemble.probPerimeterAtMost(lambda, 0.75 * pMax);
      table.row({bench::fmt(lambda, 2), bench::fmt(notCompressed15, 4),
                 bench::fmt(notCompressed20, 4), bench::fmt(notExpanded, 4),
                 bench::fmt(ensemble.expectedPerimeter(lambda), 3)});
      csv.writeRow({analysis::formatDouble(lambda),
                    analysis::formatDouble(notCompressed15),
                    analysis::formatDouble(notExpanded),
                    analysis::formatDouble(
                        ensemble.expectedPerimeter(lambda))});
    }
    std::printf(
        "\npaper shape: P(not compressed) decreasing in lambda (Thm 4.5);\n"
        "P(small perimeter) small at lambda <= 2.17 (Thm 5.7).\n");
  }

  // --- exact matrix audits (Lemmas 3.1-3.13 executable, E15) ---
  const int mN = static_cast<int>(bench::envInt("SOPS_EXACT_MATRIX_N", 5));
  bench::banner("E15 / Lemmas 3.9-3.13",
                "transition-matrix audits, n=" + std::to_string(mN));
  core::ChainOptions options;
  options.lambda = 4.0;
  const enumeration::ChainModel model =
      enumeration::buildChainModel(mN, options);
  const markov::BalanceAudit audit = markov::auditDetailedBalance(
      model.matrix, model.edgeWeights(options.lambda), model.holeFree);
  std::printf("states (all connected configs): %zu\n", model.stateCount());
  std::printf("max row defect (stochasticity):  %.2e\n",
              model.matrix.maxRowDefect());
  std::printf("detailed balance vs lambda^e:    %s (max violation %.2e)\n",
              audit.holds ? "HOLDS" : "VIOLATED", audit.maxViolation);
  std::printf(
      "irreducible on Omega*:           %s\n",
      model.matrix.stronglyConnectedWithin(model.holeFree) ? "YES" : "NO");

  // Exact mixing times from the line start (the §3.7 discussion, tiny n).
  bench::banner("§3.7", "exact mixing times t_mix(1/4) from the line start");
  {
    bench::Table table({"n", "lambda", "t_mix(eps=1/4)"});
    for (const int size : {3, 4, 5}) {
      for (const double lambda : {2.0, 4.0}) {
        core::ChainOptions opts;
        opts.lambda = lambda;
        const enumeration::ChainModel m =
            enumeration::buildChainModel(size, opts);
        const std::vector<double> pi =
            markov::normalized(m.edgeWeights(lambda));
        const auto lineIndex = m.indexOfKey.at(
            system::canonicalKey(system::lineConfiguration(size)));
        const int t =
            markov::mixingTimeFrom(m.matrix, lineIndex, pi, 0.25, 1 << 22);
        table.row({bench::fmtInt(size), bench::fmt(lambda, 1),
                   bench::fmtInt(t)});
      }
    }
  }

  // --- sampled chain vs exact pi (validates the simulator end-to-end) ---
  bench::banner("E5 validation", "sampled M vs exact pi (total variation)");
  {
    const int vN = 5;
    const enumeration::ExactEnsemble vEnsemble(vN);
    std::unordered_map<std::string, std::size_t> indexOf;
    for (std::size_t i = 0; i < vEnsemble.configs().size(); ++i) {
      indexOf.emplace(
          system::canonicalKeyFromPoints(vEnsemble.configs()[i].points), i);
    }
    bench::Table table({"lambda", "samples", "TV(sampled, exact)"});
    for (const double lambda : {1.0, 2.0, 4.0}) {
      const std::vector<double> exact = vEnsemble.stationary(lambda);
      core::ChainOptions opts;
      opts.lambda = lambda;
      core::CompressionEngine chain(system::lineConfiguration(vN),
                                    core::CompressionModel(opts), 77);
      chain.run(50000);
      std::vector<double> empirical(exact.size(), 0.0);
      const int samples =
          static_cast<int>(bench::envInt("SOPS_EXACT_SAMPLES", 200000));
      for (int s = 0; s < samples; ++s) {
        chain.run(30);
        empirical[indexOf.at(system::canonicalKey(chain.system()))] +=
            1.0 / samples;
      }
      table.row({bench::fmt(lambda, 1), bench::fmtInt(samples),
                 bench::fmt(markov::totalVariation(empirical, exact), 4)});
    }
    std::printf("\nexpected: TV at the sampling-noise floor (~1e-2).\n");
  }
  return 0;
}

// E14 — Comparison against the leader-based shape-formation line of work
// ([19, 20] in the paper's §1.3): an idealized leader-driven hexagon
// builder reaches exactly p_min deterministically, but requires a leader,
// global coordination, and persistent memory; the paper's Markov chain
// needs none of those and converges stochastically to α·p_min.
#include <cstdio>

#include "analysis/csv.hpp"
#include "baseline/hexagon_builder.hpp"
#include "bench_util.hpp"
#include "core/scenario_models.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

int main(int argc, char** argv) {
  sops::bench::expectNoArgs(argc, argv, "(none)");
  using namespace sops;
  bench::banner("E14 / §1.3",
                "leader-driven hexagon formation vs the stochastic chain");

  analysis::CsvWriter csv(bench::csvPath("baseline.csv"),
                          {"n", "builder_moves", "builder_alpha",
                           "chain_iterations", "chain_alpha"});
  bench::Table table({"n", "builder moves", "builder alpha", "chain iters",
                      "chain alpha", "chain moves"});
  for (const std::int64_t n : {50, 100}) {
    const baseline::HexagonBuildResult built =
        baseline::buildHexagon(system::lineConfiguration(n));
    const double builderAlpha =
        static_cast<double>(system::perimeter(built.finalSystem)) /
        static_cast<double>(system::pMin(n));

    core::ChainOptions options;
    options.lambda = 4.0;
    core::CompressionEngine chain(system::lineConfiguration(n),
                                  core::CompressionModel(options), 1603);
    const double threshold = 1.75 * static_cast<double>(system::pMin(n));
    while (static_cast<double>(system::perimeter(chain.system())) > threshold &&
           chain.stats().steps < static_cast<std::uint64_t>(60000000)) {
      chain.run(static_cast<std::uint64_t>(n) * 200);
    }
    const double chainAlpha =
        static_cast<double>(system::perimeter(chain.system())) /
        static_cast<double>(system::pMin(n));

    table.row({bench::fmtInt(n),
               bench::fmtInt(static_cast<std::int64_t>(built.unitMoves)),
               bench::fmt(builderAlpha, 2),
               bench::fmtInt(static_cast<std::int64_t>(chain.stats().steps)),
               bench::fmt(chainAlpha, 2),
               bench::fmtInt(static_cast<std::int64_t>(
                   chain.stats().movement.accepted))});
    csv.writeRow({std::to_string(n), std::to_string(built.unitMoves),
                  analysis::formatDouble(builderAlpha),
                  std::to_string(chain.stats().steps),
                  analysis::formatDouble(chainAlpha)});
  }
  std::printf(
      "\nassumption comparison (the paper's point, §1.3):\n"
      "  builder: leader + global target + persistent memory, deterministic,\n"
      "           alpha = 1 exactly, O(n^1.5)-ish unit moves.\n"
      "  chain M: anonymous, oblivious (1 bit), self-stabilizing; reaches\n"
      "           alpha-compression w.h.p. for any alpha > 1 (Thm 4.5) at\n"
      "           the cost of more (local, parallelizable) moves.\n");
  return 0;
}

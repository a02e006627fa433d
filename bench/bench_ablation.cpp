// E13 — Design ablations of Algorithm M's step-6 conditions (§3.1): each
// rule is load-bearing.
//   (1) gap condition e != 5      → removing it creates holes (Lemma 3.2 dies)
//   (2) Properties 1 & 2          → removing them disconnects (Lemma 3.1 dies)
//   (2b) Property 2 only removed  → moves become a strict subset (Fig 3 theme)
//   (3) Metropolis filter         → greedy (lambda→inf) gets stuck; lambda=1
//                                   (no bias) never compresses (Thm 5.7)
#include <cstdio>

#include "analysis/csv.hpp"
#include "bench_util.hpp"
#include "core/scenario_models.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace {

struct AblationRow {
  const char* name;
  sops::core::ChainOptions options;
};

}  // namespace

int main(int argc, char** argv) {
  sops::bench::expectNoArgs(argc, argv, "SOPS_ABLATION_N, SOPS_ABLATION_ITERS");
  using namespace sops;
  const auto n = bench::envInt("SOPS_ABLATION_N", 60);
  const auto iterations =
      static_cast<std::uint64_t>(bench::envInt("SOPS_ABLATION_ITERS", 3000000));

  bench::banner("E13 / §3.1", "rule ablations, n=" + std::to_string(n) +
                                  ", line start, " +
                                  std::to_string(iterations) + " iterations");

  core::ChainOptions paper;
  paper.lambda = 4.0;
  core::ChainOptions noGap = paper;
  noGap.enforceGapCondition = false;
  core::ChainOptions noProperties = paper;
  noProperties.enforceProperties = false;
  core::ChainOptions p1Only = paper;
  p1Only.allowProperty2 = false;
  core::ChainOptions greedy = paper;
  greedy.greedy = true;
  core::ChainOptions unbiased = paper;
  unbiased.lambda = 1.0;

  const AblationRow rows[] = {
      {"paper rules (lambda=4)", paper},
      {"no gap condition", noGap},
      {"no properties", noProperties},
      {"P1 only (no Property 2)", p1Only},
      {"greedy (lambda=inf)", greedy},
      {"unbiased (lambda=1)", unbiased},
  };

  analysis::CsvWriter csv(bench::csvPath("ablation.csv"),
                          {"variant", "connected", "holes", "alpha"});
  bench::Table table({"variant", "connected", "holes", "alpha=p/pmin",
                      "accept%"}, 26);
  for (const AblationRow& row : rows) {
    core::CompressionEngine chain(system::lineConfiguration(n),
                                  core::CompressionModel(row.options), 1603);
    // Track the worst violation seen along the trajectory, not just the end
    // state (holes/disconnection can be transient).
    bool everDisconnected = false;
    std::int64_t maxHoles = 0;
    chain.runWithCheckpoints(iterations, iterations / 60, [&](std::uint64_t) {
      everDisconnected |= !system::isConnected(chain.system());
      maxHoles = std::max(maxHoles, static_cast<std::int64_t>(
                                        system::countHoles(chain.system())));
    });
    const bool connectedNow = system::isConnected(chain.system());
    const double alpha =
        connectedNow ? static_cast<double>(system::perimeter(chain.system())) /
                           static_cast<double>(system::pMin(n))
                     : -1.0;
    table.row({row.name, everDisconnected ? "VIOLATED" : "yes",
               bench::fmtInt(maxHoles),
               connectedNow ? bench::fmt(alpha) : "n/a",
               bench::fmt(100.0 * chain.stats().movement.acceptanceRate(),
                          1)});
    csv.writeRow({row.name, everDisconnected ? "0" : "1",
                  std::to_string(maxHoles), analysis::formatDouble(alpha)});
  }
  std::printf(
      "\nexpected: paper rules keep connected/hole-free and compress; the\n"
      "no-gap variant shows holes; the no-properties variant disconnects;\n"
      "greedy stalls above Metropolis; lambda=1 stays expanded.\n");
  return 0;
}

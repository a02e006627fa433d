// perfbench_run — one untraced end-to-end repetition of a workload.
//
//   perfbench_run --workload expand-ckpt --seed 1 --rep 0 --dir DIR
//
// Runs the workload's RunSpec through sim::run with seed repSeed(seed,
// rep), checks every output, and prints one JSON record: the repetition's
// wall, set-up and step count, the process's peak RSS, the check tallies
// and the build/hardware context.  run.py repeats this, one fresh process
// per repetition as a user runs spps, and derives the metrics.
#include <cstdio>
#include <exception>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    requireReleaseBuild();
    const Args args = parseArgs(argc, argv);
    const Workload& workload = findWorkload(args.workload);
    const sops::sim::RunSpec spec =
        makeSpec(workload, repSeed(args.seed, args.rep), args.dir, "run");
    Checks checks;
    const EndToEndRep rep = runEndToEnd(workload, spec, checks);
    std::printf(
        "%s\n",
        recordHeader(args, checks).raw("rep", repJson(rep)).text().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
}

// The fully distributed view: Algorithm A running on the amoebot model
// (§3.2) with per-particle Poisson clocks, private compasses, a 1-bit flag
// memory — and optional crash faults (§3.3) — as the facade's `amoebot`
// scenario.  Execution always goes through the sharded runner (shifted
// word-aligned lattice blocks, symmetric boundary skips), whose
// trajectory is deterministic per seed for every thread count.
//
//   ./examples/distributed_amoebots [key=value ...]
//   (e.g. n=100 threads=4 crash-fraction=0.1 steps=5000000)
#include <cstdio>

#include "sim/runner.hpp"
#include "util/assert.hpp"

namespace {

using namespace sops;

class ProgressObserver : public sim::Observer {
 public:
  void onSample(const sim::Sample& sample) override {
    if (sample.iteration == 0) return;
    // amoebot metric order: perimeter, alpha, sweep_fraction, sim_time.
    std::printf(
        "activations=%-10llu sweep-frac=%-6.3f sim-time=%-9.1f alpha=%.3f\n",
        static_cast<unsigned long long>(sample.iteration), sample.values[2],
        sample.values[3], sample.values[1]);
  }
};

}  // namespace

int main(int argc, char** argv) {
  try {
    sim::ParamMap params = sim::parseKeyValues(
        "scenario=amoebot shape=line n=60 steps=3000000 checkpoint=600000 "
        "seed=2016");
    params.merge(sim::parseArgs(argc, argv));
    const sim::RunSpec spec = sim::RunSpec::fromParams(params);

    const double crashFraction =
        spec.params.getDouble("crash-fraction", 0.0);
    if (crashFraction > 0.0) {
      std::printf("crashing %.0f%% of particles; the rest compress around "
                  "them.\n",
                  crashFraction * 100.0);
    }
    std::printf("running Algorithm A: each particle acts only on its own\n"
                "Poisson clock, sees only its neighborhood, and stores 1 "
                "bit;\n%u block worker(s), same trajectory for every thread "
                "count.\n\n",
                spec.threads);

    ProgressObserver progress;
    sim::ObserverList observers;
    observers.attach(&progress);
    sim::AsciiSnapshotSink ascii(stdout);
    observers.attach(&ascii);
    std::printf("(final configuration renders tails)\n");
    sim::run(spec, observers);
    return 0;
  } catch (const sops::ContractViolation& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

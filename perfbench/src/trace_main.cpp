// perfbench_trace — one traced repetition of a workload.
//
//   perfbench_trace --workload expand-ckpt --seed 1 --rep 0 --dir DIR
//
// Runs the workload's spec twice with the same seed, repSeed(seed, rep):
//
//   1. untraced, through sim::run (the exact call spps makes);
//   2. traced: the same replica loop sim::run performs (runner.cpp's
//      runReplica), spelled out here against each module's public calls
//      so every call can be timed from this file — RunSpec::makeInitial,
//      the engine/runner constructor, BiasedChainEngine::run /
//      ShardedChainRunner::runAtLeast / ShardedPoissonRunner::runAtLeast,
//      the scenario sampler's system::countHoles / system::perimeter,
//      saveState into a SnapshotWriter, system::writeSnapshotFile, and
//      JsonlSink.
//
// The traced run must reproduce the untraced run exactly — every sample
// row, the final metrics and the final snapshot payload, byte for byte —
// which proves it measured the same program.  Whatever the layers do not
// account for is reported as unattributed time.  Timers sit around calls,
// never inside the step loop, so the counts each layer reports (steps,
// rejection stages, sweep events, bytes) depend only on the seed.  Prints
// one JSON record; run.py repeats this and derives the metrics.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "common.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "sim/observer.hpp"
#include "sim/registry.hpp"
#include "system/metrics.hpp"
#include "system/snapshot.hpp"

namespace perfbench {
namespace {

namespace core = sops::core;
namespace sim = sops::sim;
namespace system = sops::system;
namespace amoebot = sops::amoebot;

template <typename F>
double timed(F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  return secondsSince(start);
}

/// The resume key sim::run writes at the head of every snapshot payload
/// (runner.cpp's resumeCompatText); a mismatch shows up as a payload
/// difference in the equivalence check.
[[nodiscard]] std::string compatText(const sim::RunSpec& spec) {
  std::string out = "scenario=" + spec.scenario + " shape=" + spec.shape +
                    " n=" + std::to_string(spec.n) +
                    " seed=" + std::to_string(spec.seed) +
                    " engine=" + (spec.threads > 1 ? "sharded" : "sequential");
  std::vector<std::pair<std::string, std::string>> entries;
  for (const auto& [key, value] : spec.params.entries()) {
    entries.emplace_back(key, value);
  }
  std::sort(entries.begin(), entries.end());
  for (const auto& [key, value] : entries) out += " " + key + "=" + value;
  return out;
}

[[nodiscard]] core::ChainOptions chainOptions(const sim::RunSpec& spec) {
  core::ChainOptions options;
  options.lambda = spec.params.getDouble("lambda", options.lambda);
  return options;
}

/// The compression scenario's sampler, call for call (scenarios.cpp).
template <typename Chain>
void sampleCompression(const Chain& chain, std::vector<double>& out) {
  const system::ParticleSystem& sys = chain.system();
  const std::int64_t holes = system::countHoles(sys);
  const std::int64_t perimeter = system::perimeterFromCounts(
      static_cast<std::int64_t>(sys.size()), chain.edges(), holes);
  out.push_back(static_cast<double>(chain.edges()));
  out.push_back(static_cast<double>(perimeter));
  out.push_back(static_cast<double>(perimeter) /
                static_cast<double>(
                    system::pMin(static_cast<std::int64_t>(sys.size()))));
  out.push_back(chain.stats().movement.acceptanceRate());
  out.push_back(static_cast<double>(holes));
}

using ShardedRunner = core::ShardedChainRunner<core::CompressionModel>;

/// A compression chain as the scenario builds it: the sequential engine at
/// threads <= 1 (core.engine layer), the sharded runner above (core.sharded
/// layer).  Both expose the same system/edges/stats/saveState surface.
template <typename Chain>
struct ChainRun {
  static constexpr bool kSharded = std::is_same_v<Chain, ShardedRunner>;
  static constexpr const char* kLayer =
      kSharded ? "core.sharded" : "core.engine";

  static Chain make(system::ParticleSystem initial, const sim::RunSpec& spec) {
    core::CompressionModel model(chainOptions(spec));
    if constexpr (kSharded) {
      core::ShardedChainOptions options;
      options.threads = spec.threads;
      return Chain(std::move(initial), std::move(model), spec.seed, options);
    } else {
      return Chain(std::move(initial), std::move(model), spec.seed);
    }
  }

  ChainRun(system::ParticleSystem initial, const sim::RunSpec& spec)
      : chain(make(std::move(initial), spec)) {}

  void advance(std::uint64_t steps) {
    if constexpr (kSharded) {
      chain.runAtLeast(steps);
    } else {
      chain.run(steps);
    }
  }
  [[nodiscard]] std::uint64_t stepsDone() const { return chain.stats().steps; }
  void sample(std::vector<double>& out) const { sampleCompression(chain, out); }
  void save(system::SnapshotWriter& w) const { chain.saveState(w); }
  [[nodiscard]] system::ParticleSystem snapshot() const {
    return chain.system();
  }
  [[nodiscard]] std::string regime() const {
    return chain.system().regimeName();
  }
  void check(Checks& checks, std::size_t n, const std::string& where) const {
    checkConfiguration(checks, chain.system(), n, chain.edges(), where);
  }
  void counts(JsonObject& o) const {
    const core::EngineStats& stats = chain.stats();
    o.num("steps", stats.steps)
        .num("movement_steps", stats.movement.steps)
        .num("accepted", stats.movement.accepted)
        .num("target_occupied", stats.movement.targetOccupied)
        .num("rejected_gap", stats.movement.rejectedGap)
        .num("rejected_property", stats.movement.rejectedProperty)
        .num("rejected_filter", stats.movement.rejectedFilter);
    if constexpr (kSharded) {
      o.num("sweep_events", chain.sweepEvents())
          .num("epoch_target", chain.epochTarget());
    }
  }

  Chain chain;
};

/// Algorithm A on the sharded Poisson runner (amoebot layer), built as the
/// amoebot scenario builds it.  Not movable: the runner holds references
/// to the system and the algorithm.
struct AmoebotRun {
  static constexpr const char* kLayer = "amoebot";

  static amoebot::ShardedOptions options(const sim::RunSpec& spec) {
    amoebot::ShardedOptions o;
    o.threads = spec.threads;
    return o;
  }

  AmoebotRun(const system::ParticleSystem& initial, const sim::RunSpec& spec)
      : sysRng(spec.seed),
        sys(initial, sysRng),
        algo({spec.params.getDouble("lambda", 4.0)}),
        runner(sys, algo, spec.seed + 2, options(spec)) {}
  AmoebotRun(const AmoebotRun&) = delete;
  AmoebotRun& operator=(const AmoebotRun&) = delete;

  void advance(std::uint64_t steps) { runner.runAtLeast(steps); }
  [[nodiscard]] std::uint64_t stepsDone() const { return runner.activations(); }
  /// The amoebot scenario's sampler, call for call.
  void sample(std::vector<double>& out) const {
    const system::ParticleSystem tails = sys.tailConfiguration();
    const double pMin = static_cast<double>(
        system::pMin(static_cast<std::int64_t>(tails.size())));
    out.push_back(static_cast<double>(system::perimeter(tails)));
    out.push_back(static_cast<double>(system::perimeter(tails)) / pMin);
    out.push_back(runner.activations() == 0
                      ? 0.0
                      : static_cast<double>(runner.sweepActivations()) /
                            static_cast<double>(runner.activations()));
    out.push_back(runner.now());
  }
  void save(system::SnapshotWriter& w) const {
    sys.saveState(w);
    runner.saveState(w);
  }
  [[nodiscard]] system::ParticleSystem snapshot() const {
    return sys.tailConfiguration();
  }
  [[nodiscard]] std::string regime() const { return sys.regimeName(); }
  void check(Checks& checks, std::size_t n, const std::string& where) const {
    checkConfiguration(checks, sys.tailConfiguration(), n, -1, where);
  }
  void counts(JsonObject& o) const {
    o.num("steps", runner.activations())
        .num("sweep_activations", runner.sweepActivations())
        .num("epoch_target", runner.epochTarget());
  }

  sops::rng::Random sysRng;
  amoebot::AmoebotSystem sys;
  amoebot::LocalCompressionAlgorithm algo;
  amoebot::ShardedPoissonRunner runner;
};

/// Per-layer busy time, per-call latencies and seed-only counts of one
/// traced repetition.
struct LayerTrace {
  std::string layer;
  double wallSeconds = 0.0;  ///< entry to return, minus check time
  double makeInitialSeconds = 0.0;
  double startSeconds = 0.0;
  double chainSeconds = 0.0;
  double metricsSeconds = 0.0;
  double snapshotSeconds = 0.0;
  double sinkSeconds = 0.0;
  std::vector<double> sampleMs;
  std::vector<double> serializeMs;
  std::vector<double> writeMs;
  std::vector<double> sinkMs;
  std::uint64_t snapshotBytes = 0;
  std::uint64_t sinkBytes = 0;
  JsonObject counts;

  std::uint64_t steps = 0;
  SampleLog samples;
  std::vector<double> finalMetrics;
  std::vector<std::uint8_t> lastPayload;
};

/// sim::run + runReplica for one replica, with a timer around every call
/// into a layer.  Per-sample configuration checks are timed too and taken
/// out of the wall time.
template <typename Run>
LayerTrace driveTraced(const sim::RunSpec& spec, Checks& checks) {
  LayerTrace t;
  t.layer = Run::kLayer;
  double checkSeconds = 0.0;
  const Clock::time_point entry = Clock::now();

  spec.validate();
  const sim::Scenario& scenario = sim::Registry::instance().get(spec.scenario);
  if (!spec.jsonlPath.empty()) sim::preflightWritableSink(spec.jsonlPath);
  if (!spec.snapshotPath.empty()) {
    sim::preflightWritableSink(spec.snapshotPath);
  }
  sim::RunHeader header;
  header.spec = &spec;
  header.metricNames = scenario.metricNames();
  t.samples.names = header.metricNames;
  std::optional<sim::JsonlSink> sink;
  if (!spec.jsonlPath.empty()) {
    t.sinkSeconds += timed([&] {
      sink.emplace(spec.jsonlPath);
      sink->onRunBegin(header);
    });
  }

  system::ParticleSystem initial;
  t.makeInitialSeconds = timed([&] { initial = spec.makeInitial(spec.seed); });
  const std::size_t particles = initial.size();
  std::unique_ptr<Run> run;
  t.startSeconds = timed([&] {
    run = std::make_unique<Run>(std::move(initial), spec);
  });

  std::vector<double> values;
  const auto sample = [&] {
    values.clear();
    const double s = timed([&] { run->sample(values); });
    t.metricsSeconds += s;
    t.sampleMs.push_back(1e3 * s);
    const std::uint64_t step = run->stepsDone();
    t.samples.iterations.push_back(step);
    t.samples.rows.push_back(values);
    checkSeconds += timed([&] {
      run->check(checks, particles,
                 "traced sample at step " + std::to_string(step));
    });
    if (sink) {
      const double w =
          timed([&] { sink->onSample(sim::Sample{0, step, values}); });
      t.sinkSeconds += w;
      t.sinkMs.push_back(1e3 * w);
    }
  };
  system::SnapshotWriter lastSnapshot;
  const auto snapshot = [&] {
    if (spec.snapshotPath.empty()) return;
    system::SnapshotWriter writer;
    const double s = timed([&] {
      writer.str(compatText(spec));
      writer.u64(0);
      writer.u64(run->stepsDone());
      run->save(writer);
    });
    const double w = timed([&] {
      system::writeSnapshotFile(spec.snapshotPath, writer.payload());
    });
    t.snapshotSeconds += s + w;
    t.serializeMs.push_back(1e3 * s);
    t.writeMs.push_back(1e3 * w);
    lastSnapshot = std::move(writer);  // O(1): no copy inside the wall time
  };

  sample();
  snapshot();
  const std::uint64_t chunk = spec.checkpointEvery > 0
                                  ? spec.checkpointEvery
                                  : std::max<std::uint64_t>(spec.steps, 1);
  while (run->stepsDone() < spec.steps) {
    const std::uint64_t burst = std::min(chunk, spec.steps - run->stepsDone());
    t.chainSeconds += timed([&] { run->advance(burst); });
    sample();
    snapshot();
  }

  sim::ReplicaSummary summary;
  summary.replica = 0;
  summary.label = spec.scenario + " seed=" + std::to_string(spec.seed);
  summary.seed = spec.seed;
  summary.steps = run->stepsDone();
  summary.regime = run->regime();
  const double finalSample = timed([&] { run->sample(summary.finalMetrics); });
  t.metricsSeconds += finalSample;
  t.sampleMs.push_back(1e3 * finalSample);
  const system::ParticleSystem finalSystem = run->snapshot();
  summary.finalSystem = &finalSystem;
  summary.wallSeconds = secondsSince(entry);
  if (sink) {
    t.sinkSeconds += timed([&] {
      sink->onReplicaEnd(summary);
      sink->onRunEnd();
      sink.reset();
    });
  }
  t.steps = summary.steps;
  t.finalMetrics = summary.finalMetrics;
  run->counts(t.counts);
  run.reset();
  t.wallSeconds = secondsSince(entry) - checkSeconds;
  t.lastPayload = lastSnapshot.payload();

  if (!spec.jsonlPath.empty()) {
    t.sinkBytes = std::filesystem::file_size(spec.jsonlPath);
  }
  if (!spec.snapshotPath.empty()) {
    t.snapshotBytes = std::filesystem::file_size(spec.snapshotPath);
  }
  return t;
}

[[nodiscard]] LayerTrace traced(const sim::RunSpec& spec, Checks& checks) {
  removeSinkFiles(spec);
  if (spec.scenario == "amoebot") {
    return driveTraced<AmoebotRun>(spec, checks);
  }
  if (spec.threads > 1) {
    return driveTraced<ChainRun<ShardedRunner>>(spec, checks);
  }
  return driveTraced<ChainRun<core::CompressionEngine>>(spec, checks);
}

/// The traced run must be the untraced run: same sample stream, same final
/// metrics, same final snapshot payload.
void checkEquivalent(Checks& checks, const sim::RunSpec& untracedSpec,
                     const EndToEndRep& untraced, const LayerTrace& t) {
  const std::string seed = " (seed " + std::to_string(untraced.seed) + ")";
  checks.expect(t.samples.iterations == untraced.samples.iterations,
                "traced sample steps differ" + seed);
  checks.expect(t.samples.rows == untraced.samples.rows,
                "traced sample values differ" + seed);
  checks.expect(t.finalMetrics == untraced.finalMetrics,
                "traced final metrics differ" + seed);
  checks.expect(t.steps == untraced.steps, "traced step count differs" + seed);
  if (untracedSpec.snapshotPath.empty()) return;
  try {
    const system::SnapshotData data =
        system::readSnapshotFile(untracedSpec.snapshotPath);
    checks.expect(data.payload == t.lastPayload,
                  "traced final snapshot payload differs" + seed);
  } catch (const std::exception& e) {
    checks.expect(false, std::string("snapshot read-back: ") + e.what());
  }
}

[[nodiscard]] std::string traceJson(const LayerTrace& t,
                                    double untracedWallSeconds) {
  return JsonObject()
      .str("layer", t.layer)
      .num("untraced_wall_s", untracedWallSeconds)
      .num("wall_s", t.wallSeconds)
      .num("make_initial_s", t.makeInitialSeconds)
      .num("start_s", t.startSeconds)
      .num("chain_s", t.chainSeconds)
      .num("metrics_s", t.metricsSeconds)
      .num("snapshot_s", t.snapshotSeconds)
      .num("sink_s", t.sinkSeconds)
      .nums("sample_ms", t.sampleMs)
      .nums("serialize_ms", t.serializeMs)
      .nums("write_ms", t.writeMs)
      .nums("sink_ms", t.sinkMs)
      .num("snapshot_bytes", t.snapshotBytes)
      .num("sink_bytes", t.sinkBytes)
      .raw("counts", t.counts.text())
      .text();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    requireReleaseBuild();
    const Args args = parseArgs(argc, argv);
    const Workload& workload = findWorkload(args.workload);
    const std::uint64_t seed = repSeed(args.seed, args.rep);
    const sim::RunSpec untracedSpec =
        makeSpec(workload, seed, args.dir, "untraced");
    const sim::RunSpec tracedSpec =
        makeSpec(workload, seed, args.dir, "traced");
    // The first run in a process pays its cold start, so the order
    // alternates with the repetition and the overhead median is fair.
    Checks checks;
    EndToEndRep rep;
    LayerTrace t;
    if (args.rep % 2 == 0) {
      rep = runEndToEnd(workload, untracedSpec, checks);
      t = traced(tracedSpec, checks);
    } else {
      t = traced(tracedSpec, checks);
      rep = runEndToEnd(workload, untracedSpec, checks);
    }
    checkEquivalent(checks, untracedSpec, rep, t);
    std::printf("%s\n", recordHeader(args, checks)
                            .raw("rep", repJson(rep))
                            .raw("traced", traceJson(t, rep.wallSeconds))
                            .text()
                            .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
}

// sim::run's replica loop: sample, snapshot and advance one replica per
// checkpoint, with checkpoint files written by a background writer that
// overlaps each framed, fsynced write with the next advance (see
// BackgroundSnapshotWriter and DESIGN.md §Durable runs).
#include "sim/runner.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ensemble.hpp"
#include "sim/registry.hpp"
#include "system/snapshot.hpp"
#include "util/assert.hpp"

namespace sops::sim {
namespace {

/// Per-replica MemorySink event budget for the multi-replica fan-out.  A
/// steps/checkpoint ratio that buffers millions of rows per replica is a
/// spec mistake (stream single-replica runs instead); the cap turns the
/// slow OOM into an immediate, named error.
constexpr std::size_t kMaxBufferedEventsPerReplica = std::size_t{1} << 22;

/// The canonical trajectory-identity key of a spec: the fields a snapshot
/// is only valid under.  Steps, checkpoint cadence, sinks, deadline, and
/// the exact thread *count* may change between save and resume; scenario,
/// shape, n, seed, the scenario parameters, and the engine the run takes
/// (ScenarioRun::sharded(): a chain scenario's sharded runner only at
/// threads > 1, the amoebot runner at every count) may not.  Scenario
/// params are sorted so spelling order cannot matter.
[[nodiscard]] std::string resumeCompatText(const RunSpec& spec,
                                           const ScenarioRun& run) {
  std::string out = "scenario=" + spec.scenario + " shape=" + spec.shape +
                    " n=" + std::to_string(spec.n) +
                    " seed=" + std::to_string(spec.seed) +
                    " engine=" + (run.sharded() ? "sharded" : "sequential");
  std::vector<std::pair<std::string, std::string>> entries;
  for (const auto& [key, value] : spec.params.entries()) {
    entries.emplace_back(key, value);
  }
  std::sort(entries.begin(), entries.end());
  for (const auto& [key, value] : entries) out += " " + key + "=" + value;
  return out;
}

/// Writes checkpoint snapshots off the run thread: the chain advances to
/// checkpoint k+1 while checkpoint k's framed, fsynced write
/// (system::writeSnapshotFile) runs on a worker.  At most one write is in
/// flight — submit() first waits for the previous one and rethrows its
/// error — so the durable state trails the run by at most two
/// checkpoints, and drain() makes it the last one submitted.  The
/// destructor waits for the in-flight write, so an exception unwinding the
/// run never leaves a write running; that write's own error is dropped
/// then, behind the one already propagating.
class BackgroundSnapshotWriter {
 public:
  explicit BackgroundSnapshotWriter(std::string path)
      : path_(std::move(path)) {}
  ~BackgroundSnapshotWriter() {
    if (pending_.valid()) pending_.wait();
  }
  BackgroundSnapshotWriter(const BackgroundSnapshotWriter&) = delete;
  BackgroundSnapshotWriter& operator=(const BackgroundSnapshotWriter&) =
      delete;

  void submit(std::vector<std::uint8_t> payload) {
    drain();
    pending_ = std::async(std::launch::async,
                          [path = path_, payload = std::move(payload)] {
                            system::writeSnapshotFile(path, payload);
                          });
  }

  /// Waits for the in-flight write, if any, and rethrows its error.
  void drain() {
    if (pending_.valid()) pending_.get();
  }

 private:
  std::string path_;
  std::future<void> pending_;
};

/// Calls fn(configuration) with the run's current configuration: borrowed
/// when the run holds one (ScenarioRun::liveSystem), else its snapshot().
template <typename Fn>
void withConfiguration(const ScenarioRun& run, const Fn& fn) {
  if (const system::ParticleSystem* live = run.liveSystem()) {
    fn(*live);
    return;
  }
  fn(run.snapshot());
}

/// Runs one replica to completion, streaming into `observer`.  Returns the
/// replica's summary (without the finalSystem pointer, which is only valid
/// during the onReplicaEnd call).
ReplicaSummary runReplica(const RunSpec& spec, const Scenario& scenario,
                          std::size_t replica, unsigned scenarioThreads,
                          Observer& observer, const StopWhen& stopWhen,
                          const core::CancelToken* cancel, bool* sawCancel) {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t seed = spec.replicaSeed(replica);
  const std::unique_ptr<ScenarioRun> run =
      scenario.start(spec, seed, scenarioThreads);
  run->setCancelToken(cancel);

  if (!spec.resumePath.empty()) {
    SOPS_REQUIRE(run->supportsSnapshots(),
                 "scenario '" + spec.scenario + "' does not support resume");
    const system::SnapshotData snapshot =
        system::loadResumableSnapshot(spec.resumePath);
    system::SnapshotReader reader(snapshot.payload, snapshot.version);
    const std::string storedCompat = reader.str();
    const std::string expectedCompat = resumeCompatText(spec, *run);
    SOPS_REQUIRE(storedCompat == expectedCompat,
                 "resume: snapshot " + spec.resumePath +
                     " was written by an incompatible spec\n  snapshot: " +
                     storedCompat + "\n  current:  " + expectedCompat);
    const std::uint64_t storedReplica = reader.u64();
    SOPS_REQUIRE(storedReplica == replica,
                 "resume: snapshot holds replica " +
                     std::to_string(storedReplica));
    const std::uint64_t storedSteps = reader.u64();
    run->restoreState(reader);
    reader.finish();
    SOPS_REQUIRE(run->stepsDone() == storedSteps,
                 "resume: restored run reports " +
                     std::to_string(run->stepsDone()) +
                     " steps but the snapshot recorded " +
                     std::to_string(storedSteps));
  }

  // Atomic checkpoint snapshot: the full trajectory-identity key plus the
  // run's complete evolving state, taken after every advance and at the
  // cancellation point.  Serializing captures step k here, before the
  // chain moves on; the file write runs in the background, so while the
  // run is in flight the newest durable state is at most two checkpoints
  // old, and the drain after the loop makes it the last one.
  BackgroundSnapshotWriter snapshotWriter(spec.snapshotPath);
  const auto writeSnapshot = [&] {
    if (spec.snapshotPath.empty()) return;
    SOPS_REQUIRE(run->supportsSnapshots(),
                 "scenario '" + spec.scenario +
                     "' does not support snapshot-file");
    system::SnapshotWriter writer;
    writer.str(resumeCompatText(spec, *run));
    writer.u64(replica);
    writer.u64(run->stepsDone());
    run->saveState(writer);
    snapshotWriter.submit(std::move(writer).take());
  };

  // Enforced here, once, for every consumer (sinks, StopWhen, reports):
  // a scenario emitting a different number of values than it declared
  // would otherwise misalign CSV columns and JSONL keys silently.
  const std::size_t metricCount = scenario.metricNames().size();

  std::vector<double> values;
  const auto sample = [&] {
    values.clear();
    run->sampleMetrics(values);
    SOPS_REQUIRE(values.size() == metricCount,
                 "scenario '" + spec.scenario + "' sampled " +
                     std::to_string(values.size()) + " values but declared " +
                     std::to_string(metricCount) + " metrics");
    const Sample s{replica, run->stepsDone(), values};
    observer.onSample(s);
    return stopWhen != nullptr && stopWhen(s);
  };

  // Iteration-0 row (or, resumed, the restored checkpoint's row): the
  // start of every curve.
  bool stopped = sample();
  const auto snapshotToObserver = [&] {
    if (!spec.snapshots) return;
    withConfiguration(*run, [&](const system::ParticleSystem& sys) {
      observer.onSnapshot(replica, run->stepsDone(), sys);
    });
  };
  snapshotToObserver();
  // Baseline snapshot before any work: from here on a resumable snapshot
  // exists on disk no matter when the process dies or is cancelled.
  writeSnapshot();
  const std::uint64_t chunk =
      spec.checkpointEvery > 0 ? spec.checkpointEvery
                               : std::max<std::uint64_t>(spec.steps, 1);
  while (!stopped && run->stepsDone() < spec.steps) {
    if (core::isCancelled(cancel)) {
      *sawCancel = true;
      break;
    }
    run->advance(std::min(chunk, spec.steps - run->stepsDone()));
    // Poll after the advance too: a cancelled advance may have returned
    // early (even with zero progress), and looping without the check
    // would spin.  Sample and snapshot the partial state first — it is
    // consistent and exactly the state a resume continues from.
    const bool cancelled = core::isCancelled(cancel);
    stopped = sample();
    snapshotToObserver();
    writeSnapshot();
    if (cancelled) {
      *sawCancel = true;
      break;
    }
  }

  // Every exit (the last step, a StopWhen stop, a cancellation) reaches
  // here: when the run returns, the primary snapshot holds its last step.
  snapshotWriter.drain();

  ReplicaSummary summary;
  summary.replica = replica;
  summary.label = spec.scenario + " seed=" + std::to_string(seed);
  summary.seed = seed;
  summary.steps = run->stepsDone();
  summary.regime = run->regime();
  summary.counts = run->counts();
  // Every exit follows a sample of the state it leaves (the iteration-0
  // row, or the one after the last advance), so the final metrics are
  // that sample's checked values, not a second pass over the same state.
  summary.finalMetrics = values;
  summary.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  withConfiguration(*run, [&](const system::ParticleSystem& sys) {
    summary.finalSystem = &sys;
    observer.onReplicaEnd(summary);
  });
  summary.finalSystem = nullptr;
  return summary;
}

}  // namespace

double RunReport::finalMetric(std::size_t replica,
                              std::string_view name) const {
  SOPS_REQUIRE(replica < replicas.size(), "replica index out of range");
  SOPS_REQUIRE(replicas[replica].finalMetrics.size() == metricNames.size(),
               "replica " + std::to_string(replica) +
                   " has no final metrics (cancelled before start)");
  for (std::size_t i = 0; i < metricNames.size(); ++i) {
    if (metricNames[i] == name) return replicas[replica].finalMetrics[i];
  }
  throw ContractViolation("unknown metric '" + std::string(name) + "'");
}

RunReport run(const RunSpec& spec, Observer& extra, const StopWhen& stopWhen,
              core::CancelToken* cancel) {
  spec.validate();
  const Scenario& scenario = Registry::instance().get(spec.scenario);

  // Preflight every sink path before any compute: an unwritable path
  // should fail in milliseconds, not after the run (the SVG sink, for
  // one, only opens its file at the end of replica 0).
  if (!spec.csvPath.empty()) preflightWritableSink(spec.csvPath);
  if (!spec.jsonlPath.empty()) preflightWritableSink(spec.jsonlPath);
  if (!spec.svgPath.empty()) preflightWritableSink(spec.svgPath);
  if (!spec.snapshotPath.empty()) preflightWritableSink(spec.snapshotPath);

  // The spec's deadline arms the caller's token when there is one (so a
  // signal handler and the deadline share a flag), an internal one
  // otherwise.
  core::CancelToken deadlineToken;
  core::CancelToken* token = cancel;
  if (spec.deadlineMs > 0) {
    if (token == nullptr) token = &deadlineToken;
    token->setDeadlineMs(spec.deadlineMs);
  }

  ObserverList observers;
  observers.attach(&extra);
  std::unique_ptr<CsvSink> csv;
  std::unique_ptr<JsonlSink> jsonl;
  std::unique_ptr<SvgSink> svg;
  if (!spec.csvPath.empty()) {
    csv = std::make_unique<CsvSink>(spec.csvPath);
    observers.attach(csv.get());
  }
  if (!spec.jsonlPath.empty()) {
    jsonl = std::make_unique<JsonlSink>(spec.jsonlPath);
    observers.attach(jsonl.get());
  }
  if (!spec.svgPath.empty()) {
    svg = std::make_unique<SvgSink>(spec.svgPath);
    observers.attach(svg.get());
  }

  RunHeader header;
  header.spec = &spec;
  header.metricNames = scenario.metricNames();

  RunReport report;
  report.metricNames = header.metricNames;
  observers.onRunBegin(header);

  bool cancelled = false;
  if (spec.replicas == 1) {
    // Inline: stream live, scenario gets the whole thread budget.
    report.replicas.push_back(runReplica(spec, scenario, 0, spec.threads,
                                         observers, stopWhen, token,
                                         &cancelled));
  } else {
    // Fan out replicas across the ensemble pool; each worker buffers its
    // replica's events, replayed in replica order after the join so the
    // observer stream is deterministic and thread-count independent.
    // Cancellation skips replicas not yet claimed (their buffers stay
    // empty, so the sinks see nothing from them) and interrupts running
    // ones at their next checkpoint.
    std::vector<MemorySink> buffers;
    buffers.reserve(spec.replicas);
    for (std::uint32_t r = 0; r < spec.replicas; ++r) {
      buffers.emplace_back(kMaxBufferedEventsPerReplica);
    }
    std::vector<ReplicaSummary> summaries(spec.replicas);
    std::vector<char> completed(spec.replicas, 0);
    std::vector<char> replicaCancelled(spec.replicas, 0);
    core::parallelForIndex(
        spec.replicas, spec.threads, token, [&](std::size_t r) {
          bool saw = false;
          summaries[r] = runReplica(spec, scenario, r, /*scenarioThreads=*/1,
                                    buffers[r], stopWhen, token, &saw);
          completed[r] = 1;
          replicaCancelled[r] = saw ? 1 : 0;
        });
    for (std::size_t r = 0; r < buffers.size(); ++r) {
      buffers[r].replayInto(observers);
      if (!completed[r] || replicaCancelled[r]) cancelled = true;
      if (!completed[r]) {
        // Never claimed (cancelled before start): identify the slot but
        // leave finalMetrics empty — finalMetric() rejects it loudly.
        summaries[r].replica = r;
        summaries[r].seed = spec.replicaSeed(r);
        summaries[r].label = spec.scenario +
                             " seed=" + std::to_string(summaries[r].seed) +
                             " (cancelled before start)";
      }
      report.replicas.push_back(std::move(summaries[r]));
    }
  }
  observers.onRunEnd();
  // The flag observed by the replica loops, not the token's state now: a
  // deadline that fires after the last step finished did not cancel
  // anything.
  report.cancelled = cancelled;
  return report;
}

RunReport run(const RunSpec& spec) {
  Observer none;
  return run(spec, none);
}

}  // namespace sops::sim

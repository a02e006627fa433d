#ifndef SOPS_SIM_RUNNER_HPP
#define SOPS_SIM_RUNNER_HPP

/// \file runner.hpp
/// The one dispatcher from a RunSpec to execution.
///
/// sim::run() validates the spec against the registry, builds the sinks
/// the spec names (csv/jsonl/svg), and routes to the right execution
/// shape:
///
///   replicas == 1  →  the replica runs inline on the caller's thread,
///                     streaming samples live; the scenario receives the
///                     spec's thread budget (the amoebot scenario uses it
///                     for its block workers — the sharded path);
///   replicas  > 1  →  replicas fan out across core::parallelForIndex
///                     (core/ensemble.hpp), each worker buffering its
///                     replica's events in a MemorySink;
///                     after the join the events replay into the observer
///                     in replica order, so sink output is deterministic
///                     and thread-count independent.
///
/// Checkpoint cadence: metrics are sampled at iteration 0, after every
/// `checkpoint` steps (when set), and after the final step.
///
/// Durable runs: with `snapshot-file=` set (replicas=1), the runner takes
/// an atomic binary snapshot of the replica's complete state after every
/// checkpoint and at the cancellation point; `resume=` restores one and
/// continues the identical trajectory.  The state is serialized on the run
/// thread and written by one background writer while the chain moves on,
/// so mid-run the file trails by at most two checkpoints; every exit
/// drains the writer, so when run() returns the snapshot holds the last
/// step.  A CancelToken (caller-supplied or
/// armed from `deadline-ms=`) makes the whole run cooperatively
/// interruptible.  See DESIGN.md §Durable runs.

#include <functional>

#include "core/cancel.hpp"
#include "sim/observer.hpp"
#include "sim/run_spec.hpp"

namespace sops::sim {

/// Early-stop predicate, evaluated after every checkpoint sample; true
/// ends that replica.
///
/// **Concurrency contract.**  sim::run() holds ONE StopWhen and, when
/// replicas > 1, invokes it concurrently and unsynchronized from every
/// ensemble worker — there is no per-replica copy and the runner takes
/// no lock around the call.  The callable must therefore be re-entrant:
/// either a pure function of the Sample it is handed (captures read-only
/// state fixed before the run — the shape every in-tree caller uses, see
/// bench_scaling), or one whose captured state is itself synchronized
/// (std::atomic counters, a mutex the callable takes).  Capturing plain
/// mutable state (a `double best`, a growing vector) is a data race,
/// reported by TSan and pinned by SimRunner.StopWhenSharedAcrossWorkers.
/// Each replica stops independently: returning true ends only the
/// replica whose sample was passed.
///
/// **StopWhen vs CancelToken.**  StopWhen is a *data-driven successful
/// stop*: the replica reached its target (α below threshold, metric
/// converged), its summary is complete, and no snapshot is owed.  A
/// CancelToken is an *externally-driven resumable abort* (signal,
/// deadline, controlling thread): it stops every replica at the next safe
/// point, marks the report cancelled, and — with snapshot-file set —
/// leaves a snapshot the same spec can resume from.  Use StopWhen to
/// express "done", a CancelToken to express "stop for now".
using StopWhen = std::function<bool(const Sample&)>;

struct RunReport {
  std::vector<std::string> metricNames;
  /// One summary per replica, in replica order (finalSystem is null here;
  /// attach an observer to capture final configurations).  A cancelled
  /// multi-replica run still has one entry per replica: replicas the pool
  /// never started carry their index/seed/label but empty finalMetrics.
  std::vector<ReplicaSummary> replicas;
  /// True when a cancel token (caller-supplied or deadline-armed) tripped
  /// before the run finished — the summaries describe partial work.
  bool cancelled = false;

  /// Value of a named final metric for one replica.
  [[nodiscard]] double finalMetric(std::size_t replica,
                                   std::string_view name) const;
};

/// Runs the spec end to end, streaming through `extra` (plus the sinks the
/// spec itself names).  Throws ContractViolation on an invalid spec.
///
/// `cancel`, when non-null, is polled at every safe point (and handed to
/// the scenario runs, which poll at burst/epoch granularity); the spec's
/// deadline-ms, when set, is armed on it — or on an internal token when
/// the caller passes none.  On cancellation the report comes back with
/// cancelled=true and, when snapshot-file is set, a resumable snapshot on
/// disk at the cancellation point.
RunReport run(const RunSpec& spec, Observer& extra,
              const StopWhen& stopWhen = nullptr,
              core::CancelToken* cancel = nullptr);

/// Same, with no caller observer (spec sinks only).
RunReport run(const RunSpec& spec);

}  // namespace sops::sim

#endif  // SOPS_SIM_RUNNER_HPP

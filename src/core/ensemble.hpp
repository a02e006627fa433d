#ifndef SOPS_CORE_ENSEMBLE_HPP
#define SOPS_CORE_ENSEMBLE_HPP

/// \file ensemble.hpp
/// Thread-pooled replica ensembles of the Markov chain M.
///
/// The paper's experiments — and every parameter study built on them — are
/// grids: λ-sweeps × seed ensembles × system sizes, each replica tens of
/// millions of independent chain steps (Figs 2, 10; §3.7; §6).  Replicas
/// share nothing (each owns its ParticleSystem, RNG, and decision tables),
/// so runEnsemble() simply work-steals specs from an atomic counter across
/// a pool of threads and fills a result slot per spec.
///
/// Determinism: a replica's trajectory depends only on its spec (seed,
/// options, initial configuration) — never on the thread that ran it or on
/// how many threads the pool had.  Results come back in spec order.
///
/// Checkpoint callbacks (observable / stopWhen / observer) run on the
/// worker thread that owns the replica and must only touch that replica's
/// state plus whatever thread-safe storage the caller provides.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/compression_chain.hpp"
#include "system/particle_system.hpp"

namespace sops::core {

/// One independent chain replica: what to run and what to record.
struct ReplicaSpec {
  /// Free-form tag carried into the result (e.g. "lambda=4.0 seed=7").
  std::string label;
  ChainOptions options;
  std::uint64_t seed = 1;
  /// Total iterations of M (an early stopWhen may end the replica sooner).
  std::uint64_t iterations = 0;
  /// Sampling period for observable/stopWhen/observer; 0 runs one chunk.
  std::uint64_t checkpointEvery = 0;
  /// Builds the initial configuration.  Invoked on the worker thread, so
  /// expensive generators also parallelize; must be safe to call
  /// concurrently with the other specs' factories.
  std::function<system::ParticleSystem()> makeInitial;
  /// Sampled at every checkpoint (and after the final step) into
  /// ReplicaResult::samples.
  std::function<double(const CompressionChain&)> observable;
  /// Early-stop predicate, checked at every checkpoint.
  std::function<bool(const CompressionChain&, std::uint64_t done)> stopWhen;
  /// Arbitrary per-checkpoint hook (ASCII snapshots, custom series, ...).
  std::function<void(const CompressionChain&, std::uint64_t done)> observer;
};

struct ReplicaSample {
  std::uint64_t iteration = 0;
  double value = 0.0;
};

struct ReplicaResult {
  std::size_t index = 0;  ///< position of the spec in the input vector
  std::string label;
  std::uint64_t seed = 0;
  double lambda = 0.0;
  std::uint64_t iterationsRun = 0;
  bool stoppedEarly = false;
  std::int64_t edges = 0;
  ChainStats stats;
  std::vector<ReplicaSample> samples;
  /// Final configuration (empty when EnsembleOptions::keepFinalSystems is
  /// false — large sweeps that only need scalars can skip the copies).
  system::ParticleSystem finalSystem;
  double wallSeconds = 0.0;
};

struct EnsembleOptions {
  /// Worker threads; 0 uses std::thread::hardware_concurrency().
  unsigned threads = 0;
  /// Keep each replica's final ParticleSystem in its result.
  bool keepFinalSystems = true;
  /// Progress hook, invoked under a mutex as each replica finishes (in
  /// completion order, not spec order).
  std::function<void(const ReplicaResult&)> onReplicaDone;
};

/// The ensemble thread pool as a reusable primitive: runs fn(i) for every
/// i in [0, count) across `threads` workers stealing indices from an
/// atomic counter (threads == 0 uses hardware_concurrency; a single
/// worker, or count <= 1, runs inline on the caller's thread).  The first
/// exception thrown by any fn cancels the remaining indices and is
/// rethrown on the caller after all workers join.  runEnsemble() drives
/// its fan-out through this function.  fn must make concurrent
/// invocations on distinct indices safe.
void parallelForIndex(std::size_t count, unsigned threads,
                      const std::function<void(std::size_t)>& fn);

/// parallelForIndex with cooperative cancellation: each worker polls the
/// token before claiming an index, so a tripped token skips every index
/// not yet started (indices already running finish normally — fn is never
/// interrupted mid-flight).  The caller cannot tell skipped indices from
/// the claim order alone; track completion inside fn.  nullptr behaves
/// exactly like the overload above.
void parallelForIndex(std::size_t count, unsigned threads,
                      const CancelToken* cancel,
                      const std::function<void(std::size_t)>& fn);

/// Runs every spec to completion across the thread pool; results are
/// returned in spec order and are independent of the thread count.
[[nodiscard]] std::vector<ReplicaResult> runEnsemble(
    std::span<const ReplicaSpec> specs, const EnsembleOptions& options = {});

/// Convenience builder for the canonical sweep shape: the cross product of
/// a λ-grid and a seed ensemble over one initial configuration.  Labels
/// are "lambda=<λ> seed=<seed>"; specs are ordered λ-major.
[[nodiscard]] std::vector<ReplicaSpec> lambdaSeedGrid(
    std::function<system::ParticleSystem()> makeInitial, ChainOptions base,
    std::span<const double> lambdas, std::span<const std::uint64_t> seeds,
    std::uint64_t iterations, std::uint64_t checkpointEvery = 0,
    std::function<double(const CompressionChain&)> observable = nullptr);

}  // namespace sops::core

#endif  // SOPS_CORE_ENSEMBLE_HPP

#ifndef SOPS_CORE_ENSEMBLE_HPP
#define SOPS_CORE_ENSEMBLE_HPP

/// \file ensemble.hpp
/// The replica-ensemble thread pool.
///
/// The paper's experiments — and every parameter study built on them — are
/// grids: λ-sweeps × seed ensembles × system sizes, each replica tens of
/// millions of independent chain steps (Figs 2, 10; §3.7; §6).  Replicas
/// share nothing, so sim::run() fans a multi-replica RunSpec out through
/// parallelForIndex below: workers steal replica indices from an atomic
/// counter and each fills its own result slot.  A replica's trajectory
/// depends only on its index (seed, spec) — never on the thread that ran
/// it or on how many threads the pool had.

#include <cstddef>
#include <functional>

#include "core/cancel.hpp"

namespace sops::core {

/// Runs fn(i) for every i in [0, count) across `threads` workers stealing
/// indices from an atomic counter (threads == 0 uses hardware_concurrency;
/// a single worker, or count <= 1, runs inline on the caller's thread).
/// The first exception thrown by any fn cancels the remaining indices and
/// is rethrown on the caller after all workers join.  fn must make
/// concurrent invocations on distinct indices safe.
///
/// Cooperative cancellation: each worker polls `cancel` before claiming an
/// index, so a tripped token skips every index not yet started (indices
/// already running finish normally — fn is never interrupted mid-flight).
/// The caller cannot tell skipped indices from the claim order alone;
/// track completion inside fn.  nullptr disables cancellation.
void parallelForIndex(std::size_t count, unsigned threads,
                      const CancelToken* cancel,
                      const std::function<void(std::size_t)>& fn);

}  // namespace sops::core

#endif  // SOPS_CORE_ENSEMBLE_HPP

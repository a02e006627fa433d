#ifndef SOPS_SIM_SCENARIO_HPP
#define SOPS_SIM_SCENARIO_HPP

/// \file scenario.hpp
/// The type-erased scenario interface behind the registry.
///
/// A Scenario is a named factory: it declares its parameter schema and the
/// metric columns it samples, and start() builds a ScenarioRun — one
/// replica's live simulation — from a validated RunSpec and a replica
/// seed.  The chain scenarios wrap core::BiasedChainEngine instances
/// *exactly* as the direct call sites do (same constructor arguments, same
/// seed, same step loop), so a facade run is draw-for-draw identical to
/// the pre-facade code path; tests/sim_api_test.cpp pins this for all
/// three weight models.  The amoebot scenario wraps the sharded Poisson
/// runner, whose trajectory is deterministic per seed for every thread
/// count.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cancel.hpp"
#include "sim/params.hpp"
#include "system/particle_system.hpp"
#include "system/snapshot.hpp"
#include "util/assert.hpp"

namespace sops::sim {

struct RunSpec;

/// One replica's live simulation.  Not thread-safe; owned and driven by a
/// single worker.
class ScenarioRun {
 public:
  virtual ~ScenarioRun() = default;

  /// Advances by (at least) `steps` chain iterations / activations.  The
  /// block runners round up to whole epochs and rejection-free spans;
  /// stepsDone() reports the exact count.
  virtual void advance(std::uint64_t steps) = 0;

  /// Exact steps executed so far.
  [[nodiscard]] virtual std::uint64_t stepsDone() const = 0;

  /// Appends the current value of every metric the scenario declares, in
  /// metricNames() order.
  virtual void sampleMetrics(std::vector<double>& out) const = 0;

  /// A copy of the current configuration (amoebot: tail configuration) for
  /// snapshot sinks and final-state checks.  Not a hot-path call.
  [[nodiscard]] virtual system::ParticleSystem snapshot() const = 0;

  /// The current configuration borrowed from the run — a chain run's
  /// live system — or nullptr when the run holds none as a
  /// ParticleSystem (amoebot); then the runner takes snapshot().  Valid
  /// until the run advances.
  [[nodiscard]] virtual const system::ParticleSystem* liveSystem() const {
    return nullptr;
  }

  /// The occupancy regime the replica currently executes in —
  /// "dense-flat" (one flat bitboard window) or "dense-tiled" (paged
  /// tile directory) — or "" for scenarios that do not report one.  The
  /// runner copies this into ReplicaSummary::regime.
  [[nodiscard]] virtual std::string regime() const { return {}; }

  /// Named seed-only counts of what the run did (the sharded runners'
  /// rejection-free epochs, the amoebot runner's activation outcomes),
  /// identical at every thread count and across resume; the runner copies
  /// them into ReplicaSummary::counts.  Empty for scenarios without any.
  [[nodiscard]] virtual std::vector<std::pair<std::string, std::uint64_t>>
  counts() const {
    return {};
  }

  /// Installs a cooperative cancel token: once it trips, advance() returns
  /// early — possibly having made no progress — with the run in a
  /// consistent (sampleable, serializable) state.  Scenarios that ignore
  /// the token simply run each advance() to completion; the driver polls
  /// the token between advances either way.  nullptr uninstalls.
  virtual void setCancelToken(const core::CancelToken* /*cancel*/) {}

  /// Whether the run executes on a sharded block runner (the same
  /// trajectory at every thread count) rather than a sequential engine:
  /// the snapshot identity's engine=, which a resume may not change.
  [[nodiscard]] virtual bool sharded() const { return false; }

  /// Whether saveState()/restoreState() are implemented.  Scenarios that
  /// return false here cannot be used with snapshot-file=/resume=.
  [[nodiscard]] virtual bool supportsSnapshots() const { return false; }

  /// Serializes the run's complete evolving state (configuration, model
  /// aux state, RNG streams, stats) so that a fresh run started from the
  /// same spec and replica seed, after restoreState(), continues the
  /// identical trajectory.  Only legal when the run is quiescent (between
  /// advance() calls).
  virtual void saveState(system::SnapshotWriter& /*w*/) const {
    SOPS_REQUIRE(false, "scenario does not support snapshots");
  }

  /// Inverse of saveState() on a freshly started run with the same spec
  /// and replica seed.
  virtual void restoreState(system::SnapshotReader& /*r*/) {
    SOPS_REQUIRE(false, "scenario does not support snapshots");
  }
};

class Scenario {
 public:
  virtual ~Scenario() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::string description() const = 0;

  /// The scenario-specific parameters (RunSpec reserved keys excluded).
  [[nodiscard]] virtual ParamSchema schema() const = 0;

  /// Metric columns sampled at every checkpoint, e.g. {"edges",
  /// "perimeter", "alpha", ...}.
  [[nodiscard]] virtual std::vector<std::string> metricNames() const = 0;

  /// Builds one replica.  `replicaSeed` is the engine/runner seed;
  /// `workerThreads` is the thread budget *inside* the replica.  The
  /// runner passes the spec's thread budget verbatim for a single
  /// replica (0 = "all cores") and 1 when replicas themselves fan out
  /// across the pool.  The amoebot scenario spends any budget on its
  /// block workers; the chain scenarios run the sequential engine at
  /// ≤ 1 (the draw-for-draw historical path) and the sharded multi-core
  /// runner at > 1 — a new scenario with both execution shapes should
  /// follow that convention.  The spec's scenario params must already be
  /// validated.
  [[nodiscard]] virtual std::unique_ptr<ScenarioRun> start(
      const RunSpec& spec, std::uint64_t replicaSeed,
      unsigned workerThreads) const = 0;
};

}  // namespace sops::sim

#endif  // SOPS_SIM_SCENARIO_HPP

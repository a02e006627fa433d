#ifndef SOPS_CORE_BIASED_CHAIN_ENGINE_HPP
#define SOPS_CORE_BIASED_CHAIN_ENGINE_HPP

/// \file biased_chain_engine.hpp
/// The generalized weight-model chain engine.
///
/// The paper's chain M is one member of a family of biased lattice chains
/// that differ only in the weight function w(σ) (the conclusion's pointer
/// to separation [9]; the alignment line of Kedia–Oh–Randall continues it).
/// Every member shares the same hot loop: draw a particle and direction,
/// test the target cell, gather the 8-cell ring, classify the move by the
/// 256-entry structural table, and Metropolis-filter with a per-move
/// threshold.  BiasedChainEngine<Model> owns that loop — bitboard
/// occupancy, precomputed decision table, lazy uniform draws — and defers
/// to the scenario model only for the *extra* weight factor of a movement
/// move and for the scenario's auxiliary move kind (color swaps,
/// orientation rotations, ...).
///
/// Contract with the model (see core/scenario_models.hpp for the three
/// shipped instances):
///
///   static constexpr bool kUniformWeight;  // w depends on e(σ) only
///   static constexpr bool kHasAuxMove;     // mixes a second move kind
///   static constexpr int kInteractionRadius;  // event reach, in columns
///   const ChainOptions& / ChainOptions chainOptions() const;
///   void attach(const system::ParticleSystem&);      // validate + planes
///   double movementFactor(sys, particle, l, d, ringMask);  // extra w-ratio
///   void onMoved(sys, particle, from, to);           // sync aux planes
///   // only when kHasAuxMove:
///   static constexpr bool kAuxMovePair;  // acts on (p, p + draw6), not p
///   bool auxEnabled() const;  double auxProbability() const;
///   AuxOutcome auxStep(sys, ids, rng, particle, draw6);  // draws hoisted;
///   // rng is an rng::Random here and an rng::CounterStream in the runner
///   // optional: static constexpr bool kNeedsPartnerIds (default false) —
///   // when true the engine maintains a cell→particle-id plane
///   // (core/id_plane.hpp) in lockstep with accepted moves and passes it
///   // to auxStep, so partner identity is an array load instead of a
///   // hash probe.
///
/// For a kUniformWeight model the factor path compiles away entirely: the
/// compression scenario (CompressionEngine, core/scenario_models.hpp) *is*
/// the paper's chain M, pinned draw-for-draw and outcome-for-outcome
/// against the frozen seed kernel core::ReferenceKernel by
/// tests/golden_trajectory_test.cpp.
///
/// The move body itself lives in the free chainEventStep() below, shared
/// with core::ShardedChainRunner (the exact block-parallel execution of
/// the same models, core/sharded_chain_runner.hpp) so the two execution
/// disciplines cannot drift.  The whole contract above is enforced at
/// compile time as the ChainWeightModel concept in
/// core/model_contract.hpp, which also owns AuxOutcome and the
/// ModelNeedsPartnerIds / ModelInteractionRadius traits.

#include <array>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/cancel.hpp"
#include "core/chain_stats.hpp"
#include "core/compression_chain.hpp"
#include "core/draw_guard.hpp"
#include "core/id_plane.hpp"
#include "core/model_contract.hpp"
#include "core/move_table.hpp"
#include "rng/random.hpp"
#include "system/metrics.hpp"
#include "system/particle_system.hpp"
#include "system/snapshot.hpp"

namespace sops::core {

struct EngineStats {
  std::uint64_t steps = 0;  ///< total steps, movement and auxiliary
  ChainStats movement;      ///< movement proposals, classified like M
  std::uint64_t auxProposed = 0;  ///< aux proposals that reached the filter
  std::uint64_t auxAccepted = 0;

  /// Adds another tally in — the sharded runner's per-block merge.  One
  /// definition (delegating to ChainStats::merge) so a field added here
  /// cannot be dropped by a hand-written merge in one discipline only.
  void merge(const EngineStats& other) noexcept {
    steps += other.steps;
    movement.merge(other.movement);
    auxProposed += other.auxProposed;
    auxAccepted += other.auxAccepted;
  }
};
// writeEngineStats/readEngineStats below spell out exactly nine u64
// fields (1 + ChainStats's 6 + 2).  Pinning both layouts makes "someone
// added a tally" a compile error here, next to the functions that must
// grow with it, instead of a snapshot that silently drops the new field.
static_assert(std::is_trivially_copyable_v<ChainStats> &&
              sizeof(ChainStats) == 6 * sizeof(std::uint64_t));
static_assert(std::is_trivially_copyable_v<EngineStats> &&
              sizeof(EngineStats) == 9 * sizeof(std::uint64_t));

/// Snapshot round-trip of the engine's outcome tallies (every field of
/// EngineStats/ChainStats explicitly, so a field added there without a
/// snapshot bump fails the reader's finish() check in tests).
inline void writeEngineStats(system::SnapshotWriter& w, const EngineStats& s) {
  w.u64(s.steps);
  w.u64(s.movement.steps);
  w.u64(s.movement.accepted);
  w.u64(s.movement.targetOccupied);
  w.u64(s.movement.rejectedGap);
  w.u64(s.movement.rejectedProperty);
  w.u64(s.movement.rejectedFilter);
  w.u64(s.auxProposed);
  w.u64(s.auxAccepted);
}

[[nodiscard]] inline EngineStats readEngineStats(system::SnapshotReader& r) {
  EngineStats s;
  s.steps = r.u64();
  s.movement.steps = r.u64();
  s.movement.accepted = r.u64();
  s.movement.targetOccupied = r.u64();
  s.movement.rejectedGap = r.u64();
  s.movement.rejectedProperty = r.u64();
  s.movement.rejectedFilter = r.u64();
  s.auxProposed = r.u64();
  s.auxAccepted = r.u64();
  return s;
}

/// What one engine step did; `movement` is meaningful iff !wasAux.
struct EngineStepResult {
  bool wasAux = false;
  StepOutcome movement = StepOutcome::Accepted;
  AuxOutcome aux = AuxOutcome::Skipped;
};

/// One chain event, given the already-hoisted draws: the move body shared
/// verbatim by BiasedChainEngine::step() (which draws everything from its
/// single rng::Random) and ShardedChainRunner (which draws each proposal
/// from its own rng::CounterStream).  Updates system/model/ids, adds an
/// accepted movement's e-delta to `edges`, and draws the Metropolis
/// uniform lazily from `rng`.  Outcome accounting is left to the caller so
/// block workers can tally locally.
template <typename Model, typename Uniform>
  requires ChainWeightModel<Model>
EngineStepResult chainEventStep(system::ParticleSystem& sys, Model& model,
                                ParticleIdPlane& ids,
                                const std::array<MoveDecision, 256>& decisions,
                                bool greedy, std::size_t particle, int draw6,
                                bool auxMove, Uniform& rng,
                                std::int64_t& edges) {
  EngineStepResult result;
  if constexpr (Model::kHasAuxMove) {
    if (auxMove) {
      result.wasAux = true;
      result.aux = model.auxStep(sys, ids, rng, particle, draw6);
      return result;
    }
  } else {
    (void)auxMove;
  }

  // Movement move: steps 1–2 of Algorithm M, shared by every scenario.
  const Direction d = lattice::directionFromIndex(draw6);
  const TriPoint l = sys.position(particle);
  StepOutcome outcome;
  if (sys.occupiedNear(lattice::neighbor(l, d))) {
    outcome = StepOutcome::TargetOccupied;
  } else {
    const std::uint8_t mask = sys.ringMask(l, d);
    const MoveDecision& decision = decisions[mask];
    if (decision.stage != kDecisionFilterStage) {
      outcome = static_cast<StepOutcome>(decision.stage);
    } else {
      bool accept;
      if constexpr (Model::kUniformWeight) {
        accept = decision.acceptNoDraw ||
                 (!greedy && rng.uniform() < decision.threshold);
      } else {
        // w-ratio = λ^{e'−e} (table) × the scenario's extra factor
        // (plane gathers + a power table — no std::pow on this path).
        const double threshold =
            decision.threshold * model.movementFactor(sys, particle, l, d,
                                                      mask);
        accept = threshold >= 1.0 || rng.uniform() < threshold;
      }
      if (accept) {
        const TriPoint target = lattice::neighbor(l, d);
        sys.moveParticle(particle, target);
        edges += decision.delta;
        model.onMoved(sys, particle, l, target);
        if constexpr (ModelNeedsPartnerIds<Model>::value) {
          // A flat regrow inside moveParticle invalidates a Flat mirror;
          // the geometry fingerprint catches it and resyncs.  A Paged
          // plane keys absolute coordinates, so it tracks the move even
          // when the grid just grew a tile.
          if (ids.tracksMoves(sys.grid())) {
            ids.move(l, target, particle);
          } else {
            ids.sync(sys);
          }
        }
        outcome = StepOutcome::Accepted;
      } else {
        outcome = StepOutcome::RejectedFilter;
      }
    }
  }
  result.movement = outcome;
  return result;
}

template <typename Model>
  requires ChainWeightModel<Model>
class BiasedChainEngine {
 public:
  BiasedChainEngine(system::ParticleSystem initial, Model model,
                    std::uint64_t seed)
      : system_(std::move(initial)), model_(std::move(model)), rng_(seed) {
    particleCount32_ = checkedParticleDrawBound(system_.size());
    const ChainOptions options = model_.chainOptions();
    SOPS_REQUIRE(options.lambda > 0.0, "lambda must be positive");
    SOPS_REQUIRE(Model::kUniformWeight || !options.greedy,
                 "greedy mode is only defined for the uniform-weight model");
    greedy_ = options.greedy;
    SOPS_REQUIRE(system::isConnected(system_),
                 "engine requires a connected starting configuration");
    model_.attach(system_);
    if constexpr (kMaintainsIds) partnerIds_.sync(system_);
    edges_ = system::countEdges(system_);
    // The one shared fold (core/compression_chain.hpp), also used by the
    // sharded runner, so the ablation semantics cannot drift.
    decisions_ = buildDecisionTable(options);
  }

  EngineStepResult step() {
    ++stats_.steps;
    EngineStepResult result;
    // Both move kinds open with the same draws — a uniform particle and a
    // uniform 6-way value (direction / orientation).  Hoisting them above
    // the move-kind branch keeps the serially dependent RNG chain out of
    // the mispredict shadow of a ~fair coin (measurably faster at
    // swapProbability = 0.5) without changing the draw order.
    bool auxMove = false;
    if constexpr (Model::kHasAuxMove) {
      auxMove = model_.auxEnabled() && rng_.bernoulli(model_.auxProbability());
    }
    const auto particle =
        static_cast<std::size_t>(rng_.below(particleCount32_));
    const int draw6 = static_cast<int>(rng_.below(6));
    result = chainEventStep(system_, model_, partnerIds_, decisions_, greedy_,
                            particle, draw6, auxMove, rng_, edges_);
    if (result.wasAux) {
      if (result.aux != AuxOutcome::Skipped) ++stats_.auxProposed;
      if (result.aux == AuxOutcome::Accepted) ++stats_.auxAccepted;
    } else {
      stats_.movement.record(result.movement);
    }
    return result;
  }

  void run(std::uint64_t iterations) {
    for (std::uint64_t i = 0; i < iterations; ++i) step();
  }

  /// Deterministic single-proposal entry point for tests: the movement
  /// proposal (particle, d) with the Metropolis uniform fixed to q ∈ [0, 1),
  /// through the same chainEventStep (and so the same threshold
  /// comparison) as step() and the sharded runner.  Tallied like step().
  EngineStepResult applyProposal(std::size_t particle, Direction d, double q) {
    SOPS_REQUIRE(particle < system_.size(), "applyProposal: bad particle");
    SOPS_REQUIRE(q >= 0.0 && q < 1.0, "applyProposal: q must be in [0, 1)");
    struct FixedUniform {
      double q;
      [[nodiscard]] double uniform() const noexcept { return q; }
    } fixed{q};
    ++stats_.steps;
    const EngineStepResult result = chainEventStep(
        system_, model_, partnerIds_, decisions_, greedy_, particle,
        lattice::index(d), /*auxMove=*/false, fixed, edges_);
    stats_.movement.record(result.movement);
    return result;
  }

  /// Runs `iterations` steps, invoking callback(done) every
  /// `checkpointEvery` steps (and once at the end if not aligned).  With a
  /// cancel token installed, the loop returns early at burst granularity
  /// once the token trips — steps already taken are exactly the steps the
  /// sequential chain would have taken uninterrupted (sub-bursting is
  /// draw-for-draw identical), so a snapshot at the cancel point resumes
  /// the identical trajectory.
  template <typename Callback>
  void runWithCheckpoints(std::uint64_t iterations,
                          std::uint64_t checkpointEvery, Callback&& callback,
                          const CancelToken* cancel = nullptr) {
    SOPS_REQUIRE(checkpointEvery > 0, "checkpointEvery must be positive");
    std::uint64_t done = 0;
    while (done < iterations) {
      if (isCancelled(cancel)) return;
      const std::uint64_t burst = std::min(checkpointEvery, iterations - done);
      for (std::uint64_t i = 0; i < burst; ++i) step();
      done += burst;
      callback(done);
    }
  }

  [[nodiscard]] const system::ParticleSystem& system() const noexcept {
    return system_;
  }
  [[nodiscard]] const Model& model() const noexcept { return model_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  /// Current e(σ), maintained incrementally from the decision table's δ.
  [[nodiscard]] std::int64_t edges() const noexcept { return edges_; }

  /// p = 3n − e − 3, exact whenever the configuration is hole-free
  /// (Lemma 2.3; hole-freeness is absorbing under the movement rules).
  [[nodiscard]] std::int64_t perimeterIfHoleFree() const noexcept {
    return 3 * static_cast<std::int64_t>(system_.size()) - edges_ - 3;
  }

  /// Serializes the engine's evolving state: system (with exact window
  /// geometry), model aux state, RNG engine state, outcome tallies, and
  /// the incrementally tracked e(σ).  Derived structures (decision table,
  /// shadow planes, id plane) are rebuilt on restore.
  void saveState(system::SnapshotWriter& w) const {
    system::writeParticleSystem(w, system_);
    model_.serialize(w);
    system::writeRandom(w, rng_);
    writeEngineStats(w, stats_);
    w.i64(edges_);
  }

  /// Inverse of saveState on an engine constructed from the same spec
  /// (same model options/seed/greedy flag — the caller checks that; this
  /// cross-checks the restored e(σ) against a fresh recount so corrupt
  /// aux state cannot slip through).  The restored engine continues the
  /// snapshotted trajectory draw-for-draw.
  void restoreState(system::SnapshotReader& r) {
    system_ = system::readParticleSystem(r);
    model_.deserialize(r);
    rng_ = system::readRandom(r);
    stats_ = readEngineStats(r);
    edges_ = r.i64();
    particleCount32_ = checkedParticleDrawBound(system_.size());
    model_.attach(system_);
    if constexpr (kMaintainsIds) {
      // The restored window geometry can equal the stale fingerprint
      // (e.g. a run that never drifted out of its initial window), so a
      // plain sync() would keep pre-restore ids.
      partnerIds_.invalidate();
      partnerIds_.sync(system_);
    }
    SOPS_REQUIRE(system::countEdges(system_) == edges_,
                 "snapshot: restored edge count disagrees with the "
                 "configuration — corrupt or mismatched snapshot");
  }

 private:
  static constexpr bool kMaintainsIds = ModelNeedsPartnerIds<Model>::value;

  system::ParticleSystem system_;
  Model model_;
  rng::Random rng_;
  EngineStats stats_;
  std::int64_t edges_ = 0;
  std::uint32_t particleCount32_ = 0;
  bool greedy_ = false;
  /// cell → id mirror for models that declare kNeedsPartnerIds; empty and
  /// untouched otherwise.
  ParticleIdPlane partnerIds_;
  std::array<MoveDecision, 256> decisions_;
};

}  // namespace sops::core

#endif  // SOPS_CORE_BIASED_CHAIN_ENGINE_HPP

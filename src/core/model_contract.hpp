#ifndef SOPS_CORE_MODEL_CONTRACT_HPP
#define SOPS_CORE_MODEL_CONTRACT_HPP

/// \file model_contract.hpp
/// The compile-time contract between a chain weight model and its two
/// execution disciplines.
///
/// BiasedChainEngine<Model> (sequential) and ShardedChainRunner<Model>
/// (block-parallel multi-core) defer to the model for everything
/// scenario-specific: the extra weight factor of a movement move, the
/// auxiliary move kind and the cells it acts on, the interaction radius
/// the block runner's boundary rule widens by, and the snapshot
/// round-trip of the model's evolving state.  Before this header the
/// contract lived in a doc comment and surfaced as template soup three
/// instantiation levels deep when a model drifted.  The C++20 concepts
/// here turn that drift into a one-line diagnostic naming the violated
/// requirement:
///
///   ChainWeightModel<M>   the full contract both disciplines require —
///                         applied as a requires-clause on
///                         BiasedChainEngine, ShardedChainRunner, the
///                         registry scenario wrappers, and the scenario
///                         ensemble.
///   AuxMoveModel<M>       the auxiliary-move surface (swap, rotation,
///                         ...); required exactly when M::kHasAuxMove.
///
/// The *optional* members keep working through the detection traits
/// below (ModelNeedsPartnerIds defaults to false), but the load-bearing
/// ones are required outright:
///
///   kInteractionRadius    every model must declare how far one event
///                         reads/writes (in lattice columns) — the
///                         sharded runner's correctness depends on it,
///                         so "forgot to declare it" must not silently
///                         select a default.  Must be in [2, 32): a
///                         movement ring alone spans 2 columns, and a
///                         radius near the 64-column half block would
///                         leave a block almost no interior.
///   serialize/deserialize the durable-run layer snapshots every model;
///                         serialize must be const (it runs on a live
///                         engine at a checkpoint) and both must take
///                         the snapshot stream by reference.
///
/// tests/compile_fail/ holds the negative half of the proof: deliberately
/// contract-violating models, compiled via try_compile, must be rejected
/// with the concept's name in the diagnostic.

#include <concepts>
#include <cstdint>
#include <type_traits>

#include "core/compression_chain.hpp"
#include "core/id_plane.hpp"
#include "lattice/direction.hpp"
#include "lattice/tri_point.hpp"
#include "rng/random.hpp"
#include "system/particle_system.hpp"
#include "system/snapshot.hpp"

namespace sops::core {

/// Outcome of a scenario's auxiliary move (swap, rotation, ...).
enum class AuxOutcome : std::uint8_t {
  Skipped,   ///< proposal was structurally void (no partner, same color, ...)
  Rejected,  ///< reached the filter and failed the Metropolis draw
  Accepted,  ///< applied
};

/// Detects the optional kNeedsPartnerIds contract member (absent = false):
/// when true the engine maintains a cell→particle-id plane
/// (core/id_plane.hpp) in lockstep with accepted moves and passes it to
/// auxStep, so partner identity is an array load instead of a hash probe.
template <typename Model, typename = void>
struct ModelNeedsPartnerIds : std::false_type {};
template <typename Model>
struct ModelNeedsPartnerIds<Model,
                            std::void_t<decltype(Model::kNeedsPartnerIds)>>
    : std::bool_constant<Model::kNeedsPartnerIds> {};

/// The model's declared interaction radius: the largest column distance
/// (|Δx|) any read or write of one event spans from the activated
/// particle's cell.  A movement move alone needs 2 (the 8-cell ring); a
/// pair aux move whose partner sits one cell over and whose edge ring is
/// gathered around that partner needs 3.  The sharded chain runner widens
/// a proposal's cell box by radius − 1 before testing it against the
/// block.  ChainWeightModel requires the member outright; the trait
/// remains the single accessor both disciplines read.
template <typename Model>
struct ModelInteractionRadius
    : std::integral_constant<int, Model::kInteractionRadius> {};

/// Lower/upper bounds on a declarable interaction radius: the movement
/// ring spans 2 columns, and a radius near the 64-column half of a
/// 128-column block would leave a block almost no interior.
inline constexpr int kMinInteractionRadius = 2;
inline constexpr int kMaxInteractionRadius = 31;

/// The auxiliary-move surface of a model that mixes a second move kind
/// into the chain (color swap, orientation rotation, ...).  (particle,
/// draw6) are the engine's hoisted draws; further draws come lazily from
/// the per-event RNG — the engine's rng::Random or the sharded runner's
/// per-proposal rng::CounterStream, so auxStep must accept both.
template <typename Model>
concept AuxMoveModel =
    requires(Model& m, const Model& cm, system::ParticleSystem& sys,
             const ParticleIdPlane& ids, rng::Random& rng,
             rng::CounterStream& stream, std::size_t particle, int draw6) {
      // Whether the move acts on (p, p + draw6) or on p alone — the
      // sharded runner's boundary rule takes exactly those cells.
      typename std::bool_constant<Model::kAuxMovePair>;
      { cm.auxEnabled() } -> std::convertible_to<bool>;
      { cm.auxProbability() } -> std::convertible_to<double>;
      { m.auxStep(sys, ids, rng, particle, draw6) } -> std::same_as<AuxOutcome>;
      { m.auxStep(sys, ids, stream, particle, draw6) } ->
          std::same_as<AuxOutcome>;
    };

/// Everything both execution disciplines require of every model: the
/// compile-time switches (as genuine constant expressions — they drive
/// `if constexpr` in the shared event step), the movement-weight hook,
/// the attach/onMoved plane-sync hooks, and the snapshot round-trip.
template <typename Model>
concept ChainWeightModelBase =
    std::move_constructible<Model> &&
    requires(Model& m, const Model& cm, const system::ParticleSystem& sys,
             system::SnapshotWriter& w, system::SnapshotReader& r,
             std::size_t particle, TriPoint cell, Direction d,
             std::uint8_t ringOcc) {
      // Move-kind switches, usable in constant expressions.
      typename std::bool_constant<Model::kUniformWeight>;
      typename std::bool_constant<Model::kHasAuxMove>;
      // Declared event footprint for the block runner's boundary rule.
      { Model::kInteractionRadius } -> std::convertible_to<int>;
      requires int{Model::kInteractionRadius} >= kMinInteractionRadius;
      requires int{Model::kInteractionRadius} <= kMaxInteractionRadius;
      // Chain-level options (λ and the ablation switches).
      { cm.chainOptions() } -> std::convertible_to<ChainOptions>;
      // Validation + shadow-plane construction against the initial system.
      m.attach(sys);
      // Extra w-ratio of a movement move (beyond the table's λ^{e'−e}).
      { m.movementFactor(sys, particle, cell, d, ringOcc) } ->
          std::convertible_to<double>;
      // Post-move plane sync.
      m.onMoved(sys, particle, cell, cell);
      // Snapshot round-trip of the model's evolving state; serialize runs
      // on a const engine at a checkpoint.
      { cm.serialize(w) } -> std::same_as<void>;
      { m.deserialize(r) } -> std::same_as<void>;
    };

/// The full contract: the base surface, the auxiliary surface exactly
/// when the model declares an aux move, and coherence of the optional
/// members (a partner-id plane is only defined for pair-style aux moves).
template <typename Model>
concept ChainWeightModel =
    ChainWeightModelBase<Model> &&
    (!Model::kHasAuxMove || AuxMoveModel<Model>) &&
    (!ModelNeedsPartnerIds<Model>::value || Model::kHasAuxMove);

}  // namespace sops::core

#endif  // SOPS_CORE_MODEL_CONTRACT_HPP

#ifndef SOPS_CORE_SHARDED_CHAIN_RUNNER_HPP
#define SOPS_CORE_SHARDED_CHAIN_RUNNER_HPP

/// \file sharded_chain_runner.hpp
/// Exact multi-core execution of the biased chain: the weight models of
/// core::BiasedChainEngine as an event kernel of core::BlockExecutor (see
/// block_executor.hpp for the proposal lists, the shifted blocks, the
/// list-order oracle and the storage pre-phase).
///
/// **Proposals.**  Proposal k draws, from its move stream, the aux coin,
/// the direction/orientation and — lazily, inside the shared
/// chainEventStep() — the Metropolis uniform.
///
/// **Symmetric boundary rejection.**  A proposal's cells are (ℓ, ℓ′) for
/// a movement move, (p, q) for a pair aux move (separation's swap) and p
/// alone for a single-particle aux move (alignment's rotation).  Their
/// bounding box, widened by Model::kInteractionRadius − 1, must lie inside
/// the block of the proposing particle.  Everything an executed proposal
/// reads or writes lies within distance 1 of its cells.  A move and its
/// reverse have the same cells, so the rule rejects both or neither: every
/// executed kernel stays π-reversible, and composing them in list order is
/// π-stationary.  The offsets are drawn independently of the state, so the
/// epoch kernel is a state-independent mixture of stationary kernels, and
/// because every boundary moves between epochs the mixture is irreducible.
///
/// **Heterogeneous rates.**  A move's reverse is proposed by the same
/// particle (movement: the moved particle; swap and rotation: the particle
/// at p), so the selection weight cancels from detailed balance and π is
/// unchanged.  tests/sharded_chain_test.cpp checks this against exact π.
///
/// During an epoch over the dense grid the ParticleSystem's cell→id hash
/// index — the one structure every move would otherwise share — is
/// suspended (ParticleSystem::suspendIndex) and restored on exit.
///
/// **Rejection-free epochs.**  For a compression-like model — uniform
/// weight, no aux move — with uniform selection, core::EpochRouter routes
/// compressed-regime epochs through RejectionFreeSampler<RejectionFreeRules>
/// (epoch_router.hpp; events are accepted moves).  Its phase moves
/// occupancy bits only and replays the moves into the cell → id index
/// afterwards, so the index stays live through rejection-free epochs.
/// Other models and weighted selection run every epoch on the block path.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/biased_chain_engine.hpp"
#include "core/block_executor.hpp"
#include "core/cancel.hpp"
#include "core/epoch_router.hpp"
#include "core/rejection_free.hpp"
#include "rng/random.hpp"
#include "system/metrics.hpp"

namespace sops::core {

/// threads, targetEventsPerEpoch (L; 0 derives min(max(2n, 1024), 2^28))
/// and rates (particle-selection weights; empty is the paper's uniform
/// chain) — see BlockExecutorOptions.
using ShardedChainOptions = BlockExecutorOptions;

/// The route's divisor (epoch_router.hpp) for accepted moves.  Taken
/// from runner-level crossover tables (DESIGN.md §Rejection-free epochs:
/// a 10⁵ spiral at 1, 2 and 4 threads); no benchmark workload runs the
/// block side of the route, so other n and thread counts are unmeasured.
inline constexpr std::uint64_t kRejectionFreeAcceptDivisor = 256;

template <typename Model>
  requires ChainWeightModel<Model>
class ShardedChainRunner {
 public:
  ShardedChainRunner(system::ParticleSystem initial, Model model,
                     std::uint64_t seed, ShardedChainOptions options = {})
      : system_(std::move(initial)),
        model_(std::move(model)),
        executor_(seed, system_.size(), options),
        router_(kRejectionFreeAcceptDivisor, rejectionFreeCapable()) {
    const ChainOptions chainOptions = model_.chainOptions();
    SOPS_REQUIRE(chainOptions.lambda > 0.0, "lambda must be positive");
    SOPS_REQUIRE(Model::kUniformWeight || !chainOptions.greedy,
                 "greedy mode is only defined for the uniform-weight model");
    greedy_ = chainOptions.greedy;
    SOPS_REQUIRE(system::isConnected(system_),
                 "sharded runner requires a connected starting configuration");
    model_.attach(system_);
    if constexpr (kMaintainsIds) partnerIds_.sync(system_);
    tallies_.edges = system::countEdges(system_);
    decisions_ = buildDecisionTable(chainOptions);
  }

  /// Test-only (EpochRoute::BlockOnly): pins the block path's trajectory
  /// for golden hashes and list-order oracles.
  void forceBlockPathForTest() noexcept { router_.forceBlockPath(); }

  /// Test-only (EpochRoute::RejectionFreeOnly, from the first epoch);
  /// `verifyEachMove` checks each block against a rebuild after every move.
  void forceRejectionFreeForTest(bool verifyEachMove = false) {
    router_.forceRejectionFree(rejectionFreeCapable(), verifyEachMove);
  }

  /// See EpochRouter::setCancelToken.
  void setCancelToken(const CancelToken* cancel) noexcept {
    router_.setCancelToken(cancel);
  }

  /// EpochRouter::runAtLeast over proposals.  Block-path epochs suspend
  /// the id index; between calls the system is fully consistent
  /// (particleAt()).
  std::uint64_t runAtLeast(std::uint64_t minEvents) {
    return router_.runAtLeast(minEvents, executor_, *this);
  }

  [[nodiscard]] const system::ParticleSystem& system() const noexcept {
    return system_;
  }
  [[nodiscard]] const Model& model() const noexcept { return model_; }
  /// steps counts every proposal; the movement and aux tallies cover the
  /// executed ones, sweepEvents() the boundary-rejected rest.
  [[nodiscard]] const EngineStats& stats() const noexcept {
    return tallies_.stats;
  }

  /// Proposals per epoch, L.
  [[nodiscard]] std::uint64_t epochTarget() const noexcept {
    return executor_.epochLength();
  }

  /// Epochs completed since construction.
  [[nodiscard]] std::uint64_t epochs() const noexcept {
    return executor_.epochs();
  }

  /// Proposals rejected by the block-boundary rule since construction.
  [[nodiscard]] std::uint64_t sweepEvents() const noexcept {
    return executor_.boundaryRejects();
  }

  /// Epochs run by the rejection-free kernel since construction — a pure
  /// function of the seed, like epochs().
  [[nodiscard]] std::uint64_t rejectionFreeEpochs() const noexcept {
    return router_.rejectionFreeEpochs();
  }

  /// Blocks holding at least one proposal in the last block-path epoch.
  [[nodiscard]] std::size_t lastEpochBlocks() const noexcept {
    return executor_.lastEpochBlocks();
  }

  /// Current e(σ), maintained incrementally from the decision table's δ
  /// (merged across blocks; integer sums are order-independent).
  [[nodiscard]] std::int64_t edges() const noexcept { return tallies_.edges; }

  /// p = 3n − e − 3, exact whenever the configuration is hole-free
  /// (Lemma 2.3; hole-freeness is absorbing under the movement rules).
  [[nodiscard]] std::int64_t perimeterIfHoleFree() const noexcept {
    return 3 * static_cast<std::int64_t>(system_.size()) - tallies_.edges - 3;
  }

  /// Serializes the runner's evolving state (snapshot v6): system, model
  /// aux state, tallies, e(σ), the epoch index, the boundary-reject count,
  /// and the routing state — the last epoch's accepted count and the
  /// rejection-free epoch count.  Everything else — L, the alias table,
  /// the decision table, the planes, the rejection-free blocks — comes
  /// from the spec or the configuration.  Only legal between runAtLeast calls.
  void saveState(system::SnapshotWriter& w) const {
    SOPS_REQUIRE(!system_.indexSuspended(),
                 "saveState: only legal between runs (index suspended)");
    system::writeParticleSystem(w, system_);
    model_.serialize(w);
    writeEngineStats(w, tallies_.stats);
    w.i64(tallies_.edges);
    w.u64(executor_.epochs());
    w.u64(executor_.boundaryRejects());
    router_.save(w);
  }

  /// Inverse of saveState on a runner constructed from the same spec; the
  /// restored runner continues the snapshotted trajectory exactly, at any
  /// thread count.  Payloads older than v4 were written by the
  /// Poisson-clock runner, whose trajectory this runner cannot continue;
  /// v4/v5 payloads predate the routing state and resume with the first
  /// epoch on the block path.
  void restoreState(system::SnapshotReader& r) {
    SOPS_REQUIRE(r.version() >= 4,
                 "snapshot: sharded chain payload is version " +
                     std::to_string(r.version()) +
                     ", written by the Poisson-clock runner; the block "
                     "runner reads version 4 and later — rerun the spec "
                     "from the start");
    const std::size_t particles = system_.size();
    system_ = system::readParticleSystem(r);
    model_.deserialize(r);
    tallies_.stats = readEngineStats(r);
    tallies_.edges = r.i64();
    const std::uint64_t epochs = r.u64();
    executor_.restore(epochs, r.u64());
    router_.restore(r, r.version() >= 6);
    SOPS_REQUIRE(system_.size() == particles,
                 "snapshot: particle count does not match the runner's spec");
    model_.attach(system_);
    if constexpr (kMaintainsIds) {
      // The restored geometry can equal the stale fingerprint, so a plain
      // sync() could keep pre-restore ids.
      partnerIds_.invalidate();
      partnerIds_.sync(system_);
    }
    SOPS_REQUIRE(system::countEdges(system_) == tallies_.edges,
                 "snapshot: restored edge count disagrees with the "
                 "configuration — corrupt or mismatched snapshot");
  }

 private:
  friend class EpochRouter<RejectionFreeRules>;

  static constexpr bool kMaintainsIds = ModelNeedsPartnerIds<Model>::value;

  /// Models whose acceptance depends on δ alone, with movement moves only,
  /// under uniform selection.
  [[nodiscard]] bool rejectionFreeCapable() const noexcept {
    return Model::kUniformWeight && !Model::kHasAuxMove && !kMaintainsIds &&
           executor_.uniformSelection();
  }

  // The router's hooks (EpochRouter::runAtLeast).  The rejection-free
  // commit replays each block's moves into the live cell → id index.
  [[nodiscard]] std::uint64_t routedEvents() const noexcept {
    return tallies_.stats.movement.accepted;
  }
  void runBlockEpoch() {
    model_.attach(system_);
    if constexpr (kMaintainsIds) partnerIds_.sync(system_);
    system_.suspendIndex();
    Kernel kernel(*this);
    executor_.runEpoch(kernel, tallies_);
  }
  [[nodiscard]] RejectionFreeRules rejectionFreeRule() const {
    return RejectionFreeRules(decisions_, greedy_, Kernel::kRadius - 1);
  }
  std::uint64_t runRejectionFreeEpoch(
      RejectionFreeSampler<RejectionFreeRules>& sampler, const BlockEpoch& ep,
      std::uint64_t length, const BlockForEach& forEach, bool verify) {
    system_.restoreIndex();
    return sampler.runEpoch(
        system_, ep, length, forEach,
        [this](const RejectionFreeBlock& block) {
          for (const RejectionFreeBlock::Move& m : block.moves()) {
            model_.onMoved(system_, system_.commitMove(m.from, m.to), m.from,
                           m.to);
          }
          tallies_.stats.merge(block.stats());
          tallies_.edges += block.edgeDelta();
        },
        verify);
  }
  void restoreIndex() { system_.restoreIndex(); }

  /// The chain's event kernel for the block executor.
  class Kernel {
   public:
    struct Tallies {
      EngineStats stats;
      std::int64_t edges = 0;  ///< e(σ) in the total, a δ-sum per block

      void merge(const Tallies& other) noexcept {
        stats.merge(other.stats);
        edges += other.edges;
      }
    };

    static constexpr std::int64_t kRadius =
        ModelInteractionRadius<Model>::value;

    explicit Kernel(ShardedChainRunner& runner) noexcept : r_(runner) {}

    [[nodiscard]] TriPoint position(std::uint32_t particle) const noexcept {
      return r_.system_.position(particle);
    }
    [[nodiscard]] const system::BitGrid& grid() const noexcept {
      return r_.system_.grid();
    }
    [[nodiscard]] bool covers(TriPoint center,
                              std::int64_t depth) const noexcept {
      bool covered = grid().coversInteriorBy(center, depth);
      if constexpr (kMaintainsIds) {
        covered = covered && r_.partnerIds_.coversNear(center, depth);
      }
      return covered;
    }
    void reserve(std::span<const TriPoint> centers, std::int64_t depth) {
      r_.system_.reserveInterior(centers, depth);
      r_.model_.attach(r_.system_);
      if constexpr (kMaintainsIds) {
        r_.partnerIds_.sync(r_.system_);
        r_.partnerIds_.reserveNear(centers, depth);
      }
    }

    /// The move draws, the boundary rule, then the shared event kernel.
    bool runProposal(const BlockEpoch& ep, std::uint32_t particle,
                     rng::CounterStream& stream, Tallies& tallies) {
      bool auxMove = false;
      if constexpr (Model::kHasAuxMove) {
        auxMove = r_.model_.auxEnabled() &&
                  stream.bernoulli(r_.model_.auxProbability());
      }
      const int draw6 = static_cast<int>(stream.below(6));
      ++tallies.stats.steps;
      int reach = draw6;
      if constexpr (Model::kHasAuxMove) {
        if (auxMove && !Model::kAuxMovePair) reach = kReachSelf;
      }
      if (!ep.inside(position(particle),
                     kReach[static_cast<std::size_t>(reach)])) {
        return false;
      }
      const EngineStepResult result = chainEventStep(
          r_.system_, r_.model_, r_.partnerIds_, r_.decisions_, r_.greedy_,
          static_cast<std::size_t>(particle), draw6, auxMove, stream,
          tallies.edges);
      if (result.wasAux) {
        if (result.aux != AuxOutcome::Skipped) ++tallies.stats.auxProposed;
        if (result.aux == AuxOutcome::Accepted) ++tallies.stats.auxAccepted;
      } else {
        tallies.stats.movement.record(result.movement);
      }
      return true;
    }

   private:
    static constexpr auto kReach = blockReach(kRadius - 1);
    ShardedChainRunner& r_;
  };

  system::ParticleSystem system_;
  Model model_;
  bool greedy_ = false;
  typename Kernel::Tallies tallies_;
  /// cell → id mirror for models that declare kNeedsPartnerIds; empty and
  /// untouched otherwise (same contract as the engine's).
  ParticleIdPlane partnerIds_;
  std::array<MoveDecision, 256> decisions_{};
  BlockExecutor<Kernel> executor_;
  EpochRouter<RejectionFreeRules> router_;
};

}  // namespace sops::core

#endif  // SOPS_CORE_SHARDED_CHAIN_RUNNER_HPP

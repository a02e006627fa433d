#ifndef SOPS_AMOEBOT_PARALLEL_SCHEDULER_HPP
#define SOPS_AMOEBOT_PARALLEL_SCHEDULER_HPP

/// \file parallel_scheduler.hpp
/// Exact multi-core execution of Algorithm A, deterministic per seed: its
/// activations as an event kernel of core::BlockExecutor (see
/// core/block_executor.hpp for the proposal lists, the shifted blocks, the
/// list-order oracle and the storage pre-phase).
///
/// The amoebot model is asynchronous — any schedule of atomic activations
/// is legal, and §3.2 realizes uniform selection by independent Poisson
/// clocks.  An epoch's proposal list is such a schedule: L activations of
/// particles drawn independently in proportion to their rates — the jump
/// chain of the clocks over L / Σrates of simulated time, which now()
/// reports.
///
/// **Boundary rule.**  Activation k draws the particle's port from its
/// move stream first, then tests the cells the move pairs: (ℓ, ℓ + dir)
/// for a contracted particle at ℓ, (tail, head) for an expanded one, and
/// ℓ with its six neighbours for a contracted Byzantine one (it may expand
/// anywhere).  Their box, widened by 1 (radius 2, the compression reach),
/// must lie inside the block of the tail; otherwise the activation is
/// skipped and counted (sweepActivations()).  Everything an activation
/// reads or writes lies within distance 1 of its cells.  The rule is
/// symmetric in the move pair: the expansion from ℓ toward ℓ′, the
/// contraction that completes or aborts it, and the reverse move from ℓ′
/// all test the same unordered pair {ℓ, ℓ′}, so the selection factor
/// cancels in detailed balance.  (A rule on the tail alone would not be
/// symmetric: x-offsets take only the values {0, 64}, so activation rates
/// would depend on x mod 64.)  An expanded particle whose pair straddles a
/// block edge skips every activation of the epoch, so its cells, which the
/// neighbouring block reads, do not change.
///
/// Every draw is a pure function of (seed, epoch, k), so the trajectory is
/// identical at every thread count and across snapshot/restore;
/// tests/local_golden_test.cpp holds the block path to the list-order
/// oracle.  Tiled planes need nothing special: their tiles are
/// 1024-aligned.
///
/// **Rejection-free epochs.**  In the compressed regime about 99.5% of
/// activations are Idle: a contracted particle with no legal expansion
/// writes nothing.  With uniform rates, an epoch runs through
/// amoebot::RejectionFreeIndex instead — on the calling thread, at every
/// thread count — when the previous epoch had fewer than
/// L / kAmoebotRejectionFreeDivisor non-Idle activations.  That kernel
/// samples exactly the block-path epoch's law (rejection_free.hpp), so
/// choosing between the two by the past leaves every epoch's law, and π,
/// unchanged; the rule reads only seed-determined counts, so trajectories
/// stay identical at every thread count and across resume.  `rate-spread`
/// runs stay on the block path.

#include <cstdint>
#include <memory>
#include <span>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/rejection_free.hpp"
#include "core/block_executor.hpp"
#include "core/cancel.hpp"
#include "rng/random.hpp"
#include "system/snapshot.hpp"

namespace sops::amoebot {

/// threads, targetEventsPerEpoch (activations per epoch, L; 0 derives
/// min(max(2n, 1024), 2^28)) and rates (per-particle Poisson rates, used
/// as selection weights; empty means all 1 — §3.2 allows heterogeneous
/// rates without changing the stationary distribution).  See
/// core::BlockExecutorOptions.
using ShardedOptions = core::BlockExecutorOptions;

/// The routing constant: an epoch runs rejection-free when the previous
/// one had fewer than L / kAmoebotRejectionFreeDivisor non-Idle
/// activations.  Taken from a per-epoch crossover table (DESIGN.md
/// §Rejection-free Algorithm A: 10⁵ particles at λ ∈ {1, 2, 3, 4}, block
/// path at 1, 2 and 4 threads against the rejection-free kernel): inside
/// the four-thread crossover range (~L/55 to L/90) and above the one- and
/// two-thread ones (~L/28 to L/40), since the route must not read the
/// thread count.
inline constexpr std::uint64_t kAmoebotRejectionFreeDivisor = 64;

class ShardedPoissonRunner {
 public:
  /// The runner holds references: `sys` and `algo` must outlive it.
  ShardedPoissonRunner(AmoebotSystem& sys,
                       const LocalCompressionAlgorithm& algo,
                       std::uint64_t seed, ShardedOptions options = {});

  /// Installs a cooperative cancel token polled between epochs: once it
  /// trips, runAtLeast returns early (possibly with zero progress) with
  /// the system fully consistent — epoch boundaries are the only safe
  /// preemption points, and also exactly the states saveState() can
  /// serialize.  nullptr uninstalls.
  void setCancelToken(const core::CancelToken* cancel) noexcept {
    cancel_ = cancel;
  }

  /// Runs every epoch on the block path.  Test-only: it pins the block
  /// path's trajectory (list-order oracles, thread-count identity on the
  /// block path); the law is the same either way.
  void forceBlockPathForTest() noexcept {
    rejectionFree_ = false;
    forceRejectionFree_ = false;
  }

  /// Routes every epoch through the rejection-free kernel, from the first,
  /// and with `verifyEachEvent` compares its index against a from-scratch
  /// rebuild after every event (throwing on a mismatch).  Test-only: it
  /// changes the trajectory, not the law.
  void forceRejectionFreeForTest(bool verifyEachEvent = false);

  /// Runs whole epochs until at least `minActivations` activations have
  /// run in this call (or the cancel token trips); returns the number
  /// run.  Block-path epochs suspend the id index and rejection-free ones
  /// keep it live; either way the system is fully consistent (at(),
  /// expandedCount()) between calls.  Between calls the system may be
  /// read but not mutated, except through restoreState.
  std::uint64_t runAtLeast(std::uint64_t minActivations);

  /// Serializes the runner's evolving state (snapshot v7): L, the epoch
  /// index, the boundary-skip count, the outcome tallies and the routing
  /// state — the last epoch's non-Idle count and the rejection-free epoch
  /// count.  The system itself is serialized separately
  /// (AmoebotSystem::saveState); rates come from the spec.  Only legal
  /// between runs.
  void saveState(system::SnapshotWriter& w) const;

  /// Inverse of saveState on a runner constructed with the same
  /// (sys, algo, seed, options); continues the trajectory exactly, at any
  /// thread count.  Payloads older than v5 were written by the
  /// Poisson-clock runner, whose trajectory this runner cannot continue;
  /// v5/v6 payloads predate the tallies and the routing state and resume
  /// with the tallies at zero and the first epoch on the block path.
  void restoreState(system::SnapshotReader& r);

  /// Simulated time: epochs · L / Σrates.
  [[nodiscard]] double now() const noexcept {
    return static_cast<double>(executor_.epochs()) *
           static_cast<double>(executor_.epochLength()) / rateSum_;
  }
  /// Activations run since construction, skipped ones included.
  [[nodiscard]] std::uint64_t activations() const noexcept {
    return executor_.epochs() * executor_.epochLength();
  }
  /// Activations skipped by the block-boundary rule since construction.
  [[nodiscard]] std::uint64_t sweepActivations() const noexcept {
    return executor_.boundaryRejects();
  }
  /// Activations per epoch, L.
  [[nodiscard]] std::uint64_t epochTarget() const noexcept {
    return executor_.epochLength();
  }
  /// Blocks holding at least one activation in the last block-path epoch.
  [[nodiscard]] std::size_t lastEpochBlocks() const noexcept {
    return executor_.lastEpochBlocks();
  }
  /// Outcomes of the executed (not skipped) activations since
  /// construction — seed-only counts, identical at every thread count and
  /// across resume: idle + expanded + movedToHead + contractedBack +
  /// sweepActivations() = activations().
  [[nodiscard]] const ActivationTallies& tallies() const noexcept {
    return tallies_;
  }
  /// Epochs run by the rejection-free kernel since construction.
  [[nodiscard]] std::uint64_t rejectionFreeEpochs() const noexcept {
    return rejectionFreeEpochs_;
  }

 private:
  /// lastEpochEvents_ before any epoch: routes the first to the block
  /// path.
  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

  /// The routing rule: a function of the previous epoch's non-Idle count
  /// and L only, both seed-determined.
  [[nodiscard]] bool routeRejectionFree() const noexcept;
  /// One epoch through the rejection-free kernel.  Its index is built at
  /// the first such epoch and rebuilt after any block-path epoch.
  void runRejectionFreeEpoch();

  /// Algorithm A's event kernel for the block executor.
  class Kernel {
   public:
    using Tallies = ActivationTallies;

    /// Reads reach distance 2 of the tail: the pair plus one cell.
    static constexpr std::int64_t kRadius = 2;

    Kernel(AmoebotSystem& sys, const LocalCompressionAlgorithm& algo) noexcept
        : sys_(sys), algo_(algo) {}

    [[nodiscard]] TriPoint position(std::uint32_t particle) const {
      return sys_.particle(particle).tail;
    }
    [[nodiscard]] const system::BitGrid& grid() const noexcept {
      return sys_.occupancyGrid();
    }
    [[nodiscard]] bool covers(TriPoint center, std::int64_t depth) const {
      return grid().coversInteriorBy(center, depth);
    }
    void reserve(std::span<const TriPoint> centers, std::int64_t depth) {
      sys_.reserveInterior(centers, depth);
    }
    bool runProposal(const core::BlockEpoch& ep, std::uint32_t particle,
                     rng::CounterStream& stream, Tallies& tallies);

   private:
    /// The boxes of the boundary rule: the move pair widened by radius − 1.
    static constexpr auto kReach = core::blockReach(kRadius - 1);

    AmoebotSystem& sys_;
    const LocalCompressionAlgorithm& algo_;
  };

  AmoebotSystem& sys_;
  const LocalCompressionAlgorithm& algo_;
  double rateSum_ = 0.0;
  core::BlockExecutor<Kernel> executor_;
  const core::CancelToken* cancel_ = nullptr;
  ActivationTallies tallies_;

  bool uniformRates_ = true;
  bool rejectionFree_ = false;  ///< routing on (off only in tests)
  bool forceRejectionFree_ = false;
  bool verifyEachEvent_ = false;
  std::uint64_t lastEpochEvents_ = kNoEpoch;
  std::uint64_t rejectionFreeEpochs_ = 0;
  /// Built at the first rejection-free epoch; current while only
  /// rejection-free epochs have run since its last rebuild.
  std::unique_ptr<RejectionFreeIndex> index_;
  bool indexCurrent_ = false;
};

}  // namespace sops::amoebot

#endif  // SOPS_AMOEBOT_PARALLEL_SCHEDULER_HPP

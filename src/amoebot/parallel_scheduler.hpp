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
/// activations are Idle.  With uniform rates, core::EpochRouter routes
/// compressed-regime epochs through
/// core::RejectionFreeSampler<RejectionFreeRule> (core/epoch_router.hpp;
/// events are non-Idle activations); `rate-spread` runs stay on the block
/// path.  The block rule (DESIGN.md §Rejection-free Algorithm A): block
/// b's *candidates* are the pairs that cross no block line and would not
/// run Idle — a contracted protocol-following particle's legal expansions,
/// the six ports of an expanded particle or of a contracted Byzantine one
/// with an empty neighbour.  The failures before the next
/// candidate are Geometric(Σ_b/6n_b), each a skip with probability
/// C_b/(6n_b − Σ_b) (C_b the crossing pairs) and Idle otherwise; the
/// candidate runs through LocalCompressionAlgorithm::activate.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/local_compression.hpp"
#include "core/block_executor.hpp"
#include "core/cancel.hpp"
#include "core/epoch_router.hpp"
#include "core/rejection_free.hpp"
#include "rng/random.hpp"
#include "system/snapshot.hpp"

namespace sops::amoebot {

/// threads, targetEventsPerEpoch (activations per epoch, L; 0 derives
/// min(max(2n, 1024), 2^28)) and rates (per-particle Poisson rates, used
/// as selection weights; empty means all 1 — §3.2 allows heterogeneous
/// rates without changing the stationary distribution).  See
/// core::BlockExecutorOptions.
using ShardedOptions = core::BlockExecutorOptions;

/// The route's divisor (core/epoch_router.hpp) for non-Idle activations.
/// Taken from a per-epoch crossover table (DESIGN.md
/// §Rejection-free Algorithm A: 10⁵ particles at λ ∈ {1, 2, 3, 4}, block
/// path against the per-block rejection-free kernel at 1, 2 and 4
/// threads); the route must not read the thread count.
inline constexpr std::uint64_t kAmoebotRejectionFreeDivisor = 64;

class RejectionFreeBlock;

/// Algorithm A's block rule for core::RejectionFreeSampler (see the file
/// comment): its boundary rule is the executor kernel's, the move pair
/// widened by 1.
struct RejectionFreeRule : core::BlockLines {
  using System = AmoebotSystem;
  using Block = RejectionFreeBlock;
  /// The kernel's interaction radius (ShardedPoissonRunner::Kernel).
  static constexpr std::int64_t kRadius = 2;

  /// `algo` runs the events; it must outlive the rule.
  explicit RejectionFreeRule(const LocalCompressionAlgorithm& algo) noexcept
      : core::BlockLines(kRadius - 1), algo(&algo) {}

  [[nodiscard]] static const system::BitGrid& grid(
      const AmoebotSystem& sys) noexcept {
    return sys.occupancyGrid();
  }
  [[nodiscard]] static TriPoint anchor(const AmoebotSystem& sys,
                                       std::size_t i) {
    return sys.particle(i).tail;
  }
  /// The tails of a flat window word: occupied cells that are no head.
  [[nodiscard]] static std::uint64_t anchorWord(const AmoebotSystem& sys,
                                                std::int64_t y,
                                                std::size_t k) noexcept {
    return sys.occupancyGrid().flatRow(y)[k] & ~sys.headGrid().flatRow(y)[k];
  }
  /// The system is the caller's: it may move particles between runs.
  [[nodiscard]] static std::uint64_t mutations(
      const AmoebotSystem& sys) noexcept {
    return sys.mutations();
  }
  void runBlock(AmoebotSystem& sys, RejectionFreeBlock& block,
                std::uint64_t key, bool verifyEachEvent) const;

  const LocalCompressionAlgorithm* algo;
};

/// One occupied block of one Algorithm A epoch: its candidates, C_b, its
/// n-fold way, its tallies and the log of its contractions to the head.
///
/// The block keeps its own copy of the four planes' words (occupied,
/// expanded, heads, faulty) on its tail rows and the rows beside them —
/// loaded by rebuild(), kept by each event from the actor's particle
/// record — so an event's refresh reads no plane word: each refresh
/// cell's candidate bits before and after the event come from a 7 × 7
/// window of those rows, the particle record read only for an expanded or
/// faulty tail.
class RejectionFreeBlock : public core::BlockPlacement {
 public:
  /// A contraction to the head: the particle's tail moved from → to.
  struct Move {
    std::uint32_t particle;
    TriPoint from;
    TriPoint to;
  };

  /// A tail's candidate pairs, packed: bits 0–5 its legal expansions, bit 6
  /// its six ports; 0 for a cell holding no tail.
  using Code = std::uint8_t;

  /// place(), and clears the tallies and the log.
  void reset(const core::BlockEpoch& ep, std::int64_t bx, std::int64_t by,
             std::uint32_t particles, const core::RowSet& rows,
             std::uint64_t proposals) noexcept;

  /// Loads the planes' words of the block's tail rows and the rows beside
  /// them, and rebuilds the candidates and C_b from them; reads nothing
  /// outside the block but the id index and the records of expanded and
  /// faulty tails.
  void rebuild(const AmoebotSystem& sys, const RejectionFreeRule& rule);

  /// Runs the block's activations, every draw from streams under `key`;
  /// with `verifyEachEvent`, throws unless every event runs non-Idle and
  /// leaves structures equal to a from-scratch rebuild.
  void run(AmoebotSystem& sys, const RejectionFreeRule& rule,
           std::uint64_t key, bool verifyEachEvent);

  /// One refresh cell of an event: block-local (x, y), its code before
  /// and after.
  struct Recode {
    std::int64_t x, y;
    Code before, after;
  };
  /// An event's outcome and the refresh cells in the block whose codes it
  /// changes — of the cells within distance 1 of the pair (ℓ, ℓ′) it made
  /// or ended, which hold every change — in core::kRefreshCells order.
  struct Event {
    ActivationResult result = ActivationResult::Idle;
    std::size_t cells = 0;
    std::array<Recode, core::kRefreshNear> recodes{};  ///< the first `cells`
  };

  /// Runs particle `id`'s activation through `port`, its tail in the
  /// block, as one of the block's events: activates it and keeps the
  /// block's rows, log and C_b, but not its candidate lists — run()
  /// recodes them from the returned refresh cells.  Public for tests.
  Event event(AmoebotSystem& sys, const RejectionFreeRule& rule,
              std::uint32_t id, int port, rng::CounterStream& draw);

  /// True when the kept rows equal the planes' words of the block's tail
  /// rows and the rows beside them, word for word, and are zero elsewhere.
  [[nodiscard]] bool rowsMatch(const AmoebotSystem& sys) const;

  /// True when the incrementally kept structures equal a from-scratch
  /// rebuild's (lists as sets), rowsMatch() holds and the block still
  /// holds n_b tails.
  [[nodiscard]] bool matchesRebuild(const AmoebotSystem& sys,
                                    const RejectionFreeRule& rule) const;

  /// Σ_b, the candidate pairs, and C_b, the crossing pairs.
  [[nodiscard]] std::uint64_t candidateMass() const noexcept;
  [[nodiscard]] std::uint64_t crossing() const noexcept { return crossing_; }
  [[nodiscard]] const ActivationTallies& tallies() const noexcept {
    return tallies_;
  }
  [[nodiscard]] const std::vector<Move>& moves() const noexcept {
    return moves_;
  }
  /// Bytes held by the block's lists.
  [[nodiscard]] std::size_t memoryBytes() const noexcept;

 private:
  static constexpr int kSixPortsBit = lattice::kNumDirections;
  static constexpr Code kSixPorts = 1u << kSixPortsBit;
  /// Rows of zero padding on either side of the kept rows: a refresh cell
  /// sits up to two rows from ℓ, and its neighbours one more.
  static constexpr int kPad = 3;

  /// One block row of the four planes: one cache line.
  struct alignas(64) Planes {
    core::BlockRow occ{};
    core::BlockRow expanded{};
    core::BlockRow heads{};
    core::BlockRow faulty{};
    bool operator==(const Planes&) const = default;
  };

  /// The 7 × 7 cells around a block-local cell (x, y), one word per plane:
  /// bit windowBit({dx, dy}) holds the cell (x + dx, y + dy), |dx|, |dy| ≤
  /// kPad (heads and faulty: |dy| < kPad, the outer rows being read only
  /// as neighbours).  Bit 7 of every byte stays clear, so shifting a word
  /// by a direction's bit offset moves each cell's neighbour onto the cell
  /// without wrapping (classify()).
  struct Window {
    std::uint64_t occ = 0;
    std::uint64_t expanded = 0;
    std::uint64_t heads = 0;
    std::uint64_t faulty = 0;
  };
  [[nodiscard]] static constexpr int windowBit(TriPoint off) noexcept {
    return 8 * (off.y + kPad) + off.x + kPad;
  }

  /// A window's cells by what their codes need, one bit each: per
  /// direction d, the contracted protocol-following tails with no expanded
  /// neighbour and an empty target in direction d; the tails whose code
  /// needs their particle record (expanded or faulty); the cells whose six
  /// neighbours are all occupied.  A cell on the window's rim reads its
  /// neighbours outside the window as empty; the refresh asks none of
  /// them.
  struct Classes {
    std::array<std::uint64_t, lattice::kNumDirections> open{};
    std::uint64_t records = 0;
    std::uint64_t enclosed = 0;
  };

  /// A block-local cell as y·128 + x.
  [[nodiscard]] static std::uint16_t cellKey(std::int64_t x,
                                             std::int64_t y) noexcept {
    return static_cast<std::uint16_t>(y * kSize + x);
  }

  /// The particle whose tail is at `cell`.
  [[nodiscard]] std::uint32_t idAt(const AmoebotSystem& sys,
                                   TriPoint cell) const;
  /// The crossing pairs of particle `p` with its tail at block-local (x, y).
  [[nodiscard]] static int crossingOf(const Particle& p,
                                      const RejectionFreeRule& rule,
                                      std::int64_t x, std::int64_t y) noexcept;
  /// The kept row of block-local row y (−kPad ≤ y < 128 + kPad).
  [[nodiscard]] Planes& row(std::int64_t y) noexcept {
    return planes_[static_cast<std::size_t>(y + kPad)];
  }
  [[nodiscard]] const Planes& row(std::int64_t y) const noexcept {
    return planes_[static_cast<std::size_t>(y + kPad)];
  }
  /// The planes' words of block-local row y, as the kept rows hold them.
  [[nodiscard]] Planes planesOf(const AmoebotSystem& sys,
                                std::int64_t y) const noexcept;
  /// Loads the planes' words of the block-local `rows` into the kept rows.
  void loadRows(const AmoebotSystem& sys, const core::RowSet& rows);
  /// The window around block-local (x, y), from the kept rows.
  [[nodiscard]] Window windowAt(std::int64_t x, std::int64_t y) const noexcept;
  [[nodiscard]] static Classes classify(const Window& w) noexcept;
  /// The code of the cell at window bit `bit`, block-local (x, y), from its
  /// window's classes; record() gives the particle of an expanded or
  /// faulty tail.
  template <typename Record>
  [[nodiscard]] static Code codeOf(const Classes& classes, int bit,
                                   const RejectionFreeRule& rule,
                                   std::int64_t x, std::int64_t y,
                                   const Record& record);
  /// Sets (or clears) particle `p`'s bits in the kept rows and in `w`, the
  /// window around the absolute cell `centre`.
  void stamp(const Particle& p, bool set, TriPoint centre, Window& w) noexcept;
  /// Moves cell (x, y)'s candidate pairs from code `before` to `after`.
  void recode(std::int64_t x, std::int64_t y, Code before, Code after);
  /// Runs the candidate of rank `rank` < Σ_b and refreshes around it.
  void execute(AmoebotSystem& sys, const RejectionFreeRule& rule,
               rng::CounterStream& draw, std::uint32_t rank,
               bool verifyEachEvent);

  /// Per code bit, the cells that carry it: per direction the block's
  /// legal expansions, then its six-port particles.  In no fixed order.
  std::array<std::vector<std::uint16_t>, kSixPortsBit + 1> cells_;
  std::uint64_t crossing_ = 0;
  /// The kept rows, block-local row y at planes_[y + kPad]: the planes'
  /// words on the rows of loaded_ — the tail rows and the rows beside
  /// them — and zero elsewhere.
  std::array<Planes, kSize + 2 * kPad> planes_{};
  core::RowSet loaded_{};
  ActivationTallies tallies_;
  std::vector<Move> moves_;
};

/// One rejection-free epoch of `length` activations on `sys`, its blocks
/// run by `forEach`, the id index frozen for the phase; adds the outcomes
/// to `tallies` and returns the skips (tallied by the executor).
std::uint64_t runRejectionFreeEpoch(
    core::RejectionFreeSampler<RejectionFreeRule>& sampler,
    AmoebotSystem& sys, const core::BlockEpoch& ep, std::uint64_t length,
    const core::BlockForEach& forEach, ActivationTallies& tallies,
    bool verifyEachEvent = false);

class ShardedPoissonRunner {
 public:
  /// The runner holds references: `sys` and `algo` must outlive it.
  ShardedPoissonRunner(AmoebotSystem& sys,
                       const LocalCompressionAlgorithm& algo,
                       std::uint64_t seed, ShardedOptions options = {});

  /// See core::EpochRouter::setCancelToken.
  void setCancelToken(const core::CancelToken* cancel) noexcept {
    router_.setCancelToken(cancel);
  }

  /// Test-only (core::EpochRoute::BlockOnly): pins the block path's
  /// trajectory for list-order oracles and thread-count identity.
  void forceBlockPathForTest() noexcept { router_.forceBlockPath(); }

  /// Test-only (core::EpochRoute::RejectionFreeOnly, from the first
  /// epoch); `verifyEachEvent` checks each block against a rebuild after
  /// every event.
  void forceRejectionFreeForTest(bool verifyEachEvent = false) {
    router_.forceRejectionFree(executor_.uniformSelection(), verifyEachEvent);
  }

  /// core::EpochRouter::runAtLeast over activations.  Block-path epochs
  /// suspend the id index and rejection-free ones freeze it; between calls
  /// the system is fully consistent (at(), expandedCount()) and may be
  /// read or changed (AmoebotSystem::mutations() tells the sampler to
  /// recount its anchors).
  std::uint64_t runAtLeast(std::uint64_t minActivations) {
    return router_.runAtLeast(minActivations, executor_, *this);
  }

  /// Serializes the runner's evolving state (snapshot v7): L, the epoch
  /// index, the boundary-skip count, the outcome tallies and the routing
  /// state — the last decision's non-Idle count per epoch and the
  /// rejection-free epoch count.  The system itself is serialized separately
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
    return router_.rejectionFreeEpochs();
  }

 private:
  friend class core::EpochRouter<RejectionFreeRule>;

  // The router's hooks (core::EpochRouter::runAtLeast).
  [[nodiscard]] std::uint64_t routedEvents() const noexcept {
    return tallies_.events();
  }
  void runBlockEpoch();
  [[nodiscard]] RejectionFreeRule rejectionFreeRule() const noexcept {
    return RejectionFreeRule(algo_);
  }
  std::uint64_t runRejectionFreeEpoch(
      core::RejectionFreeSampler<RejectionFreeRule>& sampler,
      const core::BlockEpoch& ep, std::uint64_t length,
      const core::BlockForEach& forEach, bool verify) {
    return amoebot::runRejectionFreeEpoch(sampler, sys_, ep, length, forEach,
                                          tallies_, verify);
  }
  void restoreIndex() { sys_.restoreIdIndex(); }

  /// Algorithm A's event kernel for the block executor.
  class Kernel {
   public:
    using Tallies = ActivationTallies;

    /// Reads reach distance 2 of the tail: the pair plus one cell.
    static constexpr std::int64_t kRadius = RejectionFreeRule::kRadius;

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
  core::EpochRouter<RejectionFreeRule> router_;
  ActivationTallies tallies_;
};

}  // namespace sops::amoebot

#endif  // SOPS_AMOEBOT_PARALLEL_SCHEDULER_HPP

#ifndef SOPS_CORE_REJECTION_FREE_HPP
#define SOPS_CORE_REJECTION_FREE_HPP

/// \file rejection_free.hpp
/// Rejection-free epochs: the n-fold way of Bortz, Kalos and Lebowitz (J.
/// Comput. Phys. 17, 1975), run block by block on core::BlockExecutor's
/// workers, sampling exactly the law of one block-path epoch (DESIGN.md
/// §Rejection-free epochs).  One sampler, RejectionFreeSampler<Rule>,
/// serves both runners, the way BlockExecutor<Kernel> does: the rule
/// supplies the per-block n-fold way — RejectionFreeRules here for chain
/// M, amoebot::RejectionFreeRule for Algorithm A.
///
/// **The factorisation.**  No particle leaves its block within an epoch
/// and blocks touch disjoint state (block_executor.hpp §Execution), so the
/// proposal counts of the occupied blocks are (m_b) ~ Multinomial(L,
/// n_b/n), and given them block b runs m_b proposals uniform over its own
/// particles, independently of the others.  The sampler draws (m_b) as
/// conditional binomials over the occupied blocks in canonical order
/// (block row, then column); block b runs from counter streams keyed by
/// (seed, e, b).  The coordinator places the blocks — n_b and the occupied
/// rows — from the anchor populations it keeps for a flat window across
/// epochs (AnchorPopulation: per word and per 64-row band, O(bands) per
/// block), or by one pass over the particles of a tiled grid; grows the
/// storage by the executor's rule with m_b in place of c_i; runs the
/// blocks largest m_b first on the executor's workers (in order at
/// threads = 1) — each writing only its own words and particles, never a
/// structure another block reads, the cell → id index above all — and
/// commits them in canonical order, O(moves), the kept populations with
/// them.  An epoch is a pure function of the seed and the configuration
/// at any thread count.
///
/// **Chain M's rule** (RejectionFreeRules, RejectionFreeBlock; DESIGN.md
/// §Rejection-free epochs).  A proposal picks a (particle, direction) pair
/// uniformly among the block's 6n_b: a boundary reject if the pair crosses
/// a block line, else it stops at its stage — target occupied, gap,
/// property, or the filter, which accepts with probability a(δ), δ the
/// pair's e′ − e.  The block line thins crossing pairs out of the
/// candidates, the non-crossing pairs drawn ∝ a, so every candidate is an
/// accepted move; the failures before the next one are
/// Geometric(A_b/6n_b), their stages one multinomial draw over the block's
/// failure masses, and a run that passes m_b is cut there (the geometric
/// law is memoryless).  The structures — per code the non-crossing pair
/// counts, the crossing count, per filter class the list of its pairs —
/// are rebuilt every epoch from the block's own copy of its 128 rows,
/// loaded from the grid words of its occupied rows, and recoded around
/// each move (cells within distance 2 of ℓ or ℓ′).  A move reads no grid
/// word: the refresh gathers each cell's disc (its cells within distance
/// 2) once from the block's rows, and the flip tables give its disc after
/// the move — the invariant they rest on is that ℓ → ℓ′ flips exactly the
/// two cells ℓ and ℓ′, so every refresh cell's targets and rings after the
/// move are those before XOR a fixed mask per (d, cell).  The refresh
/// issues its count and list updates cell by cell in kRefreshCells order,
/// directions ascending, as a recode from grid gathers would.  A move
/// changes the block's rows and the grid's occupancy bits
/// (ParticleSystem::moveOccupancy) and is logged; the commit replays the
/// log into the positions and the cell → id index
/// (ParticleSystem::commitMove).  Only uniform-weight models without an
/// aux move, under uniform selection, qualify: otherwise a would depend on
/// more than δ.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/biased_chain_engine.hpp"
#include "core/block_executor.hpp"
#include "core/chain_stats.hpp"
#include "core/compression_chain.hpp"
#include "lattice/direction.hpp"
#include "lattice/edge_ring.hpp"
#include "lattice/tri_point.hpp"
#include "rng/random.hpp"
#include "system/bit_grid.hpp"
#include "system/particle_system.hpp"
#include "util/assert.hpp"
#include "util/flat_hash.hpp"
#include "util/mix.hpp"
#include "util/popcount.hpp"

namespace sops::core {

/// Pair codes: what a movement proposal of a non-crossing pair would do.
/// Filter pairs carry kPairFilter + δ + 5.
inline constexpr std::uint8_t kPairOccupied = 0;
inline constexpr std::uint8_t kPairGap = 1;
inline constexpr std::uint8_t kPairProperty = 2;
inline constexpr std::uint8_t kPairFilter = 3;
inline constexpr int kPairFilterClasses = 11;  ///< δ ∈ [−5, 5]
inline constexpr int kPairCodes = kPairFilter + kPairFilterClasses;
/// Nibbles of a cell's packed codes that are not pair codes: a pair that
/// crosses a block line, and every pair of an empty cell.
inline constexpr std::uint8_t kPairCrossing = kPairCodes;
inline constexpr std::uint8_t kPairNone = 15;

/// A set of block-local rows (bit y of the 128), as two words.
using RowSet = std::array<std::uint64_t, 2>;

/// Calls fn(y) for every row y of `rows`, in increasing order.
template <typename Fn>
void forEachRow(const RowSet& rows, Fn&& fn) {
  for (std::size_t half = 0; half < 2; ++half) {
    for (std::uint64_t w = rows[half]; w != 0; w &= w - 1) {
      fn(static_cast<std::int64_t>(64 * half) + std::countr_zero(w));
    }
  }
}

/// The rows y − reach … y + reach of every row y of `rows`.
[[nodiscard]] inline RowSet dilateRows(RowSet rows, int reach) noexcept {
  for (int step = 0; step < reach; ++step) {
    rows = {rows[0] | (rows[0] << 1) | (rows[0] >> 1) | (rows[1] << 63),
            rows[1] | (rows[1] << 1) | (rows[1] >> 1) | (rows[0] >> 63)};
  }
  return rows;
}

/// Per-code pair counts.
using PairCounts = std::array<std::uint64_t, kPairCodes>;

/// One 128-cell block row as two words.
using BlockRow = std::array<std::uint64_t, 2>;

// The rebuilds shift whole words by the direction offsets E (1, 0),
// NE (0, 1), NW (−1, 1), W (−1, 0), SW (0, −1), SE (1, −1).
static_assert([] {
  constexpr std::array<std::array<int, 2>, lattice::kNumDirections> kWant = {
      {{1, 0}, {0, 1}, {-1, 1}, {-1, 0}, {0, -1}, {1, -1}}};
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    const TriPoint off = lattice::offset(lattice::directionFromIndex(d));
    const auto& want = kWant[static_cast<std::size_t>(d)];
    if (off.x != want[0] || off.y != want[1]) return false;
  }
  return true;
}());

/// Per direction d, the neighbour in direction d of every cell of `row`
/// (bit x: the cell x + offset(d)), from the row and the rows above and
/// below; cells past the block read 0.
[[nodiscard]] inline std::array<BlockRow, lattice::kNumDirections>
neighborWords(const BlockRow& row, const BlockRow& up,
              const BlockRow& down) noexcept {
  const std::uint64_t lo = row[0];
  const std::uint64_t hi = row[1];
  return {{{(lo >> 1) | (hi << 63), hi >> 1},
           {up[0], up[1]},
           {up[0] << 1, (up[1] << 1) | (up[0] >> 63)},
           {lo << 1, (hi << 1) | (lo >> 63)},
           {down[0], down[1]},
           {(down[0] >> 1) | (down[1] << 63), down[1] >> 1}}};
}

inline constexpr std::size_t kRefreshSize = 24;
inline constexpr std::size_t kRefreshNear = 10;

/// Per direction d, the cells within distance 2 of ℓ or ℓ + d, relative
/// to ℓ: every particle whose ring or target an ℓ → ℓ + d move touches.
/// The first kRefreshNear are within distance 1 of ℓ or ℓ + d.
[[nodiscard]] constexpr auto refreshCells() noexcept {
  std::array<std::array<TriPoint, kRefreshSize>, lattice::kNumDirections>
      table{};
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    const TriPoint off = lattice::offset(lattice::directionFromIndex(d));
    std::size_t k = 0;
    for (const int reach : {1, 2}) {
      for (std::int32_t y = -3; y <= 3; ++y) {
        for (std::int32_t x = -3; x <= 3; ++x) {
          const TriPoint cell{x, y};
          const int near = std::min(lattice::latticeDistance({0, 0}, cell),
                                    lattice::latticeDistance(off, cell));
          if (reach == 1 ? near <= 1 : near == 2) {
            if (k < kRefreshSize) table[static_cast<std::size_t>(d)][k] = cell;
            ++k;
          }
        }
      }
    }
  }
  return table;
}

// Two adjacent radius-1 discs share 4 cells (10 in the union); radius-2
// discs add 14 more.
static_assert([] {
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    const TriPoint off = lattice::offset(lattice::directionFromIndex(d));
    std::size_t near = 0;
    std::size_t all = 0;
    for (std::int32_t y = -3; y <= 3; ++y) {
      for (std::int32_t x = -3; x <= 3; ++x) {
        const TriPoint cell{x, y};
        const int r = std::min(lattice::latticeDistance({0, 0}, cell),
                               lattice::latticeDistance(off, cell));
        near += r <= 1 ? 1 : 0;
        all += r <= 2 ? 1 : 0;
      }
    }
    if (near != kRefreshNear || all != kRefreshSize) return false;
  }
  return true;
}());

/// See refreshCells().
inline constexpr auto kRefreshCells = refreshCells();

/// The disc of a cell c: its cells within distance 2, one bit each — bit e
/// the neighbour c + offset(e), bit 6 + j the second-ring cell j (2e:
/// c + 2·offset(e); 2e + 1: c + offset(e) + offset(e + 1)), bit kDiscCenter
/// c itself.  It holds every target and ring cell of c's six pairs.
inline constexpr int kDiscCenter = 18;

/// The disc bit of the cell `off` from the centre; −1 beyond distance 2.
[[nodiscard]] constexpr int discBit(TriPoint off) noexcept {
  if (off == TriPoint{0, 0}) return kDiscCenter;
  for (int e = 0; e < lattice::kNumDirections; ++e) {
    const TriPoint step = lattice::offset(lattice::directionFromIndex(e));
    const TriPoint next = lattice::offset(lattice::directionFromIndex(e + 1));
    if (off == step) return e;
    if (off == step + step) return 6 + 2 * e;
    if (off == step + next) return 6 + 2 * e + 1;
  }
  return -1;
}

/// The ring mask of the pair (c, e) from c's disc: ring cells 0–4 are the
/// neighbours e + 1 … e + 5, ring cells 5–7 the second-ring cells 2e − 1 …
/// 2e + 1 (lattice/edge_ring.hpp) — two rotations, no gather.
[[nodiscard]] constexpr std::uint8_t discRing(std::uint32_t disc,
                                              int e) noexcept {
  // Each ring of the disc written twice, so a rotation is one shift.
  const std::uint32_t near = (disc & 0x3F) * 0x41;
  const std::uint32_t far = ((disc >> 6) & 0xFFF) * 0x1001;
  return static_cast<std::uint8_t>(((near >> (e + 1)) & 0x1F) |
                                   (((far >> (2 * e + 11)) & 7) << 5));
}

static_assert([] {
  for (int e = 0; e < lattice::kNumDirections; ++e) {
    for (int idx = 0; idx < lattice::kEdgeRingSize; ++idx) {
      const auto& offsets =
          lattice::kEdgeRingOffsets[static_cast<std::size_t>(e)];
      const int bit = discBit(offsets[static_cast<std::size_t>(idx)]);
      if (bit < 0 || discRing(std::uint32_t{1} << bit, e) != 1u << idx) {
        return false;
      }
    }
  }
  return true;
}());

/// What the move ℓ → ℓ′ = ℓ + d changes for one refresh cell: only ℓ
/// empties and only ℓ′ fills, so the cell's disc after the move is its
/// disc before XOR `disc`, and of a particle that stays there only the
/// pairs in `pairs` — those whose ring holds ℓ or ℓ′ — can change code.
/// (A pair whose target is one of them has the other in its ring: ℓ and
/// ℓ′ are neighbours.)
struct RefreshFlip {
  std::uint32_t disc = 0;
  std::uint32_t pairs = 0;
};

/// The flip tables: per move direction d, the flips of each cell of
/// kRefreshCells[d].
[[nodiscard]] constexpr auto refreshFlips() noexcept {
  std::array<std::array<RefreshFlip, kRefreshSize>, lattice::kNumDirections>
      table{};
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    const TriPoint to = lattice::offset(lattice::directionFromIndex(d));
    for (std::size_t k = 0; k < kRefreshSize; ++k) {
      const TriPoint cell = kRefreshCells[static_cast<std::size_t>(d)][k];
      RefreshFlip& flip = table[static_cast<std::size_t>(d)][k];
      for (const TriPoint moved : {TriPoint{0, 0}, to}) {
        const int bit = discBit({moved.x - cell.x, moved.y - cell.y});
        if (bit >= 0) flip.disc |= 1u << bit;
      }
      for (int e = 0; e < lattice::kNumDirections; ++e) {
        if (discRing(flip.disc, e) != 0) flip.pairs |= 1u << e;
      }
    }
  }
  return table;
}

/// See refreshFlips().
inline constexpr auto kRefreshFlips = refreshFlips();

/// The block lines as a boundary rule widened by `widen` sees them: per
/// direction d, the block-local cells (x, y) ∈ [x0, x1] × [y0, y1] whose
/// pair (ℓ, ℓ + d), widened, stays inside the block (BlockEpoch::inside()
/// in block coordinates), with the columns as two words; and the same as
/// per-column and per-row direction masks, and as crossing pairs per
/// column for the rows every span covers.
struct BlockLines {
  static constexpr std::int64_t kSize = BlockEpoch::kBlockSize;

  struct Span {
    std::int64_t x0, x1, y0, y1;
    std::array<std::uint64_t, 2> columns{};
  };

  explicit BlockLines(std::int64_t widen) {
    const auto reach = blockReach(widen);
    for (int d = 0; d < lattice::kNumDirections; ++d) {
      const BlockReach& box = reach[static_cast<std::size_t>(d)];
      Span& span = inside[static_cast<std::size_t>(d)];
      span = {-box.loX, kSize - 1 - box.hiX, -box.loY, kSize - 1 - box.hiY};
      for (std::int64_t x = span.x0; x <= span.x1; ++x) {
        span.columns[static_cast<std::size_t>(x >> 6)] |= std::uint64_t{1}
                                                          << (x & 63);
        columnMask[static_cast<std::size_t>(x)] |=
            static_cast<std::uint8_t>(1u << d);
      }
      for (std::int64_t y = span.y0; y <= span.y1; ++y) {
        rowMask[static_cast<std::size_t>(y)] |=
            static_cast<std::uint8_t>(1u << d);
      }
      rowsY0 = std::max(rowsY0, span.y0);
      rowsY1 = std::min(rowsY1, span.y1);
    }
    for (std::int64_t x = 0; x < kSize; ++x) {
      const int crossing = lattice::kNumDirections -
                           util::popcount64(columnMask[static_cast<std::size_t>(x)]);
      edgeCrossings[static_cast<std::size_t>(x)] =
          static_cast<std::uint8_t>(crossing);
      if (crossing != 0) {
        edgeColumns[static_cast<std::size_t>(x >> 6)] |= std::uint64_t{1}
                                                         << (x & 63);
      }
    }
  }

  /// The directions d whose pair (ℓ, ℓ + d) from block-local cell (x, y)
  /// crosses no block line — BlockEpoch::inside() in block coordinates —
  /// as a mask.
  [[nodiscard]] std::uint8_t nonCrossingMask(std::int64_t x,
                                             std::int64_t y) const noexcept {
    return columnMask[static_cast<std::size_t>(x)] &
           rowMask[static_cast<std::size_t>(y)];
  }

  std::array<Span, lattice::kNumDirections> inside{};
  /// Bit d: column x (row y) lies in direction d's span.
  std::array<std::uint8_t, kSize> columnMask{};
  std::array<std::uint8_t, kSize> rowMask{};
  /// The rows [rowsY0, rowsY1] inside every direction's span; in them a
  /// cell of column x has edgeCrossings[x] crossing pairs, nonzero only
  /// on the few edgeColumns.
  std::int64_t rowsY0 = 0;
  std::int64_t rowsY1 = kSize - 1;
  std::array<std::uint8_t, kSize> edgeCrossings{};
  std::array<std::uint64_t, 2> edgeColumns{};
};

/// Where one occupied block of an epoch sits and what the multinomial
/// dealt it; every rule's block derives from it.
class BlockPlacement {
 public:
  static constexpr std::int64_t kSize = BlockEpoch::kBlockSize;

  /// Places the block at absolute block coordinates (bx, by) under ep's
  /// offsets, with `particles` particles in the block-local `rows` and
  /// `proposals` proposals.
  void place(const BlockEpoch& ep, std::int64_t bx, std::int64_t by,
             std::uint32_t particles, const RowSet& rows,
             std::uint64_t proposals) noexcept {
    bx_ = bx;
    by_ = by;
    x0_ = (bx << BlockEpoch::kBlockShift) + ep.offsetX;
    y0_ = (by << BlockEpoch::kBlockShift) + ep.offsetY;
    particles_ = particles;
    rows_ = rows;
    proposals_ = proposals;
    boundaryRejects_ = 0;
  }

  [[nodiscard]] std::uint32_t particles() const noexcept { return particles_; }
  /// The block-local rows holding particles (at the epoch start, and any a
  /// move has entered since).
  [[nodiscard]] const RowSet& rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint64_t proposals() const noexcept { return proposals_; }
  [[nodiscard]] std::int64_t blockX() const noexcept { return bx_; }
  [[nodiscard]] std::int64_t blockY() const noexcept { return by_; }
  /// The absolute cell of the block's lower-left corner.
  [[nodiscard]] std::int64_t originX() const noexcept { return x0_; }
  [[nodiscard]] std::int64_t originY() const noexcept { return y0_; }
  /// Proposals the boundary rule rejected (tallied by the executor).
  [[nodiscard]] std::uint64_t boundaryRejects() const noexcept {
    return boundaryRejects_;
  }

 protected:
  /// The n-fold way over the block's proposals, both rules' skeleton: run
  /// r draws from streams (key, 2r) and (key, 2r + 1); its failures,
  /// Geometric(mass/6n_b) (mass ≤ 6n_b) cut at the proposals left (the law
  /// is memoryless), go to split(); then execute(draw, mass) runs a
  /// candidate.
  template <typename MassOf, typename Split, typename Execute>
  void runNFoldWay(std::uint64_t key, const MassOf& massOf, const Split& split,
                   const Execute& execute) {
    const double pairs =
        static_cast<double>(lattice::kNumDirections * particles_);
    std::uint64_t remaining = proposals_;
    for (std::uint64_t run = 0; remaining > 0; ++run) {
      rng::CounterStream draw(key, 2 * run);
      rng::CounterStream failureDraw(key, 2 * run + 1);
      const double mass = massOf();
      const std::uint64_t gap =
          mass > 0.0 ? draw.geometric(std::min(1.0, mass / pairs))
                     : ~std::uint64_t{0};
      const std::uint64_t failures = std::min(gap, remaining);
      if (failures > 0) {
        split(failureDraw, failures);
        remaining -= failures;
        if (remaining == 0) break;
      }
      --remaining;
      execute(draw, mass);
    }
  }

  [[nodiscard]] TriPoint cellAt(std::int64_t x, std::int64_t y) const noexcept {
    return {static_cast<std::int32_t>(x0_ + x),
            static_cast<std::int32_t>(y0_ + y)};
  }
  /// Adds the row of absolute cell y to rows().
  void enterRow(std::int64_t y) noexcept {
    const std::int64_t local = y - y0_;
    rows_[static_cast<std::size_t>(local >> 6)] |= std::uint64_t{1}
                                                   << (local & 63);
  }

  std::int64_t bx_ = 0;
  std::int64_t by_ = 0;
  std::int64_t x0_ = 0;  ///< absolute cell of block-local (0, 0)
  std::int64_t y0_ = 0;
  std::uint32_t particles_ = 0;
  RowSet rows_{};
  std::uint64_t proposals_ = 0;
  std::uint64_t boundaryRejects_ = 0;
};

class RejectionFreeBlock;

/// Chain M's block rule: what the decision table and the boundary rule fix
/// for every block — the code of an empty-target pair by its ring mask,
/// the acceptance probability a per code, and per direction the
/// block-local cells whose pair does not cross a block line.
struct RejectionFreeRules : BlockLines {
  using System = system::ParticleSystem;
  using Block = RejectionFreeBlock;

  /// `decisions` is the runner's decision table (its δ, stage and
  /// thresholds fix every code and acceptance probability); `widen` the
  /// boundary rule's widening, Model::kInteractionRadius − 1.
  RejectionFreeRules(const std::array<MoveDecision, 256>& decisions,
                     bool greedy, std::int64_t widen)
      : BlockLines(widen) {
    for (int m = 0; m < 256; ++m) {
      const MoveDecision& decision = decisions[static_cast<std::size_t>(m)];
      std::uint8_t code = kPairFilter + decision.delta + 5;
      if (decision.stage ==
          static_cast<std::uint8_t>(StepOutcome::RejectedGap)) {
        code = kPairGap;
      } else if (decision.stage ==
                 static_cast<std::uint8_t>(StepOutcome::RejectedProperty)) {
        code = kPairProperty;
      }
      maskCode[static_cast<std::size_t>(m)] = code;
      // The block path accepts iff acceptNoDraw, or (not greedy) a 53-bit
      // uniform k·2⁻⁵³ < threshold: probability ⌈threshold·2⁵³⌉·2⁻⁵³.
      double a = 1.0;
      if (!decision.acceptNoDraw) {
        a = greedy ? 0.0
                   : std::ceil(std::ldexp(decision.threshold, 53)) * 0x1.0p-53;
      }
      accept[kPairFilter + decision.delta + 5] = a;
    }
  }

  /// The sampler's view of the system: the grid the blocks align to, a
  /// particle's cell, and the particles of a flat window word.
  [[nodiscard]] static const system::BitGrid& grid(const System& sys) noexcept {
    return sys.grid();
  }
  [[nodiscard]] static TriPoint anchor(const System& sys, std::size_t i) {
    return sys.position(i);
  }
  [[nodiscard]] static std::uint64_t anchorWord(const System& sys,
                                                std::int64_t y,
                                                std::size_t k) noexcept {
    return sys.grid().flatRow(y)[k];
  }
  /// The runner owns its system: only its epochs and restores move a
  /// particle, and the router reports both (EpochRouter).
  [[nodiscard]] static std::uint64_t mutations(const System&) noexcept {
    return 0;
  }
  /// Rebuilds `block` and runs its proposals (see RejectionFreeBlock).
  void runBlock(System& sys, RejectionFreeBlock& block, std::uint64_t key,
                bool verifyEachMove) const;

  std::array<std::uint8_t, 256> maskCode{};
  std::array<double, kPairCodes> accept{};  ///< a per code (0 off-filter)
};

/// One occupied block of one chain epoch: its structures (see the file
/// comment), its n-fold way, its tallies and the log of its moves.
class RejectionFreeBlock : public BlockPlacement {
 public:
  /// One accepted move, replayed into the particle system after the phase.
  struct Move {
    TriPoint from;
    TriPoint to;
  };

  /// place(), and clears the tallies and the move log.
  void reset(const BlockEpoch& ep, std::int64_t bx, std::int64_t by,
             std::uint32_t particles, const RowSet& rows,
             std::uint64_t proposals) noexcept {
    place(ep, bx, by, particles, rows, proposals);
    stats_ = {};
    edges_ = 0;
    moves_.clear();
  }

  /// Loads the block's words from the grid — those of its occupied rows,
  /// the others being empty — and rebuilds the pair counts and candidate
  /// lists from them, so a sparse block costs its rows, not its area;
  /// reads nothing outside the block.
  void rebuild(const system::BitGrid& grid, const RejectionFreeRules& rules) {
    counts_.fill(0);
    crossing_ = 0;
    for (std::vector<std::uint32_t>& members : members_) members.clear();
    // The padding beyond the block reads zero: it only ever feeds crossing
    // pairs.
    words_.fill({});
    forEachRow(rows_, [&](std::int64_t y) {
      words_[static_cast<std::size_t>(y + kPad)] = {
          grid.rowBits(x0_, y0_ + y), grid.rowBits(x0_ + 64, y0_ + y)};
    });
    // Occupied pairs are 6·n_b (the coordinator's count) minus the
    // crossing and the empty-target pairs; crossing pairs are the band
    // rows' cells plus the few edge columns of the others.
    std::uint64_t emptyTargets = 0;
    forEachRow(rows_, [&](std::int64_t y) {
      const auto& row = words_[static_cast<std::size_t>(y + kPad)];
      const std::uint64_t lo = row[0];
      const std::uint64_t hi = row[1];
      if ((lo | hi) == 0) return;  // emptied by this epoch's moves
      const auto& up = words_[static_cast<std::size_t>(y + kPad + 1)];
      const auto& down = words_[static_cast<std::size_t>(y + kPad - 1)];
      if (y >= rules.rowsY0 && y <= rules.rowsY1) {
        for (std::size_t half = 0; half < 2; ++half) {
          for (std::uint64_t edge = row[half] & rules.edgeColumns[half];
               edge != 0; edge &= edge - 1) {
            crossing_ += rules.edgeCrossings[64 * half +
                                             static_cast<std::size_t>(
                                                 std::countr_zero(edge))];
          }
        }
        // Full here and above and below: every non-crossing target is
        // occupied.
        if ((lo & hi & up[0] & up[1] & down[0] & down[1]) == ~std::uint64_t{0}) {
          return;
        }
      }
      // The target of every cell of the row, per direction and half.
      const auto targets = neighborWords(row, up, down);
      for (int d = 0; d < lattice::kNumDirections; ++d) {
        const BlockLines::Span& span = rules.inside[static_cast<std::size_t>(d)];
        if (y < span.y0 || y > span.y1) {  // a band row: every pair crosses
          crossing_ += util::popcount64(lo) + util::popcount64(hi);
          continue;
        }
        for (std::size_t half = 0; half < 2; ++half) {
          if (y < rules.rowsY0 || y > rules.rowsY1) {
            crossing_ += util::popcount64(row[half] & ~span.columns[half]);
          }
          const std::uint64_t inside = row[half] & span.columns[half];
          std::uint64_t empty =
              inside & ~targets[static_cast<std::size_t>(d)][half];
          if (empty == 0) continue;
          // The eight ring cells of all 64 pairs, one word each, from the
          // loaded rows (a ring gather through the grid per pair costs a
          // tile lookup on a tiled grid).
          std::array<std::uint64_t, lattice::kEdgeRingSize> ring{};
          for (int idx = 0; idx < lattice::kEdgeRingSize; ++idx) {
            const TriPoint off = lattice::kEdgeRingOffsets
                [static_cast<std::size_t>(d)][static_cast<std::size_t>(idx)];
            ring[static_cast<std::size_t>(idx)] =
                shiftedHalf(words_[static_cast<std::size_t>(y + off.y + kPad)],
                            half, off.x);
          }
          // One ring pattern at a time: the first empty pair's, then every
          // pair of the word that shares it (a straight run of particles
          // shares one per direction).
          while (empty != 0) {
            const int first = std::countr_zero(empty);
            std::uint32_t mask = 0;
            std::uint64_t same = empty;
            for (int idx = 0; idx < lattice::kEdgeRingSize; ++idx) {
              const std::uint64_t cells = ring[static_cast<std::size_t>(idx)];
              const bool set = ((cells >> first) & 1u) != 0;
              mask |= static_cast<std::uint32_t>(set) << idx;
              same &= set ? cells : ~cells;
            }
            empty &= ~same;
            const std::uint8_t code = rules.maskCode[mask];
            const std::uint64_t count = util::popcount64(same);
            counts_[code] += count;
            emptyTargets += count;
            if (code < kPairFilter) continue;
            for (; same != 0; same &= same - 1) {
              const std::int64_t x = static_cast<std::int64_t>(64 * half) +
                                     std::countr_zero(same);
              SOPS_DASSERT(mask == grid.ringMaskUnchecked(cellAt(x, y), d));
              members_[code - kPairFilter].push_back(pairKey(x, y, d));
            }
          }
        }
      }
    });
    counts_[kPairOccupied] =
        lattice::kNumDirections * std::uint64_t{particles_} - crossing_ -
        emptyTargets;
  }

  /// Runs the block's proposals by the n-fold way, every draw from counter
  /// streams under `key`.  Moves change occupancy bits only (see the file
  /// comment) and are logged.  With `verifyEachMove`, every accepted move
  /// is followed by a comparison against a from-scratch rebuild, which
  /// must agree.
  void run(system::ParticleSystem& sys, const RejectionFreeRules& rules,
           std::uint64_t key, bool verifyEachMove) {
    const auto massOf = [&] { return acceptMass(rules); };
    const auto split = [&](rng::CounterStream& draw, std::uint64_t failures) {
      splitFailures(draw, failures, rules);
    };
    const auto execute = [&](rng::CounterStream& draw, double mass) {
      ++stats_.steps;
      const auto [pair, code] = pick(draw, mass, rules);
      move(sys, rules, pair);
      edges_ += code - kPairFilter - 5;
      stats_.movement.record(StepOutcome::Accepted);
      if (verifyEachMove) {
        SOPS_REQUIRE(matchesRebuild(sys.grid(), rules),
                     "rejection-free block drifted from a rebuild");
      }
    };
    runNFoldWay(key, massOf, split, execute);
    SOPS_DASSERT(matchesRebuild(sys.grid(), rules));
  }

  /// True when the incrementally kept words, counts and candidate lists
  /// equal a from-scratch rebuild's (lists as sets: their order follows
  /// the moves).  Reads only the block's cells of the grid, like
  /// rebuild().
  [[nodiscard]] bool matchesRebuild(const system::BitGrid& grid,
                                    const RejectionFreeRules& rules) const {
    RejectionFreeBlock fresh = *this;
    fresh.rebuild(grid, rules);
    if (fresh.words_ != words_ || fresh.counts_ != counts_ ||
        fresh.crossing_ != crossing_) {
      return false;
    }
    for (std::size_t c = 0; c < members_.size(); ++c) {
      std::vector<std::uint32_t> mine = members_[c];
      std::vector<std::uint32_t> theirs = fresh.members_[c];
      std::sort(mine.begin(), mine.end());
      std::sort(theirs.begin(), theirs.end());
      if (mine != theirs) return false;
    }
    return true;
  }

  /// Non-crossing pairs per code, and crossing pairs.
  [[nodiscard]] const PairCounts& counts() const noexcept { return counts_; }
  [[nodiscard]] std::uint64_t crossing() const noexcept { return crossing_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::int64_t edgeDelta() const noexcept { return edges_; }
  [[nodiscard]] const std::vector<Move>& moves() const noexcept {
    return moves_;
  }
  /// Bytes held by the block's lists.
  [[nodiscard]] std::size_t memoryBytes() const noexcept {
    std::size_t bytes = sizeof(*this) + moves_.capacity() * sizeof(Move);
    for (const std::vector<std::uint32_t>& members : members_) {
      bytes += members.capacity() * sizeof(std::uint32_t);
    }
    return bytes;
  }

  /// The packed codes of an empty cell: six kPairNone.
  static constexpr std::uint32_t kEmptyCodes = 0xFFFFFFu;

  /// The refresh of the move of `pair` (block-local ℓ, direction d): calls
  /// emit(x, y, before, after) with the six codes, packed 4 bits per
  /// direction (kPairCrossing for a crossing pair, kEmptyCodes for an
  /// empty cell), before and after the move, of each of the block's cells
  /// within distance 2 of ℓ or ℓ′ = ℓ + d whose codes the move changes, in
  /// kRefreshCells order.  Reads only the block's words as they stand
  /// before the move: one disc gather per cell, its disc after the move
  /// from kRefreshFlips.  move() recodes through it; public for tests.
  template <typename Emit>
  void refresh(const RejectionFreeRules& rules, std::uint32_t pair,
               Emit&& emit) const {
    const auto d = static_cast<std::size_t>(pair & 7);
    const std::int64_t x = (pair >> 3) & (kSize - 1);
    const std::int64_t y = pair >> (3 + BlockEpoch::kBlockShift);
    // Columns x − kPad … x + kPad of rows y − kPad … y + kPad: the discs
    // of every refresh cell.
    std::array<std::uint32_t, 2 * kPad + 1> window;
    for (std::size_t r = 0; r < window.size(); ++r) {
      window[r] = columnsFrom(words_[static_cast<std::size_t>(y) + r],
                              x - kPad);
    }
    for (std::size_t k = 0; k < kRefreshSize; ++k) {
      const TriPoint cell = kRefreshCells[d][k];
      const std::int64_t cx = x + cell.x;
      const std::int64_t cy = y + cell.y;
      if (cx < 0 || cx >= kSize || cy < 0 || cy >= kSize) continue;
      const RefreshFlip& flip = kRefreshFlips[d][k];
      const bool full =
          ((window[static_cast<std::size_t>(cell.y + kPad)] >>
            (cell.x + kPad)) &
           1u) != 0;
      const bool fullAfter = full != (((flip.disc >> kDiscCenter) & 1u) != 0);
      if (!full && !fullAfter) continue;
      const std::uint32_t disc = discOf(window, cell);
      const std::uint32_t discAfter = disc ^ flip.disc;
      const std::uint32_t nonCrossing = rules.nonCrossingMask(cx, cy);
      std::uint32_t before = kEmptyCodes;
      std::uint32_t after = kEmptyCodes;
      if (full == fullAfter) {
        // A particle that stays: only its flipped non-crossing pairs with
        // an empty target before or after change.
        const std::uint32_t changed =
            flip.pairs & nonCrossing & ~(disc & discAfter);
        if (changed == 0) continue;
        before = codesOf(rules, disc, nonCrossing);
        after = before;
        for (std::uint32_t pairs = changed; pairs != 0; pairs &= pairs - 1) {
          const int e = std::countr_zero(pairs);
          after = (after & ~(std::uint32_t{0xF} << (4 * e))) |
                  (ringCode(rules, discAfter, nonCrossing, e) << (4 * e));
        }
      } else if (full) {
        before = codesOf(rules, disc, nonCrossing);  // ℓ
      } else {
        after = codesOf(rules, discAfter, nonCrossing);  // ℓ′
      }
      if (before != after) emit(cx, cy, before, after);
    }
  }

 private:
  /// Rows of padding on either side of the block's words: a refresh cell
  /// sits up to three rows from ℓ, and its disc two more.
  static constexpr int kPad = 5;

  /// The packed codes of a particle whose non-crossing pairs (bit e of the
  /// index) all have full targets.
  static constexpr auto kCrossingCodes = [] {
    std::array<std::uint32_t, 64> codes{};
    for (std::uint32_t mask = 0; mask < codes.size(); ++mask) {
      for (int e = 0; e < lattice::kNumDirections; ++e) {
        if (((mask >> e) & 1u) == 0) codes[mask] |= kPairCrossing << (4 * e);
      }
    }
    return codes;
  }();

  /// The code of the pair (c, e) from c's disc if it is non-crossing with
  /// an empty target, else 0.
  [[nodiscard]] static std::uint32_t ringCode(const RejectionFreeRules& rules,
                                              std::uint32_t disc,
                                              std::uint32_t nonCrossing,
                                              int e) noexcept {
    const std::uint32_t open = ((nonCrossing & ~disc) >> e) & 1u;
    return rules.maskCode[discRing(disc, e)] & (0u - open);
  }

  /// The six packed codes of a particle with this disc.
  [[nodiscard]] static std::uint32_t codesOf(
      const RejectionFreeRules& rules, std::uint32_t disc,
      std::uint32_t nonCrossing) noexcept {
    std::uint32_t codes = kCrossingCodes[nonCrossing];
    for (int e = 0; e < lattice::kNumDirections; ++e) {
      codes |= ringCode(rules, disc, nonCrossing, e) << (4 * e);
    }
    return codes;
  }

  /// Per row dy ∈ [−2, 2] of a disc: its cells dx ∈ [lo, lo + width) and,
  /// per pattern of their occupancy, the disc bits they set.
  struct DiscRow {
    int lo, width;
    std::array<std::uint32_t, 32> bits;
  };
  static constexpr auto kDiscRows = [] {
    std::array<DiscRow, 5> rows{};
    for (int dy = -2; dy <= 2; ++dy) {
      DiscRow& row = rows[static_cast<std::size_t>(dy + 2)];
      row.lo = std::max(-2, -2 - dy);
      row.width = std::min(2, 2 - dy) - row.lo + 1;
      for (std::uint32_t pattern = 0; pattern < (1u << row.width); ++pattern) {
        for (int j = 0; j < row.width; ++j) {
          if (((pattern >> j) & 1u) != 0) {
            row.bits[pattern] |= 1u << discBit({row.lo + j, dy});
          }
        }
      }
    }
    return rows;
  }();

  /// The disc of the refresh cell `cell` (relative to ℓ) from the window
  /// around ℓ: five row segments, five table lookups.
  [[nodiscard]] static std::uint32_t discOf(
      const std::array<std::uint32_t, 2 * kPad + 1>& window,
      TriPoint cell) noexcept {
    std::uint32_t disc = 0;
    for (int dy = -2; dy <= 2; ++dy) {
      const DiscRow& row = kDiscRows[static_cast<std::size_t>(dy + 2)];
      const std::uint32_t cells =
          window[static_cast<std::size_t>(cell.y + kPad + dy)] >>
          (cell.x + kPad + row.lo);
      disc |= row.bits[cells & ((1u << row.width) - 1)];
    }
    return disc;
  }

  /// The 2·kPad + 1 cells first … first + 2·kPad of a 128-cell row (bit j:
  /// cell first + j), first ∈ [−kPad, 127]; cells past the block read 0.
  [[nodiscard]] static std::uint32_t columnsFrom(const BlockRow& row,
                                                 std::int64_t first) noexcept {
    constexpr std::uint64_t kMask = (std::uint64_t{1} << (2 * kPad + 1)) - 1;
    if (first < 0) {
      return static_cast<std::uint32_t>((row[0] << -first) & kMask);
    }
    if (first < 64) {
      return static_cast<std::uint32_t>(
          ((row[0] >> first) | ((row[1] << 1) << (63 - first))) & kMask);
    }
    return static_cast<std::uint32_t>((row[1] >> (first - 64)) & kMask);
  }

  /// The cells x + dx of a 128-cell row for the 64 x of one half, as a
  /// word (bit j for x = 64·half + j); cells past the block read 0.
  [[nodiscard]] static std::uint64_t shiftedHalf(const BlockRow& row,
                                                 std::size_t half,
                                                 std::int32_t dx) noexcept {
    if (dx == 0) return row[half];
    if (dx > 0) {
      return half == 0 ? (row[0] >> dx) | (row[1] << (64 - dx))
                       : row[1] >> dx;
    }
    return half == 0 ? row[0] << -dx
                     : (row[1] << -dx) | (row[0] >> (64 + dx));
  }

  /// A pair as (block-local cell y·128 + x) · 8 + direction.
  [[nodiscard]] static std::uint32_t pairKey(std::int64_t x, std::int64_t y,
                                             int d) noexcept {
    return static_cast<std::uint32_t>(((y * kSize + x) << 3) | d);
  }

  [[nodiscard]] static std::uint8_t codeOf(std::uint32_t codes,
                                           int d) noexcept {
    return static_cast<std::uint8_t>((codes >> (4 * d)) & 0xF);
  }

  /// Counts a non-crossing pair under `code` (and lists a filter pair).
  void add(std::int64_t x, std::int64_t y, int d, std::uint8_t code) {
    ++counts_[code];
    if (code >= kPairFilter) {
      members_[code - kPairFilter].push_back(pairKey(x, y, d));
    }
  }

  /// Undoes add().  A class list holds one δ's boundary pairs of one
  /// block — tens in the compressed regime the route serves — so the
  /// linear search stays short.
  void remove(std::int64_t x, std::int64_t y, int d, std::uint8_t code) {
    --counts_[code];
    if (code >= kPairFilter) {
      std::vector<std::uint32_t>& members = members_[code - kPairFilter];
      const auto it = std::find(members.begin(), members.end(), pairKey(x, y, d));
      SOPS_DASSERT(it != members.end());
      *it = members.back();
      members.pop_back();
    }
  }

  /// Moves cell (x, y)'s pairs from their codes `before` to `after`.
  void recode(std::int64_t x, std::int64_t y, std::uint32_t before,
              std::uint32_t after) {
    for (std::uint32_t diff = before ^ after; diff != 0;) {
      const int d = std::countr_zero(diff) / 4;
      diff &= ~(std::uint32_t{0xF} << (4 * d));
      const std::uint8_t was = codeOf(before, d);
      const std::uint8_t now = codeOf(after, d);
      if (was == kPairCrossing) {
        --crossing_;
      } else if (was != kPairNone) {
        remove(x, y, d, was);
      }
      if (now == kPairCrossing) {
        ++crossing_;
      } else if (now != kPairNone) {
        add(x, y, d, now);
      }
    }
  }

  /// Executes the accepted move of `pair`: recodes the refresh cells
  /// (refresh()), then moves the particle in the block's words and on
  /// the grid, and logs the move.
  void move(system::ParticleSystem& sys, const RejectionFreeRules& rules,
            std::uint32_t pair) {
    refresh(rules, pair,
            [this](std::int64_t cx, std::int64_t cy, std::uint32_t before,
                   std::uint32_t after) { recode(cx, cy, before, after); });
    const int d = static_cast<int>(pair & 7);
    const std::int64_t x = (pair >> 3) & (kSize - 1);
    const std::int64_t y = pair >> (3 + BlockEpoch::kBlockShift);
    const TriPoint off = lattice::offset(lattice::directionFromIndex(d));
    flipCell(x, y);
    flipCell(x + off.x, y + off.y);
    const TriPoint from = cellAt(x, y);
    const TriPoint to = from + off;
    sys.moveOccupancy(from, to);
    moves_.push_back({from, to});
    enterRow(to.y);
  }

  /// Toggles block-local cell (x, y) in the block's words.
  void flipCell(std::int64_t x, std::int64_t y) noexcept {
    words_[static_cast<std::size_t>(y + kPad)][static_cast<std::size_t>(
        x >> 6)] ^= std::uint64_t{1} << (x & 63);
  }

  /// Σ over the block's non-crossing pairs of the acceptance probability.
  [[nodiscard]] double acceptMass(
      const RejectionFreeRules& rules) const noexcept {
    double mass = 0.0;
    for (int c = kPairFilter; c < kPairCodes; ++c) {
      mass += static_cast<double>(counts_[static_cast<std::size_t>(c)]) *
              rules.accept[static_cast<std::size_t>(c)];
    }
    return mass;
  }

  /// Candidate pair ∝ a: a class by mass, then a uniform member of it.
  /// Returns the pair and its code.
  [[nodiscard]] std::pair<std::uint32_t, std::uint8_t> pick(
      rng::CounterStream& draw, double mass,
      const RejectionFreeRules& rules) const {
    const double target = draw.uniform() * mass;
    int cls = -1;
    double cumulative = 0.0;
    for (int c = kPairFilter; c < kPairCodes; ++c) {
      const double m =
          static_cast<double>(counts_[static_cast<std::size_t>(c)]) *
          rules.accept[static_cast<std::size_t>(c)];
      if (m <= 0.0) continue;
      cls = c;  // rounding at the top end falls to the last positive class
      cumulative += m;
      if (target < cumulative) break;
    }
    SOPS_REQUIRE(cls >= 0, "rejection-free block: no candidate class");
    const std::vector<std::uint32_t>& members =
        members_[static_cast<std::size_t>(cls - kPairFilter)];
    return {members[draw.below(static_cast<std::uint32_t>(members.size()))],
            static_cast<std::uint8_t>(cls)};
  }

  /// Tallies `failures` failed proposals by one multinomial draw over the
  /// block's stage masses (conditional binomials, largest stage last).
  void splitFailures(rng::CounterStream& split, std::uint64_t failures,
                     const RejectionFreeRules& rules) {
    double filter = 0.0;
    for (int c = kPairFilter; c < kPairCodes; ++c) {
      filter += static_cast<double>(counts_[static_cast<std::size_t>(c)]) *
                (1.0 - rules.accept[static_cast<std::size_t>(c)]);
    }
    // Stage order: boundary, gap, property, filter, occupied (the rest).
    const std::array<double, 5> masses = {
        static_cast<double>(crossing_),
        static_cast<double>(counts_[kPairGap]),
        static_cast<double>(counts_[kPairProperty]), filter,
        static_cast<double>(counts_[kPairOccupied])};
    std::array<std::uint64_t, 5> drawn{};
    std::array<double, 5> tail{};
    double suffix = 0.0;
    for (int s = 4; s >= 0; --s) {
      suffix += masses[static_cast<std::size_t>(s)];
      tail[static_cast<std::size_t>(s)] = suffix;
    }
    std::uint64_t left = failures;
    for (std::size_t s = 0; s + 1 < masses.size(); ++s) {
      const double p = tail[s] > 0.0 ? masses[s] / tail[s] : 0.0;
      drawn[s] = split.binomial(left, p);
      left -= drawn[s];
    }
    drawn[4] = left;
    stats_.steps += failures;
    stats_.movement.steps += failures - drawn[0];
    stats_.movement.rejectedGap += drawn[1];
    stats_.movement.rejectedProperty += drawn[2];
    stats_.movement.rejectedFilter += drawn[3];
    stats_.movement.targetOccupied += drawn[4];
    boundaryRejects_ += drawn[0];
  }

  /// The block's cells, row y at words_[y + kPad]: loaded by rebuild(),
  /// kept by move().
  std::array<BlockRow, kSize + 2 * kPad> words_{};
  PairCounts counts_{};  ///< non-crossing pairs per code
  std::uint64_t crossing_ = 0;
  /// Per filter class: its non-crossing pairs (pairKey), in no fixed
  /// order.
  std::array<std::vector<std::uint32_t>, kPairFilterClasses> members_;
  EngineStats stats_;
  std::int64_t edges_ = 0;  ///< Σ δ of the block's accepted moves
  std::vector<Move> moves_;
};

inline void RejectionFreeRules::runBlock(System& sys, RejectionFreeBlock& block,
                                         std::uint64_t key,
                                         bool verifyEachMove) const {
  block.rebuild(sys.grid(), *this);
  block.run(sys, *this, key, verifyEachMove);
}

/// What RejectionFreeSampler needs of a block rule: System; Block, a
/// BlockPlacement that reset() places and whose moves() log holds each
/// moved anchor's `from` and `to`; grid(sys), the occupancy grid the
/// blocks align to; anchor(sys, i), the cell that puts particle i in its
/// block, and anchorWord(sys, y, k), the anchors of word k of flat window
/// row y; mutations(sys), a count that moves whenever the system changes
/// outside a runner's epochs and restores; runBlock(sys, block, key,
/// verify), the block's n-fold way from the streams under `key` — on a
/// worker, writing only its own words and particles.
template <typename R>
concept RejectionFreeRule =
    std::derived_from<typename R::Block, BlockPlacement> &&
    requires(const R& rule, typename R::System& sys,
             const typename R::System& view, typename R::Block& block,
             const BlockEpoch& ep, std::int64_t y, std::size_t k,
             std::uint64_t key, bool verify, const RowSet& rows) {
      { R::grid(view) } -> std::same_as<const system::BitGrid&>;
      { R::anchor(view, k) } -> std::same_as<TriPoint>;
      { R::anchorWord(view, y, k) } -> std::same_as<std::uint64_t>;
      { R::mutations(view) } -> std::same_as<std::uint64_t>;
      { view.size() } -> std::convertible_to<std::size_t>;
      { block.moves().front().from } -> std::convertible_to<TriPoint>;
      { block.moves().front().to } -> std::convertible_to<TriPoint>;
      block.reset(ep, y, y, std::uint32_t{0}, rows, key);
      rule.runBlock(sys, block, key, verify);
    };

/// The anchors of a flat window, kept across epochs so that placing the
/// blocks costs O(blocks × bands), not a pass over the window's words:
/// per word (column k of 64 cells, row y) its anchor count, a byte; per
/// 64-row band of a column the band's total and the mask of its non-empty
/// rows.  A block is two word columns by 128 rows, so per column its n_b
/// is one whole band's total and two partial bands' sums (eight counts per
/// load) — two whole bands when it starts on a band — and its RowSet the
/// band masks shifted into place.  recount() builds it from the window's
/// words; move() keeps it, O(1).  Valid for one window geometry only.
class AnchorPopulation {
 public:
  /// Counts the anchors of every word of `grid`'s flat window, word k of
  /// row y being anchorWord(y, k).
  template <typename AnchorWord>
  void recount(const system::BitGrid& grid, const AnchorWord& anchorWord) {
    originX_ = grid.originX();
    originY_ = grid.originY();
    const auto height = static_cast<std::int64_t>(grid.height());
    columns_ = static_cast<std::int64_t>(grid.flatRow(originY_).size());
    bands_ = (height + 63) >> 6;
    const auto bands = static_cast<std::size_t>(columns_ * bands_);
    // Eight bytes past the last band: a partial sum's last load.
    counts_.assign(64 * bands + 8, 0);
    totals_.assign(bands, 0);
    masks_.assign(bands, 0);
    for (std::int64_t y = 0; y < height; ++y) {
      for (std::int64_t k = 0; k < columns_; ++k) {
        const std::uint64_t word =
            anchorWord(originY_ + y, static_cast<std::size_t>(k));
        if (word == 0) continue;
        const std::size_t band = bandOf(k, y);
        const auto count = static_cast<std::uint8_t>(util::popcount64(word));
        counts_[64 * band + static_cast<std::size_t>(y & 63)] = count;
        totals_[band] = static_cast<std::uint16_t>(totals_[band] + count);
        masks_[band] |= std::uint64_t{1} << (y & 63);
      }
    }
  }

  /// One anchor moved from `from` to `to`, both in the window.
  void move(TriPoint from, TriPoint to) noexcept {
    add(from, -1);
    add(to, 1);
  }

  /// The window's first cell and its words per row.
  [[nodiscard]] std::int64_t originX() const noexcept { return originX_; }
  [[nodiscard]] std::int64_t originY() const noexcept { return originY_; }
  [[nodiscard]] std::int64_t columns() const noexcept { return columns_; }

  /// The anchors of word column k in the 128 window rows from `top` (0 is
  /// the window's first row; rows outside the window hold none).
  [[nodiscard]] std::uint64_t blockCount(std::int64_t k,
                                         std::int64_t top) const noexcept {
    const std::int64_t band = top >> 6;
    const std::int64_t shift = top & 63;
    if (shift == 0) return total(k, band) + total(k, band + 1);
    return partial(k, band, shift, 64) + total(k, band + 1) +
           partial(k, band + 2, 0, shift);
  }

  /// The rows of those 128 holding anchors of column k, block-local.
  [[nodiscard]] RowSet blockRows(std::int64_t k,
                                 std::int64_t top) const noexcept {
    return {rowsFrom(k, top), rowsFrom(k, top + 64)};
  }

  [[nodiscard]] std::size_t memoryBytes() const noexcept {
    return counts_.capacity() + totals_.capacity() * sizeof(std::uint16_t) +
           masks_.capacity() * sizeof(std::uint64_t);
  }

  bool operator==(const AnchorPopulation&) const = default;

 private:
  [[nodiscard]] std::size_t bandOf(std::int64_t k,
                                   std::int64_t y) const noexcept {
    return static_cast<std::size_t>(k * bands_ + (y >> 6));
  }
  [[nodiscard]] bool inWindow(std::int64_t k,
                              std::int64_t band) const noexcept {
    return k >= 0 && k < columns_ && band >= 0 && band < bands_;
  }
  [[nodiscard]] std::uint64_t total(std::int64_t k,
                                    std::int64_t band) const noexcept {
    return inWindow(k, band)
               ? totals_[static_cast<std::size_t>(k * bands_ + band)]
               : 0;
  }
  [[nodiscard]] std::uint64_t mask(std::int64_t k,
                                   std::int64_t band) const noexcept {
    return inWindow(k, band)
               ? masks_[static_cast<std::size_t>(k * bands_ + band)]
               : 0;
  }
  /// The 64 rows from window row `first` of column k, as a mask.
  [[nodiscard]] std::uint64_t rowsFrom(std::int64_t k,
                                       std::int64_t first) const noexcept {
    const std::int64_t band = first >> 6;
    const std::int64_t shift = first & 63;
    const std::uint64_t low = mask(k, band) >> shift;
    return shift == 0 ? low : low | (mask(k, band + 1) << (64 - shift));
  }
  /// The anchors of rows [lo, hi) of a band of column k (lo = 0 or
  /// hi = 64), eight counts per load: the band's total less the other
  /// rows' when those are fewer.
  [[nodiscard]] std::uint64_t partial(std::int64_t k, std::int64_t band,
                                      std::int64_t lo,
                                      std::int64_t hi) const noexcept {
    const std::uint64_t all = total(k, band);
    if (all == 0) return 0;
    if (hi - lo > 32) {
      return all - (lo == 0 ? sum(k, band, hi, 64) : sum(k, band, 0, lo));
    }
    return sum(k, band, lo, hi);
  }
  /// The anchors of rows [lo, hi) of a band in the window.
  [[nodiscard]] std::uint64_t sum(std::int64_t k, std::int64_t band,
                                  std::int64_t lo,
                                  std::int64_t hi) const noexcept {
    constexpr std::uint64_t kLanes = 0x00FF00FF00FF00FFULL;
    const std::uint8_t* counts =
        counts_.data() + 64 * static_cast<std::size_t>(k * bands_ + band);
    std::uint64_t sum = 0;
    for (std::int64_t at = lo; at < hi; at += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, counts + at, sizeof(word));
      if (hi - at < 8) word &= (std::uint64_t{1} << (8 * (hi - at))) - 1;
      // Counts are at most 64: four 16-bit lanes of pair sums, then one
      // multiply adds the lanes into the top one.
      word = (word & kLanes) + ((word >> 8) & kLanes);
      sum += (word * 0x0001000100010001ULL) >> 48;
    }
    return sum;
  }
  void add(TriPoint cell, int delta) noexcept {
    const std::int64_t k = (cell.x - originX_) >> 6;
    const std::int64_t y = cell.y - originY_;
    SOPS_DASSERT(k >= 0 && k < columns_ && y >= 0 && (y >> 6) < bands_);
    const std::size_t band = bandOf(k, y);
    std::uint8_t& count = counts_[64 * band + static_cast<std::size_t>(y & 63)];
    count = static_cast<std::uint8_t>(count + delta);
    totals_[band] = static_cast<std::uint16_t>(totals_[band] + delta);
    const std::uint64_t bit = std::uint64_t{1} << (y & 63);
    masks_[band] = count != 0 ? masks_[band] | bit : masks_[band] & ~bit;
  }

  std::int64_t originX_ = 0;
  std::int64_t originY_ = 0;
  std::int64_t columns_ = 0;  ///< words per window row
  std::int64_t bands_ = 0;    ///< 64-row bands per column
  /// Per band (column-major, band k·bands_ + j), its 64 rows' counts.
  std::vector<std::uint8_t> counts_;
  std::vector<std::uint16_t> totals_;
  std::vector<std::uint64_t> masks_;
};

/// Runs fn(j) for j in [0, count): on the executor's workers, or in order
/// on the calling thread.
using BlockForEach = std::function<void(
    std::size_t count, const std::function<void(std::size_t)>& fn)>;

/// The rejection-free epoch: the multinomial over the occupied blocks, the
/// storage rule, the parallel phase and the canonical-order commit (see
/// the file comment), for any block rule.
template <typename Rule>
  requires RejectionFreeRule<Rule>
class RejectionFreeSampler {
 public:
  using System = typename Rule::System;
  using Block = typename Rule::Block;

  /// `radius` is the model's interaction radius: with the grid's interior
  /// margin, the storage a particle needs beyond its moves (the
  /// executor's kReserveSlack).
  RejectionFreeSampler(Rule rule, std::int64_t radius)
      : rule_(std::move(rule)),
        reserveSlack_(radius + system::BitGrid::kInteriorMargin) {}

  /// Runs one epoch of `length` proposals on `sys`, then calls
  /// commit(block) for every block, in canonical order; returns the
  /// epoch's boundary rejects (tallied by the executor).  The blocks are
  /// placed from the kept anchor populations while they are current (see
  /// invalidatePlacement()).  With `verifyEachMove`, the placement is
  /// compared against one from scratch, and every move is followed by a
  /// comparison of its block against a from-scratch rebuild; both must
  /// agree.  A throw inside the phase (a failed verification) still
  /// commits every block, so the system stays consistent.
  template <typename Commit>
  std::uint64_t runEpoch(System& sys, const BlockEpoch& ep,
                         std::uint64_t length, const BlockForEach& forEach,
                         Commit&& commit, bool verifyEachMove = false) {
    realign(sys);
    place(sys, ep, length);
    if (verifyEachMove) {
      SOPS_REQUIRE(placementMatchesScratch(sys, ep),
                   "rejection-free epoch: the kept anchor populations "
                   "drifted from a recount");
    }
    reserveStorage(sys);
    order_.resize(active_);
    for (std::size_t b = 0; b < active_; ++b) order_[b] = b;
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      const std::uint64_t sizeA = blocks_[a].proposals();
      const std::uint64_t sizeB = blocks_[b].proposals();
      return sizeA != sizeB ? sizeA > sizeB : a < b;
    });
    const std::uint64_t key = util::mix64(ep.moveKey ^ kStreamSalt);
    std::exception_ptr error;
    try {
      forEach(order_.size(), [&](std::size_t j) {
        Block& block = blocks_[order_[j]];
        rule_.runBlock(sys, block, blockKey(key, block), verifyEachMove);
      });
    } catch (...) {
      error = std::current_exception();
    }
    // The storage rule may have regrown the window: then the next epoch
    // recounts.
    keptCurrent_ = keptCurrent_ && !error &&
                   Rule::grid(sys).geometryVersion() == keptGeometry_;
    std::uint64_t boundaryRejects = 0;
    for (std::size_t b = 0; b < active_; ++b) {
      commit(blocks_[b]);
      if (keptCurrent_) {
        for (const auto& m : blocks_[b].moves()) kept_.move(m.from, m.to);
      }
      boundaryRejects += blocks_[b].boundaryRejects();
    }
    if (error) std::rethrow_exception(error);
    return boundaryRejects;
  }

  /// Marks the kept anchor populations stale: the next epoch recounts
  /// them.  Call it whenever anything but this sampler's epochs may have
  /// moved an anchor without moving the rule's mutations() count — the
  /// router does on a block-path epoch and a restore.  A change of
  /// mutations(), or of the grid's geometry or backend, is noticed
  /// without it.
  void invalidatePlacement() noexcept { keptCurrent_ = false; }

  /// The epoch's occupied blocks with at least one proposal, in canonical
  /// order, as the last runEpoch() left them (structures as after its
  /// last move).  For tests.
  [[nodiscard]] std::span<const Block> blocks() const noexcept {
    return {blocks_.data(), active_};
  }

  /// Places the occupied blocks of `sys` under `ep` in canonical order
  /// and draws their proposal counts from a total of `length`; blocks
  /// without proposals are dropped.  From scratch: a flat window's anchor
  /// populations are recounted by one pass over its words (and kept for
  /// the next epoch); a tiled grid — whose allocated area can be far
  /// larger than n — is counted by one pass over the particles.  For
  /// tests and benchmarks: runEpoch() calls place().
  void placeBlocks(const System& sys, const BlockEpoch& ep,
                   std::uint64_t length) {
    keptCurrent_ = false;
    place(sys, ep, length);
  }

  /// placeBlocks() from the kept populations while they hold (see
  /// invalidatePlacement()), O(blocks × bands); else from scratch.
  void place(const System& sys, const BlockEpoch& ep, std::uint64_t length) {
    const system::BitGrid& grid = Rule::grid(sys);
    if (grid.tiled()) {
      keptCurrent_ = false;
      placeByParticles(sys, ep, occupied_);
    } else {
      if (!keptHolds(sys)) {
        kept_.recount(grid, [&](std::int64_t y, std::size_t k) {
          return Rule::anchorWord(sys, y, k);
        });
        keptCurrent_ = true;
        keptGeometry_ = grid.geometryVersion();
        keptMutations_ = Rule::mutations(sys);
      }
      placeFromKept(grid, ep);
    }
    drawProposals(ep, length, sys.size());
  }

  /// Bytes held by the per-block structures and the coordinator's buffers.
  [[nodiscard]] std::size_t memoryBytes() const noexcept {
    std::size_t bytes = occupied_.capacity() * sizeof(OccupiedBlock) +
                        scratch_.capacity() * sizeof(OccupiedBlock) +
                        order_.capacity() * sizeof(std::size_t) +
                        centers_.capacity() * sizeof(TriPoint) +
                        kept_.memoryBytes();
    for (const Block& block : blocks_) bytes += block.memoryBytes();
    return bytes;
  }

  [[nodiscard]] const Rule& rule() const noexcept { return rule_; }

 private:
  /// An occupied block at absolute block coordinates (bx, by).
  struct OccupiedBlock {
    std::int64_t by = 0;
    std::int64_t bx = 0;
    std::uint64_t particles = 0;
    RowSet rows{};  ///< block-local rows holding its particles
    bool operator==(const OccupiedBlock&) const = default;
  };

  [[nodiscard]] static std::int64_t blockOf(std::int64_t v,
                                            std::int64_t offset) noexcept {
    return (v - offset) >> BlockEpoch::kBlockShift;
  }

  /// True when the kept populations hold the anchors of `sys` as they
  /// stand.
  [[nodiscard]] bool keptHolds(const System& sys) const noexcept {
    const system::BitGrid& grid = Rule::grid(sys);
    return keptCurrent_ && !grid.tiled() &&
           grid.geometryVersion() == keptGeometry_ &&
           Rule::mutations(sys) == keptMutations_;
  }

  /// The occupied blocks of a flat window from the kept populations: a
  /// block is word columns 2·bx − c0 and the next (c0 the window's first
  /// word in the offset's word lattice; x-offsets are 0 or 64, so no word
  /// straddles a block line) over the 128 rows from its first row.
  void placeFromKept(const system::BitGrid& grid, const BlockEpoch& ep) {
    occupied_.clear();
    const std::int64_t x0 = kept_.originX();
    const std::int64_t y0 = kept_.originY();
    SOPS_DASSERT((x0 & 63) == 0 && ((x0 - ep.offsetX) & 63) == 0);
    const std::int64_t c0 = (x0 - ep.offsetX) >> 6;
    const std::int64_t bx0 = c0 >> 1;
    const std::int64_t bx1 = (c0 + kept_.columns() - 1) >> 1;
    const std::int64_t by0 = blockOf(y0, ep.offsetY);
    const std::int64_t by1 = blockOf(
        y0 + static_cast<std::int64_t>(grid.height()) - 1, ep.offsetY);
    for (std::int64_t by = by0; by <= by1; ++by) {
      const std::int64_t top =
          (by << BlockEpoch::kBlockShift) + ep.offsetY - y0;
      for (std::int64_t bx = bx0; bx <= bx1; ++bx) {
        OccupiedBlock block{by, bx, 0, {}};
        for (std::int64_t k = 2 * bx - c0; k < 2 * bx - c0 + 2; ++k) {
          if (k < 0 || k >= kept_.columns()) continue;
          const std::uint64_t particles = kept_.blockCount(k, top);
          if (particles == 0) continue;
          block.particles += particles;
          const RowSet rows = kept_.blockRows(k, top);
          block.rows[0] |= rows[0];
          block.rows[1] |= rows[1];
        }
        if (block.particles != 0) occupied_.push_back(block);
      }
    }
  }

  /// The occupied blocks by one pass over the particles, in canonical
  /// order: a tiled grid's placement, and the verification's reference.
  void placeByParticles(const System& sys, const BlockEpoch& ep,
                        std::vector<OccupiedBlock>& out) {
    out.clear();
    // Particles in id order are mostly near each other: a run of them in
    // one block accumulates locally and is flushed when the block
    // changes.
    slotOf_.clear();
    OccupiedBlock run;
    std::uint64_t runKey = 0;
    const auto flush = [&] {
      if (run.particles == 0) return;
      const std::uint32_t* slot = slotOf_.find(runKey);
      if (slot == nullptr) {
        slotOf_.insert(runKey, static_cast<std::uint32_t>(out.size()));
        out.push_back(run);
        return;
      }
      OccupiedBlock& block = out[*slot];
      block.particles += run.particles;
      block.rows[0] |= run.rows[0];
      block.rows[1] |= run.rows[1];
    };
    for (std::size_t i = 0; i < sys.size(); ++i) {
      const TriPoint p = Rule::anchor(sys, i);
      const std::int64_t bx = blockOf(p.x, ep.offsetX);
      const std::int64_t by = blockOf(p.y, ep.offsetY);
      const std::uint64_t key =
          (std::uint64_t{static_cast<std::uint32_t>(by)} << 32) |
          static_cast<std::uint32_t>(bx);
      if (key != runKey || run.particles == 0) {
        flush();
        run = {by, bx, 0, {}};
        runKey = key;
      }
      ++run.particles;
      const std::int64_t local =
          (p.y - ep.offsetY) & (BlockEpoch::kBlockSize - 1);
      run.rows[static_cast<std::size_t>(local >> 6)] |= std::uint64_t{1}
                                                         << (local & 63);
    }
    flush();
    std::sort(out.begin(), out.end(),
              [](const OccupiedBlock& a, const OccupiedBlock& b) {
                return a.by != b.by ? a.by < b.by : a.bx < b.bx;
              });
  }

  /// True when this epoch's placement equals one from scratch: the kept
  /// populations a recount's, the occupied blocks a particle pass's.
  [[nodiscard]] bool placementMatchesScratch(const System& sys,
                                             const BlockEpoch& ep) {
    const system::BitGrid& grid = Rule::grid(sys);
    if (!grid.tiled()) {
      AnchorPopulation fresh;
      fresh.recount(grid, [&](std::int64_t y, std::size_t k) {
        return Rule::anchorWord(sys, y, k);
      });
      if (!(fresh == kept_)) return false;
    }
    placeByParticles(sys, ep, scratch_);
    return scratch_ == occupied_;
  }

  /// (m_b) by conditional binomials over occupied_ in canonical order —
  /// block i's count from stream i — and the blocks with proposals reset.
  void drawProposals(const BlockEpoch& ep, std::uint64_t length,
                     std::uint64_t particles) {
    const std::uint64_t multinomialKey =
        util::mix64(ep.moveKey ^ kMultinomialSalt);
    std::uint64_t remainingProposals = length;
    std::uint64_t remainingParticles = particles;
    active_ = 0;
    for (std::size_t i = 0; i < occupied_.size(); ++i) {
      const OccupiedBlock& block = occupied_[i];
      SOPS_REQUIRE(block.particles <= remainingParticles,
                   "rejection-free epoch: grid population exceeds n");
      rng::CounterStream stream(multinomialKey, i);
      const std::uint64_t proposals = stream.binomial(
          remainingProposals, static_cast<double>(block.particles) /
                                  static_cast<double>(remainingParticles));
      remainingProposals -= proposals;
      remainingParticles -= block.particles;
      if (proposals == 0) continue;
      if (blocks_.size() <= active_) blocks_.emplace_back();
      blocks_[active_++].reset(ep, block.bx, block.by,
                               static_cast<std::uint32_t>(block.particles),
                               block.rows, proposals);
    }
    SOPS_REQUIRE(remainingParticles == 0 && remainingProposals == 0,
                 "rejection-free epoch: grid population differs from n");
  }

  /// Block b's stream key under the epoch key: (seed, e, block).
  [[nodiscard]] static std::uint64_t blockKey(std::uint64_t epochKey,
                                              const Block& block) noexcept {
    const auto bx = static_cast<std::uint32_t>(block.blockX());
    const auto by = static_cast<std::uint32_t>(block.blockY());
    return util::mix64(epochKey ^
                       util::mix64((std::uint64_t{by} << 32) | bx));
  }

  /// "rejfree" and "blocks": the epoch's stream keys are
  /// mix64(moveKey ^ salt).
  static constexpr std::uint64_t kStreamSalt = 0x72656a66726565ULL;
  static constexpr std::uint64_t kMultinomialSalt = 0x626c6f636b73ULL;

  /// A flat window restored from a foreign snapshot may sit off the
  /// 64-column lattice the block words need; one regrow realigns it.
  static void realign(System& sys) {
    const system::BitGrid& grid = Rule::grid(sys);
    if (!grid.tiled() && (grid.originX() & 63) != 0) {
      const TriPoint anchor = Rule::anchor(sys, 0);
      sys.reserveInterior({&anchor, 1}, 0);
    }
  }

  /// Grows the storage so that no move of the phase can regrow it: the
  /// executor's storage rule with m_b in place of c_i.  Each particle of a
  /// block needs m_b + kReserveSlack cells of storage around it, and never
  /// more than the block widened by kInteriorMargin (no particle leaves
  /// it), so a block not covered that far needs the box of its occupied
  /// rows' cells widened by m_b + kReserveSlack, clipped to that.
  void reserveStorage(System& sys) {
    const system::BitGrid& grid = Rule::grid(sys);
    constexpr std::int64_t kHalf = BlockEpoch::kBlockSize / 2;
    constexpr std::int64_t kMargin = system::BitGrid::kInteriorMargin;
    centers_.clear();
    std::int64_t depth = 0;
    for (std::size_t b = 0; b < active_; ++b) {
      const Block& block = blocks_[b];
      const std::int64_t x0 = block.originX();
      const std::int64_t y0 = block.originY();
      const TriPoint center{static_cast<std::int32_t>(x0 + kHalf),
                            static_cast<std::int32_t>(y0 + kHalf)};
      if (grid.coversInteriorBy(center, kHalf + kMargin)) continue;
      // The box of the block's particles, from its occupied rows.
      std::int64_t loX = BlockEpoch::kBlockSize;
      std::int64_t hiX = -1;
      std::int64_t loY = BlockEpoch::kBlockSize;
      std::int64_t hiY = -1;
      forEachRow(block.rows(), [&](std::int64_t y) {
        const std::uint64_t left = grid.rowBits(x0, y0 + y);
        const std::uint64_t right = grid.rowBits(x0 + 64, y0 + y);
        if ((left | right) == 0) return;
        loY = std::min(loY, y);
        hiY = y;
        loX = std::min<std::int64_t>(
            loX, left != 0 ? std::countr_zero(left)
                           : 64 + std::countr_zero(right));
        hiX = std::max<std::int64_t>(
            hiX, right != 0 ? 127 - std::countl_zero(right)
                            : 63 - std::countl_zero(left));
      });
      const auto reach =
          static_cast<std::int64_t>(block.proposals()) + reserveSlack_;
      loX = std::max(loX - reach, -kMargin);
      hiX = std::min(hiX + reach, BlockEpoch::kBlockSize - 1 + kMargin);
      loY = std::max(loY - reach, -kMargin);
      hiY = std::min(hiY + reach, BlockEpoch::kBlockSize - 1 + kMargin);
      const TriPoint boxCenter{static_cast<std::int32_t>(x0 + (loX + hiX) / 2),
                               static_cast<std::int32_t>(y0 + (loY + hiY) / 2)};
      const std::int64_t boxDepth = (std::max(hiX - loX, hiY - loY) + 1) / 2;
      if (grid.coversInteriorBy(boxCenter, boxDepth)) continue;
      centers_.push_back(boxCenter);
      depth = std::max(depth, boxDepth);
    }
    if (!centers_.empty()) sys.reserveInterior(centers_, depth);
  }

  Rule rule_;
  /// The storage a particle needs beyond its moves: the model's reach and
  /// the grid's interior margin (the executor's kReserveSlack).
  std::int64_t reserveSlack_;
  /// The epoch's occupied blocks, in canonical order.
  std::vector<OccupiedBlock> occupied_;
  /// The particle pass's blocks when they check a kept placement.
  std::vector<OccupiedBlock> scratch_;
  /// The particle pass: block key → its index in the blocks.
  util::FlatMap64<std::uint32_t> slotOf_;
  /// Flat grids: the anchors, kept across epochs while keptCurrent_ and
  /// the grid's geometry version and the rule's mutations() count are
  /// those of the last recount.
  AnchorPopulation kept_;
  bool keptCurrent_ = false;
  std::uint64_t keptGeometry_ = 0;
  std::uint64_t keptMutations_ = 0;
  /// The epoch's blocks with proposals are blocks_[0, active_), in
  /// canonical order; the vector keeps the rest for reuse.
  std::vector<Block> blocks_;
  std::size_t active_ = 0;
  std::vector<std::size_t> order_;
  std::vector<TriPoint> centers_;
};

}  // namespace sops::core

#endif  // SOPS_CORE_REJECTION_FREE_HPP

#ifndef SOPS_CORE_BLOCK_EXECUTOR_HPP
#define SOPS_CORE_BLOCK_EXECUTOR_HPP

/// \file block_executor.hpp
/// Exact multi-core execution of a local Markov kernel: the
/// shifted-checkerboard construction (Anderson et al., J. Comput. Phys. 254,
/// 2013).  Both parallel runners execute on it, each supplying a small
/// event kernel (the BlockKernel concept below): core::ShardedChainRunner
/// runs chain M and its weight models, amoebot::ShardedPoissonRunner runs
/// Algorithm A.
///
/// **Proposal lists.**  The run is cut into epochs of L proposals.
/// Proposal k of epoch e draws from two counter-based streams
/// (rng::CounterStream, counter k under keys util::mix64-hashed from
/// (seed, e)): its particle (uniform over n, or from a Walker alias table
/// of the selection weights) from one; everything the kernel draws —
/// direction, port, coins, Metropolis uniform — from the other.  Every
/// draw is a pure function of (seed, e, k): no state, no thread and no
/// timing enters it.
///
/// **Blocks.**  Each epoch also draws, from (seed, e) alone, a block
/// offset (ox, oy) with ox ∈ {0, 64} and oy ∈ [0, 128).  Blocks are the
/// 128 × 128 cells [ox + 128·i, ox + 128·i + 128) × [oy + 128·j, …) in
/// absolute lattice coordinates.  Flat BitGrid origins are rounded down to
/// a multiple of 64 and tiles are 1024-aligned, so block edges fall on
/// 64-bit word boundaries of the occupancy grid and of every plane
/// allocated like it; the id planes store one u32 per cell.  Distinct
/// blocks therefore never share a word.
///
/// **Symmetric boundary rejection.**  The kernel tests every proposal
/// before running it: the bounding box of the cells its move pairs,
/// widened by the kernel's reach, must lie inside the block of the
/// proposing particle (BlockEpoch::inside); otherwise the proposal is
/// counted (boundaryRejects()) and not executed.  Everything an executed
/// proposal reads or writes lies within its widened box, so inside its
/// block; in particular no particle leaves its block within an epoch.  A
/// kernel's rule tests the same unordered cell pair for a move and for the
/// move that undoes it, so it rejects both or neither and the selection
/// factor cancels from detailed balance.  The offsets are drawn
/// independently of the state and every boundary moves between epochs.
///
/// **Execution.**  Proposals of different blocks touch disjoint state, so
/// running each block's proposals in list order — blocks in parallel — is
/// the same computation as running the whole list in order.  With
/// threads == 1 the executor does exactly that: the list in order, on the
/// calling thread.  That path is the
/// oracle the block path is tested against, bit for bit.  The block path:
///   1. bucket (parallel over T list chunks): each proposal's particle is
///      drawn and filed, by the block of its epoch-start position, into a
///      per-chunk list (chunks keep list order);
///   2. per block (parallel, largest first): count each particle's
///      proposals c_i and check that the storage covers every cell within
///      c_i + radius + kInteriorMargin of it — a particle moves at most
///      one cell per proposal it owns — then execute the block's proposals
///      in list order;
///   3. blocks that failed the check wait for the coordinator, which has
///      the kernel grow its storage around their particles, and then run
///      in a second parallel phase.
/// No grid, plane or page directory changes inside a parallel phase.
///
/// **Selection weights.**  With `rates`, particle i proposes with
/// probability rate_i / Σ rates.  Each kernel's moves are undone by
/// proposals of the same particle, so the weight cancels from detailed
/// balance and π is unchanged.

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/draw_guard.hpp"
#include "core/worker_pool.hpp"
#include "lattice/direction.hpp"
#include "lattice/tri_point.hpp"
#include "rng/alias_table.hpp"
#include "rng/random.hpp"
#include "system/bit_grid.hpp"
#include "util/assert.hpp"
#include "util/mix.hpp"

namespace sops::core {

using lattice::TriPoint;

/// Hard cap on proposals per epoch: the epoch's bucketed list lives in
/// memory (about 16 bytes per proposal), so an explicit length beyond it
/// can only be a mis-keyed step count.  The derived default is clamped to
/// it too.
inline constexpr std::uint64_t kMaxEventsPerEpoch = std::uint64_t{1} << 28;

/// Default epoch length for n particles: 2n proposals, floored so tiny
/// systems do not pay the block path's hand-offs every handful of
/// proposals, and clamped to kMaxEventsPerEpoch.
[[nodiscard]] inline constexpr std::uint64_t derivedEpochTarget(
    std::uint64_t particles) noexcept {
  return std::min(std::max(2 * particles, std::uint64_t{1024}),
                  kMaxEventsPerEpoch);
}

struct BlockExecutorOptions {
  /// Worker threads for the block phase; 0 uses hardware_concurrency().
  /// The trajectory is identical for every value.  threads == 1 runs the
  /// proposal list in list order on the calling thread.
  unsigned threads = 0;
  /// Proposals per epoch, L; 0 derives derivedEpochTarget(n).
  std::uint64_t targetEventsPerEpoch = 0;
  /// Particle-selection weights; empty means uniform.  Must be positive
  /// and give one weight per particle when present.
  std::vector<double> rates;
};

/// A box relative to a cell ℓ, as offsets of its edges.
struct BlockReach {
  std::int64_t loX, hiX, loY, hiY;
};

/// Index of the box of ℓ alone in blockReach()'s table; d < kReachSelf
/// is the pair (ℓ, ℓ + offset(d)).
inline constexpr int kReachSelf = lattice::kNumDirections;
/// Index of the box of ℓ and its six neighbours.
inline constexpr int kReachRing = kReachSelf + 1;

/// The boxes a boundary rule tests, each widened by `widen` cells.
[[nodiscard]] constexpr std::array<BlockReach, kReachRing + 1> blockReach(
    std::int64_t widen) noexcept {
  std::array<BlockReach, kReachRing + 1> reach{};
  for (int d = 0; d < kReachSelf; ++d) {
    const TriPoint off = lattice::offset(lattice::directionFromIndex(d));
    reach[static_cast<std::size_t>(d)] = {
        std::min<std::int64_t>(off.x, 0) - widen,
        std::max<std::int64_t>(off.x, 0) + widen,
        std::min<std::int64_t>(off.y, 0) - widen,
        std::max<std::int64_t>(off.y, 0) + widen};
  }
  reach[kReachSelf] = {-widen, widen, -widen, widen};
  reach[kReachRing] = {-widen - 1, widen + 1, -widen - 1, widen + 1};
  return reach;
}

/// The (seed, e) draws of one epoch.  Proposal k draws its particle from
/// counter stream k under particleKey and everything else from counter
/// stream k under moveKey, so the block path can file a proposal by
/// particle and later run it without redrawing the particle.
struct BlockEpoch {
  /// Block side in cells; the x-offset is 0 or half of it.
  static constexpr std::int64_t kBlockShift = 7;
  static constexpr std::int64_t kBlockSize = std::int64_t{1} << kBlockShift;

  std::uint64_t particleKey = 0;
  std::uint64_t moveKey = 0;
  std::int64_t offsetX = 0;  ///< 0 or 64
  std::int64_t offsetY = 0;  ///< [0, 128)

  [[nodiscard]] static BlockEpoch draw(std::uint64_t seed,
                                       std::uint64_t e) noexcept {
    BlockEpoch ep;
    const std::uint64_t key = util::mix64(util::mix64(seed) ^ e);
    ep.particleKey = util::mix64(key ^ 0x7061727469636c65ULL);  // "particle"
    ep.moveKey = util::mix64(key ^ 0x6d6f7665ULL);               // "move"
    const std::uint64_t offsets =
        util::mix64(key ^ 0x6f6666736574ULL);  // "offset"
    ep.offsetX = static_cast<std::int64_t>(offsets & 1) << (kBlockShift - 1);
    ep.offsetY = static_cast<std::int64_t>((offsets >> 1) & (kBlockSize - 1));
    return ep;
  }

  /// The boundary rule: `box`, placed at ℓ, lies inside the block of ℓ.
  /// Computed in block-local coordinates with no data-dependent branch (a
  /// branch per min/max mispredicts on half the proposals).
  [[nodiscard]] bool inside(TriPoint l, const BlockReach& box) const noexcept {
    const std::int64_t x =
        (static_cast<std::int64_t>(l.x) - offsetX) & (kBlockSize - 1);
    const std::int64_t y =
        (static_cast<std::int64_t>(l.y) - offsetY) & (kBlockSize - 1);
    return static_cast<bool>((x + box.loX >= 0) & (x + box.hiX < kBlockSize) &
                             (y + box.loY >= 0) & (y + box.hiY < kBlockSize));
  }
};

/// What a runner supplies to the executor.  Every call but reserve() may
/// run on a worker thread, concurrently with calls for other blocks.
///   - Tallies: per-block outcome counts, merged in a fixed order;
///   - kRadius: the model's interaction radius (the storage slack);
///   - position(i): particle i's cell (its tail, for amoebots);
///   - grid(): the occupancy grid the blocks are aligned to;
///   - covers(c, depth): storage backs every cell within depth of c;
///   - reserve(centers, depth): grows storage until covers() holds for
///     each center (coordinator only, between parallel phases);
///   - runProposal(epoch, i, stream, tallies): draws the move from
///     `stream`, applies the boundary rule and, if it passes, executes the
///     move; returns false when the rule rejected it.
template <typename K>
concept BlockKernel = requires(
    K& kernel, const K& view, std::uint32_t particle, TriPoint p,
    std::int64_t depth, std::span<const TriPoint> centers,
    const BlockEpoch& epoch, rng::CounterStream& stream,
    typename K::Tallies& tallies, const typename K::Tallies& other) {
  { K::kRadius } -> std::convertible_to<std::int64_t>;
  { view.position(particle) } -> std::same_as<TriPoint>;
  { view.grid() } -> std::same_as<const system::BitGrid&>;
  { view.covers(p, depth) } -> std::same_as<bool>;
  kernel.reserve(centers, depth);
  { kernel.runProposal(epoch, particle, stream, tallies) } -> std::same_as<bool>;
  tallies.merge(other);
};

template <typename Kernel>
  requires BlockKernel<Kernel>
class BlockExecutor {
 public:
  using Tallies = typename Kernel::Tallies;

  BlockExecutor(std::uint64_t seed, std::size_t particles,
                const BlockExecutorOptions& options)
      : seed_(seed), particleCount32_(checkedParticleDrawBound(particles)) {
    SOPS_REQUIRE(options.targetEventsPerEpoch <= kMaxEventsPerEpoch,
                 "targetEventsPerEpoch must be at most 2^28");
    SOPS_REQUIRE(options.rates.empty() || options.rates.size() == particles,
                 "rates must be empty or give one rate per particle");
    epochLength_ = options.targetEventsPerEpoch != 0
                       ? options.targetEventsPerEpoch
                       : derivedEpochTarget(particles);
    if (!options.rates.empty()) selection_ = rng::AliasTable(options.rates);
    threads_ = options.threads != 0
                   ? options.threads
                   : std::max(1u, std::thread::hardware_concurrency());
    proposalCounts_.assign(particles, 0);
  }

  /// Runs epoch epochs(): its L proposals, through `kernel`, adding their
  /// outcomes to `total`.
  void runEpoch(Kernel& kernel, Tallies& total) {
    const BlockEpoch ep = BlockEpoch::draw(seed_, epoch_);
    if (threads_ > 1) {
      runBlocks(kernel, ep, total);
    } else {
      runListOrder(kernel, ep, total);
    }
    ++epoch_;
  }

  /// Runs the `span` epochs from epochs() as one epoch of span·L
  /// proposals under the first one's draws, through another sampler of
  /// the block epoch law whose blocks run independently (the
  /// rejection-free kernel): sample(ep, span·L, forEach) returns the
  /// boundary rejects, and forEach(count, fn) runs fn(j) for every j in
  /// [0, count) — on the worker pool when threads > 1, in order on the
  /// calling thread otherwise.  A span whose sample throws is not counted.
  template <typename Sample>
  void runEpochWith(const Sample& sample, std::uint64_t span) {
    SOPS_REQUIRE(span >= 1 && span <= kMaxEventsPerEpoch / epochLength_,
                 "a span must hold at most 2^28 proposals");
    const auto forEach = [this](std::size_t count, const auto& fn) {
      if (threads_ > 1 && count > 1) {
        pool().run(count, fn);
        return;
      }
      for (std::size_t j = 0; j < count; ++j) fn(j);
    };
    boundaryRejects_ +=
        sample(BlockEpoch::draw(seed_, epoch_), span * epochLength_, forEach);
    epoch_ += span;
  }

  /// Particles are selected uniformly (no rates).
  [[nodiscard]] bool uniformSelection() const noexcept {
    return selection_.empty();
  }

  /// Proposals per epoch, L.
  [[nodiscard]] std::uint64_t epochLength() const noexcept {
    return epochLength_;
  }

  /// Epochs completed.
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epoch_; }

  /// Proposals rejected by the block-boundary rule.  A pure function of
  /// the seed, like every other count here.
  [[nodiscard]] std::uint64_t boundaryRejects() const noexcept {
    return boundaryRejects_;
  }

  /// Blocks holding at least one proposal in the last block-path epoch (0
  /// before any, and on the list-order path, which does not bucket).
  [[nodiscard]] std::size_t lastEpochBlocks() const noexcept {
    return blocks_.size();
  }

  /// Snapshot restore: the epoch index and the boundary-reject count are
  /// the executor's only evolving state.
  void restore(std::uint64_t epochs, std::uint64_t boundaryRejects) noexcept {
    epoch_ = epochs;
    boundaryRejects_ = boundaryRejects;
  }

 private:
  /// Storage a particle with c proposals needs around it: c moves, then
  /// the model's reach and the grid's interior margin.
  static constexpr std::int64_t kReserveSlack =
      Kernel::kRadius + system::BitGrid::kInteriorMargin;
  static constexpr std::int64_t kBlockShift = BlockEpoch::kBlockShift;
  static constexpr std::int64_t kBlockSize = BlockEpoch::kBlockSize;

  /// One proposal, filed under its block by the bucket phase.
  struct Entry {
    std::uint32_t index;  ///< k within the epoch
    std::uint32_t particle;
  };

  /// One block holding proposals this epoch: its slice of sorted_ (list
  /// order) and its own tallies.
  struct Block {
    std::uint32_t cell = 0;  ///< index in the epoch's block grid
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    Tallies tallies{};
    std::uint64_t rejects = 0;
    /// Storage check failed: the depth its particles need.
    std::int64_t reserveDepth = 0;
  };

  /// Per-chunk counters of the bucket phase: proposals per block cell
  /// (zero between epochs) and the cells this chunk touched.
  struct ChunkCounts {
    std::vector<std::uint32_t> count;
    std::vector<std::uint32_t> touched;
  };

  /// The block grid of one epoch: every block that meets the grid's
  /// window (flat) or allocated-tile box (tiled), row-major.
  struct BlockGrid {
    std::int64_t x0 = 0;
    std::int64_t y0 = 0;
    std::uint64_t columns = 0;
    std::uint64_t cells = 0;
  };

  /// The bucket phase keeps one counter per block cell per chunk; when
  /// that would pass this many counters (16 MiB — a tiled grid spread over
  /// an astronomically large box), the epoch runs in list order instead:
  /// same trajectory, no counter arrays.
  static constexpr std::uint64_t kMaxBlockCounters = std::uint64_t{1} << 22;
  static constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;

  [[nodiscard]] std::uint32_t drawParticle(const BlockEpoch& ep,
                                           std::uint64_t k) const noexcept {
    rng::CounterStream stream(ep.particleKey, k);
    return selection_.empty() ? stream.below(particleCount32_)
                              : selection_.sample(stream);
  }

  [[nodiscard]] static BlockGrid blockGridOf(const system::BitGrid& grid,
                                             const BlockEpoch& ep) noexcept {
    const std::int64_t x0 = (grid.originX() - ep.offsetX) >> kBlockShift;
    const std::int64_t y0 = (grid.originY() - ep.offsetY) >> kBlockShift;
    const std::int64_t x1 =
        (grid.originX() + static_cast<std::int64_t>(grid.width()) - 1 -
         ep.offsetX) >>
        kBlockShift;
    const std::int64_t y1 =
        (grid.originY() + static_cast<std::int64_t>(grid.height()) - 1 -
         ep.offsetY) >>
        kBlockShift;
    BlockGrid blocks;
    blocks.x0 = x0;
    blocks.y0 = y0;
    blocks.columns = static_cast<std::uint64_t>(x1 - x0 + 1);
    blocks.cells = blocks.columns * static_cast<std::uint64_t>(y1 - y0 + 1);
    return blocks;
  }

  [[nodiscard]] static std::uint32_t blockCellOf(TriPoint p,
                                                 const BlockGrid& blocks,
                                                 const BlockEpoch& ep) noexcept {
    const std::int64_t bx =
        ((static_cast<std::int64_t>(p.x) - ep.offsetX) >> kBlockShift) -
        blocks.x0;
    const std::int64_t by =
        ((static_cast<std::int64_t>(p.y) - ep.offsetY) >> kBlockShift) -
        blocks.y0;
    return static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(by) * blocks.columns +
        static_cast<std::uint64_t>(bx));
  }

  /// Runs proposal k of `particle` (drawParticle(ep, k)) through the
  /// kernel, counting a boundary rejection into `rejects`.
  static void runProposal(Kernel& kernel, const BlockEpoch& ep,
                          std::uint64_t k, std::uint32_t particle,
                          Tallies& tallies, std::uint64_t& rejects) {
    rng::CounterStream stream(ep.moveKey, k);
    if (!kernel.runProposal(ep, particle, stream, tallies)) ++rejects;
  }

  /// The oracle: the whole list in order on this thread.  Storage grows
  /// inline, as in the sequential engines.
  void runListOrder(Kernel& kernel, const BlockEpoch& ep, Tallies& total) {
    for (std::uint64_t k = 0; k < epochLength_; ++k) {
      runProposal(kernel, ep, k, drawParticle(ep, k), total, boundaryRejects_);
    }
  }

  WorkerPool& pool() {
    if (!pool_) pool_ = std::make_unique<WorkerPool>(threads_);
    return *pool_;
  }

  void runBlocks(Kernel& kernel, const BlockEpoch& ep, Tallies& total) {
    // A flat window restored from a foreign snapshot may sit off the
    // 64-column lattice the block edges need; one regrow realigns it.
    if (!kernel.grid().tiled() && (kernel.grid().originX() & 63) != 0) {
      const TriPoint anchor = kernel.position(0);
      kernel.reserve({&anchor, 1}, 0);
    }
    const BlockGrid blocks = blockGridOf(kernel.grid(), ep);
    if (blocks.cells > kMaxBlockCounters / threads_) {
      runListOrder(kernel, ep, total);
      return;
    }

    bucket(kernel, ep, blocks);
    pool().run(order_.size(), [&](std::size_t j) {
      runBlock(kernel, ep, blocks_[order_[j]], true);
    });

    // Blocks whose particles could reach unbacked storage: grow it here,
    // between phases, then run them.
    reserveCenters_.clear();
    std::int64_t depth = 0;
    pending_.clear();
    for (const std::size_t b : order_) {
      const Block& block = blocks_[b];
      if (block.reserveDepth == 0) continue;
      pending_.push_back(b);
      for (std::uint64_t i = block.begin; i < block.end; ++i) {
        reserveCenters_.push_back(kernel.position(sorted_[i].particle));
      }
      depth = std::max(depth, block.reserveDepth);
    }
    if (!pending_.empty()) {
      kernel.reserve(reserveCenters_, depth);
      pool().run(pending_.size(), [&](std::size_t j) {
        runBlock(kernel, ep, blocks_[pending_[j]], false);
      });
    }

    for (const Block& block : blocks_) {
      total.merge(block.tallies);
      boundaryRejects_ += block.rejects;
    }
  }

  /// The bucket phase, a parallel counting sort of the list by block:
  /// each of T chunks of the list draws its proposals' particles and
  /// counts them per block cell of their epoch-start positions; the
  /// coordinator turns the counts into per-(block, chunk) offsets; the
  /// chunks then scatter their entries.  Within a block, chunk c's entries
  /// precede chunk c + 1's and keep their order, so each block's slice of
  /// sorted_ is in list order.  Finally orders the blocks largest first
  /// for the dynamic schedule — only to balance load: blocks commute.
  void bucket(const Kernel& kernel, const BlockEpoch& ep,
              const BlockGrid& blocks) {
    const std::size_t chunkCount = threads_;
    if (chunkCounts_.size() < chunkCount) chunkCounts_.resize(chunkCount);
    if (blockSlot_.size() < blocks.cells) {
      blockSlot_.resize(blocks.cells, kNoBlock);
    }
    proposalCell_.resize(epochLength_);
    proposalParticle_.resize(epochLength_);
    sorted_.resize(epochLength_);
    const auto chunkBegin = [&](std::size_t c) {
      return epochLength_ * c / chunkCount;
    };

    pool().run(chunkCount, [&](std::size_t c) {
      ChunkCounts& counts = chunkCounts_[c];
      if (counts.count.size() < blocks.cells) {
        counts.count.resize(blocks.cells, 0);
      }
      for (std::uint64_t k = chunkBegin(c); k < chunkBegin(c + 1); ++k) {
        const std::uint32_t particle = drawParticle(ep, k);
        const std::uint32_t cell =
            blockCellOf(kernel.position(particle), blocks, ep);
        proposalParticle_[k] = particle;
        proposalCell_[k] = cell;
        if (counts.count[cell]++ == 0) counts.touched.push_back(cell);
      }
    });

    blocks_.clear();
    for (std::size_t c = 0; c < chunkCount; ++c) {
      for (const std::uint32_t cell : chunkCounts_[c].touched) {
        if (blockSlot_[cell] != kNoBlock) continue;
        blockSlot_[cell] = static_cast<std::uint32_t>(blocks_.size());
        blocks_.emplace_back();
        blocks_.back().cell = cell;
      }
    }
    std::uint64_t cursor = 0;
    for (Block& block : blocks_) {
      block.begin = cursor;
      for (std::size_t c = 0; c < chunkCount; ++c) {
        std::uint32_t& slot = chunkCounts_[c].count[block.cell];
        const std::uint32_t n = slot;
        slot = static_cast<std::uint32_t>(cursor);  // now the write cursor
        cursor += n;
      }
      block.end = cursor;
    }

    pool().run(chunkCount, [&](std::size_t c) {
      std::vector<std::uint32_t>& cursors = chunkCounts_[c].count;
      for (std::uint64_t k = chunkBegin(c); k < chunkBegin(c + 1); ++k) {
        sorted_[cursors[proposalCell_[k]]++] = {
            static_cast<std::uint32_t>(k), proposalParticle_[k]};
      }
    });

    // The prefix pass wrote a cursor into every chunk's counter of every
    // active block, so reset those (not just each chunk's touched cells).
    for (const Block& block : blocks_) {
      for (std::size_t c = 0; c < chunkCount; ++c) {
        chunkCounts_[c].count[block.cell] = 0;
      }
      blockSlot_[block.cell] = kNoBlock;
    }
    for (std::size_t c = 0; c < chunkCount; ++c) {
      chunkCounts_[c].touched.clear();
    }

    order_.resize(blocks_.size());
    for (std::size_t b = 0; b < blocks_.size(); ++b) order_[b] = b;
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      const std::uint64_t sizeA = blocks_[a].end - blocks_[a].begin;
      const std::uint64_t sizeB = blocks_[b].end - blocks_[b].begin;
      if (sizeA != sizeB) return sizeA > sizeB;
      return blocks_[a].cell < blocks_[b].cell;
    });
  }

  /// Runs one block's proposals in list order.  With `check`, first makes
  /// sure no move can reach unbacked storage; a block that fails is left
  /// for the coordinator (reserveDepth set) without executing anything.
  /// Touches only this block's particles and words.
  void runBlock(Kernel& kernel, const BlockEpoch& ep, Block& block,
                bool check) {
    if (check && !storageCovers(kernel, ep, block)) return;
    for (std::uint64_t i = block.begin; i < block.end; ++i) {
      runProposal(kernel, ep, sorted_[i].index, sorted_[i].particle,
                  block.tallies, block.rejects);
    }
  }

  /// True when no proposal of the block can touch unbacked storage.  Every
  /// cell an executed proposal reads or writes lies in the block, and a
  /// moved particle needs kInteriorMargin cells of grid around it, so
  /// storage backing the block widened by kInteriorMargin settles it at
  /// once.  Otherwise each particle needs its proposal count c_i plus
  /// kReserveSlack around it; a block that fails records the deepest need
  /// and returns false.  Leaves proposalCounts_ zeroed.
  bool storageCovers(const Kernel& kernel, const BlockEpoch& ep,
                     Block& block) {
    // Any particle of the block locates it; the box [center ± reach]
    // covers the block and kInteriorMargin cells around it.
    const auto centerOf = [](std::int32_t v, std::int64_t offset) {
      return static_cast<std::int32_t>(
          (((v - offset) >> kBlockShift) << kBlockShift) + offset +
          kBlockSize / 2);
    };
    const TriPoint first = kernel.position(sorted_[block.begin].particle);
    const TriPoint center{centerOf(first.x, ep.offsetX),
                          centerOf(first.y, ep.offsetY)};
    constexpr std::int64_t kBlockReach =
        kBlockSize / 2 + system::BitGrid::kInteriorMargin;
    if (kernel.covers(center, kBlockReach)) return true;

    for (std::uint64_t i = block.begin; i < block.end; ++i) {
      ++proposalCounts_[sorted_[i].particle];
    }
    bool covered = true;
    std::int64_t depth = 0;
    for (std::uint64_t i = block.begin; i < block.end; ++i) {
      const std::uint32_t particle = sorted_[i].particle;
      const std::uint32_t count = proposalCounts_[particle];
      if (count == 0) continue;  // particle already checked
      proposalCounts_[particle] = 0;
      const std::int64_t need = count + kReserveSlack;
      depth = std::max(depth, need);
      covered = covered && kernel.covers(kernel.position(particle), need);
    }
    if (!covered) block.reserveDepth = depth;
    return covered;
  }

  std::uint64_t seed_ = 0;
  std::uint32_t particleCount32_ = 0;
  unsigned threads_ = 1;
  std::uint64_t epochLength_ = 0;
  rng::AliasTable selection_;  ///< empty = uniform particle selection
  std::uint64_t epoch_ = 0;
  std::uint64_t boundaryRejects_ = 0;

  std::unique_ptr<WorkerPool> pool_;  ///< created by the first block epoch

  /// Reused per-epoch buffers of the block path.
  std::vector<ChunkCounts> chunkCounts_;
  std::vector<std::uint32_t> blockSlot_;  ///< block cell → blocks_ index
  std::vector<std::uint32_t> proposalCell_;
  std::vector<std::uint32_t> proposalParticle_;
  std::vector<Entry> sorted_;  ///< the list, grouped by block
  std::vector<Block> blocks_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> pending_;
  std::vector<TriPoint> reserveCenters_;
  /// c_i scratch of the storage check; all zero between blocks.
  std::vector<std::uint32_t> proposalCounts_;
};

}  // namespace sops::core

#endif  // SOPS_CORE_BLOCK_EXECUTOR_HPP

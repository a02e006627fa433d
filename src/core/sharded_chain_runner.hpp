#ifndef SOPS_CORE_SHARDED_CHAIN_RUNNER_HPP
#define SOPS_CORE_SHARDED_CHAIN_RUNNER_HPP

/// \file sharded_chain_runner.hpp
/// Exact multi-core execution of the biased chain: the shifted-checkerboard
/// construction (Anderson et al., J. Comput. Phys. 254, 2013) applied to the
/// weight models of core::BiasedChainEngine.
///
/// **Proposal lists.**  The run is cut into epochs of L proposals.
/// Proposal k of epoch e draws from two counter-based streams
/// (rng::CounterStream, counter k under keys util::mix64-hashed from
/// (seed, e)): its particle (uniform over n, or from a Walker alias table
/// of ShardedChainOptions::rates) from one; the aux coin, the
/// direction/orientation and — lazily, inside the shared chainEventStep()
/// — the Metropolis uniform from the other.  Every draw is a pure
/// function of (seed, e, k): no state, no thread and no timing enters it.
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
/// **Symmetric boundary rejection.**  A proposal's cells are (ℓ, ℓ′) for
/// a movement move, (p, q) for a pair aux move (separation's swap) and p
/// alone for a single-particle aux move (alignment's rotation).  Their
/// bounding box, widened by Model::kInteractionRadius − 1, must lie inside
/// the block of the proposing particle; otherwise the proposal is counted
/// (sweepEvents()) and not executed.  Everything an executed proposal
/// reads or writes lies within distance 1 of its cells, so inside its
/// block; in particular no particle ever leaves its block within an epoch.
/// A move and its reverse have the same cells, so the rule rejects both or
/// neither: every executed kernel stays π-reversible, and composing them in
/// list order is π-stationary.  The offsets are drawn independently of the
/// state, so the epoch kernel is a state-independent mixture of stationary
/// kernels, and because every boundary moves between epochs the mixture is
/// irreducible.
///
/// **Execution.**  Proposals of different blocks touch disjoint state, so
/// running each block's proposals in list order — blocks in parallel — is
/// the same computation as running the whole list in order.  With
/// threads == 1 and in the forced-sparse regime the runner does exactly
/// that: the list in order, on the calling thread.  That path is the
/// oracle tests/sharded_chain_test.cpp holds the block path to, bit for
/// bit.  The block path:
///   1. bucket (parallel over T list chunks): each proposal's particle is
///      drawn and filed, by the block of its epoch-start position, into a
///      per-chunk list (chunks keep list order);
///   2. per block (parallel, largest first): count each particle's
///      proposals c_i and check that the storage covers every cell within
///      c_i + radius + kInteriorMargin of it — a particle moves at most
///      once per proposal it owns — then execute the block's proposals in
///      list order;
///   3. blocks that failed the check wait for the coordinator, which grows
///      the flat window or tiles and the id-plane pages around their
///      particles, and then run in a second parallel phase.
/// No grid, plane or page directory changes inside a parallel phase.
///
/// **Heterogeneous rates.**  With `rates`, particle i proposes with
/// probability rate_i / Σ rates.  A move's reverse is proposed by the same
/// particle (movement: the moved particle; swap and rotation: the particle
/// at p), so the selection weight cancels from detailed balance and π is
/// unchanged.  tests/sharded_chain_test.cpp checks this against exact π.
///
/// During an epoch over the dense grid the ParticleSystem's cell→id hash
/// index — the one structure every move would otherwise share — is
/// suspended (ParticleSystem::suspendIndex) and restored on exit.

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/biased_chain_engine.hpp"
#include "core/cancel.hpp"
#include "core/epoch_control.hpp"
#include "core/worker_pool.hpp"
#include "rng/alias_table.hpp"
#include "rng/random.hpp"
#include "system/metrics.hpp"
#include "util/flat_hash.hpp"
#include "util/mix.hpp"

namespace sops::core {

struct ShardedChainOptions {
  /// Worker threads for the block phase; 0 uses hardware_concurrency().
  /// The trajectory is identical for every value.  threads == 1 runs the
  /// proposal list in list order on the calling thread.
  unsigned threads = 0;
  /// Proposals per epoch, L; 0 derives min(max(2n, 1024), 2^28).
  std::uint64_t targetEventsPerEpoch = 0;
  /// Particle-selection weights; empty means uniform (the paper's chain).
  /// Must be positive and match the particle count when present.  π is
  /// unchanged (see file comment); only selection frequencies shift.
  std::vector<double> rates;
};

template <typename Model>
  requires ChainWeightModel<Model>
class ShardedChainRunner {
 public:
  /// Block side in cells; the x-offset is 0 or half of it.
  static constexpr std::int64_t kBlockShift = 7;
  static constexpr std::int64_t kBlockSize = std::int64_t{1} << kBlockShift;

  ShardedChainRunner(system::ParticleSystem initial, Model model,
                     std::uint64_t seed, ShardedChainOptions options = {})
      : system_(std::move(initial)), model_(std::move(model)), seed_(seed) {
    const std::size_t n = system_.size();
    SOPS_REQUIRE(n > 0, "sharded chain runner needs particles");
    particleCount32_ = checkedParticleDrawBound(n);
    const ChainOptions chainOptions = model_.chainOptions();
    SOPS_REQUIRE(chainOptions.lambda > 0.0, "lambda must be positive");
    SOPS_REQUIRE(Model::kUniformWeight || !chainOptions.greedy,
                 "greedy mode is only defined for the uniform-weight model");
    greedy_ = chainOptions.greedy;
    SOPS_REQUIRE(system::isConnected(system_),
                 "sharded runner requires a connected starting configuration");
    model_.attach(system_);
    if constexpr (kMaintainsIds) partnerIds_.sync(system_);
    edges_ = system::countEdges(system_);
    decisions_ = buildDecisionTable(chainOptions);

    // The epoch's bucketed list lives in memory (8 bytes/proposal); an
    // explicit length beyond the cap can only be a mis-keyed step count.
    SOPS_REQUIRE(options.targetEventsPerEpoch <= kMaxEventsPerEpoch,
                 "targetEventsPerEpoch must be at most 2^28");
    SOPS_REQUIRE(options.rates.empty() || options.rates.size() == n,
                 "rates must be empty or give one rate per particle");
    epochLength_ = options.targetEventsPerEpoch != 0
                       ? options.targetEventsPerEpoch
                       : derivedEpochTarget(n);
    if (!options.rates.empty()) selection_ = rng::AliasTable(options.rates);
    threads_ = options.threads != 0
                   ? options.threads
                   : std::max(1u, std::thread::hardware_concurrency());
    proposalCounts_.assign(n, 0);
  }

  /// Installs a cooperative cancel token polled between epochs: once it
  /// trips, runAtLeast returns early (possibly with zero progress) with
  /// the system fully consistent — epoch boundaries are the runner's only
  /// preemption points, and exactly the states saveState() serializes.
  /// nullptr uninstalls.
  void setCancelToken(const CancelToken* cancel) noexcept { cancel_ = cancel; }

  /// Runs whole epochs until at least `minEvents` proposals have run in
  /// this call (or the cancel token trips); returns the number run.  The
  /// system's id index is suspended for the duration and restored before
  /// returning, so the system is fully consistent (particleAt()) between
  /// calls.
  std::uint64_t runAtLeast(std::uint64_t minEvents) {
    const IndexRestore restore(system_);
    std::uint64_t executed = 0;
    while (executed < minEvents && !isCancelled(cancel_)) {
      runEpoch();
      executed += epochLength_;
    }
    return executed;
  }

  [[nodiscard]] const system::ParticleSystem& system() const noexcept {
    return system_;
  }
  [[nodiscard]] const Model& model() const noexcept { return model_; }
  /// steps counts every proposal; the movement and aux tallies cover the
  /// executed ones, sweepEvents() the boundary-rejected rest.
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  /// Proposals per epoch, L.
  [[nodiscard]] std::uint64_t epochTarget() const noexcept {
    return epochLength_;
  }

  /// Epochs completed since construction.
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epoch_; }

  /// Proposals rejected by the block-boundary rule since construction.  A
  /// pure function of the seed, like every other count here.
  [[nodiscard]] std::uint64_t sweepEvents() const noexcept {
    return boundaryRejects_;
  }

  /// Blocks holding at least one proposal in the last block-path epoch (0
  /// before any, and on the list-order path, which does not bucket).
  [[nodiscard]] std::size_t lastEpochBlocks() const noexcept {
    return blocks_.size();
  }

  /// Current e(σ), maintained incrementally from the decision table's δ
  /// (merged across blocks; integer sums are order-independent).
  [[nodiscard]] std::int64_t edges() const noexcept { return edges_; }

  /// p = 3n − e − 3, exact whenever the configuration is hole-free
  /// (Lemma 2.3; hole-freeness is absorbing under the movement rules).
  [[nodiscard]] std::int64_t perimeterIfHoleFree() const noexcept {
    return 3 * static_cast<std::int64_t>(system_.size()) - edges_ - 3;
  }

  /// Serializes the runner's evolving state (snapshot v4): system, model
  /// aux state, tallies, e(σ), the epoch index and the boundary-reject
  /// count.  Everything else — L, the alias table, the decision table, the
  /// planes — comes from the spec.  Only legal between runAtLeast calls.
  void saveState(system::SnapshotWriter& w) const {
    SOPS_REQUIRE(!system_.indexSuspended(),
                 "saveState: only legal between runs (index suspended)");
    system::writeParticleSystem(w, system_);
    model_.serialize(w);
    writeEngineStats(w, stats_);
    w.i64(edges_);
    w.u64(epoch_);
    w.u64(boundaryRejects_);
  }

  /// Inverse of saveState on a runner constructed from the same spec; the
  /// restored runner continues the snapshotted trajectory exactly, at any
  /// thread count.  Payloads older than v4 were written by the
  /// Poisson-clock runner, whose trajectory this runner cannot continue.
  void restoreState(system::SnapshotReader& r) {
    SOPS_REQUIRE(r.version() >= 4,
                 "snapshot: sharded chain payload is version " +
                     std::to_string(r.version()) +
                     ", written by the Poisson-clock runner; the block "
                     "runner reads version 4 and later — rerun the spec "
                     "from the start");
    system_ = system::readParticleSystem(r);
    model_.deserialize(r);
    stats_ = readEngineStats(r);
    edges_ = r.i64();
    epoch_ = r.u64();
    boundaryRejects_ = r.u64();
    SOPS_REQUIRE(system_.size() == proposalCounts_.size(),
                 "snapshot: particle count does not match the runner's spec");
    model_.attach(system_);
    if constexpr (kMaintainsIds) {
      // The restored geometry can equal the stale fingerprint, so a plain
      // sync() could keep pre-restore ids.
      partnerIds_.invalidate();
      partnerIds_.sync(system_);
    }
    SOPS_REQUIRE(system::countEdges(system_) == edges_,
                 "snapshot: restored edge count disagrees with the "
                 "configuration — corrupt or mismatched snapshot");
  }

 private:
  static constexpr bool kMaintainsIds = ModelNeedsPartnerIds<Model>::value;
  static constexpr std::int64_t kRadius = ModelInteractionRadius<Model>::value;
  /// Storage a particle with c proposals needs around it: c moves, then
  /// the model's reach and the grid's interior margin.
  static constexpr std::int64_t kReserveSlack =
      kRadius + system::BitGrid::kInteriorMargin;

  /// The (seed, e) draws of one epoch.  Proposal k draws its particle
  /// from counter stream k under particleKey and everything else from
  /// counter stream k under moveKey, so the block path can file a proposal
  /// by particle and later run it without redrawing the particle.
  struct Epoch {
    std::uint64_t particleKey = 0;
    std::uint64_t moveKey = 0;
    std::int64_t offsetX = 0;  ///< 0 or 64
    std::int64_t offsetY = 0;  ///< [0, 128)
  };

  /// One proposal, filed under its block by the bucket phase.
  struct Entry {
    std::uint32_t index;     ///< k within the epoch
    std::uint32_t particle;
  };

  /// One block holding proposals this epoch: its slice of sorted_ (list
  /// order) and its own tallies.
  struct Block {
    std::uint32_t cell = 0;  ///< index in the epoch's block grid
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    EngineStats stats;
    std::int64_t edgeDelta = 0;
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

  /// RAII index restoration for one run (suspension itself is per-epoch):
  /// restore must happen even when an epoch throws, and is idempotent.
  class IndexRestore {
   public:
    explicit IndexRestore(system::ParticleSystem& sys) : sys_(sys) {}
    ~IndexRestore() { sys_.restoreIndex(); }
    IndexRestore(const IndexRestore&) = delete;
    IndexRestore& operator=(const IndexRestore&) = delete;

   private:
    system::ParticleSystem& sys_;
  };

  [[nodiscard]] Epoch epochDraws(std::uint64_t e) const noexcept {
    Epoch ep;
    const std::uint64_t key = util::mix64(util::mix64(seed_) ^ e);
    ep.particleKey = util::mix64(key ^ 0x7061727469636c65ULL);  // "particle"
    ep.moveKey = util::mix64(key ^ 0x6d6f7665ULL);               // "move"
    const std::uint64_t offsets =
        util::mix64(key ^ 0x6f6666736574ULL);  // "offset"
    ep.offsetX = static_cast<std::int64_t>(offsets & 1) << (kBlockShift - 1);
    ep.offsetY = static_cast<std::int64_t>((offsets >> 1) &
                                           (kBlockSize - 1));
    return ep;
  }

  [[nodiscard]] std::uint32_t drawParticle(const Epoch& ep,
                                           std::uint64_t k) const noexcept {
    rng::CounterStream stream(ep.particleKey, k);
    return selection_.empty() ? stream.below(particleCount32_)
                              : selection_.sample(stream);
  }

  [[nodiscard]] static BlockGrid blockGridOf(const system::BitGrid& grid,
                                             const Epoch& ep) noexcept {
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
                                                 const Epoch& ep) noexcept {
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

  /// Offsets, relative to the proposing particle's cell, of the widened
  /// box the boundary rule tests: for the pair (ℓ, ℓ + offset(d)) at
  /// index d, for ℓ alone at index kSelf.
  struct Reach {
    std::int64_t loX, hiX, loY, hiY;
  };
  static constexpr int kSelf = lattice::kNumDirections;
  static constexpr std::array<Reach, kSelf + 1> kReach = [] {
    constexpr std::int64_t widen = kRadius - 1;
    std::array<Reach, kSelf + 1> reach{};
    for (int d = 0; d <= kSelf; ++d) {
      const TriPoint off = d == kSelf ? TriPoint{0, 0}
                                      : lattice::offset(
                                            lattice::directionFromIndex(d));
      reach[static_cast<std::size_t>(d)] = {
          std::min<std::int64_t>(off.x, 0) - widen,
          std::max<std::int64_t>(off.x, 0) + widen,
          std::min<std::int64_t>(off.y, 0) - widen,
          std::max<std::int64_t>(off.y, 0) + widen};
    }
    return reach;
  }();

  /// The boundary rule: the box of the proposal's cells, widened by
  /// radius − 1, lies inside the block of ℓ.  Computed in block-local
  /// coordinates with no data-dependent branch (a branch per min/max
  /// mispredicts on half the proposals).  A move and its reverse test the
  /// same box.
  [[nodiscard]] static bool insideBlock(TriPoint l, int reach,
                                        const Epoch& ep) noexcept {
    const std::int64_t x =
        (static_cast<std::int64_t>(l.x) - ep.offsetX) & (kBlockSize - 1);
    const std::int64_t y =
        (static_cast<std::int64_t>(l.y) - ep.offsetY) & (kBlockSize - 1);
    const Reach& r = kReach[static_cast<std::size_t>(reach)];
    return static_cast<bool>((x + r.loX >= 0) & (x + r.hiX < kBlockSize) &
                             (y + r.loY >= 0) & (y + r.hiY < kBlockSize));
  }

  /// Proposal k of `particle` (drawParticle(ep, k)): the move draws, the
  /// boundary rule, then the shared event kernel.  Outcomes go to the
  /// given tallies (a block's in the parallel phase).
  void runProposal(const Epoch& ep, std::uint64_t k, std::uint32_t particle,
                   EngineStats& stats, std::int64_t& edges,
                   std::uint64_t& rejects) {
    rng::CounterStream stream(ep.moveKey, k);
    bool auxMove = false;
    if constexpr (Model::kHasAuxMove) {
      auxMove =
          model_.auxEnabled() && stream.bernoulli(model_.auxProbability());
    }
    const int draw6 = static_cast<int>(stream.below(6));
    ++stats.steps;
    int reach = draw6;
    if constexpr (Model::kHasAuxMove) {
      if (auxMove && !Model::kAuxMovePair) reach = kSelf;
    }
    if (!insideBlock(system_.position(particle), reach, ep)) {
      ++rejects;
      return;
    }
    const EngineStepResult result =
        chainEventStep(system_, model_, partnerIds_, decisions_, greedy_,
                       static_cast<std::size_t>(particle), draw6, auxMove,
                       stream, edges);
    if (result.wasAux) {
      if (result.aux != AuxOutcome::Skipped) ++stats.auxProposed;
      if (result.aux == AuxOutcome::Accepted) ++stats.auxAccepted;
    } else {
      stats.movement.record(result.movement);
    }
  }

  void runEpoch() {
    const Epoch ep = epochDraws(epoch_);
    if (threads_ > 1 && system_.grid().enabled()) {
      runBlocks(ep);
    } else {
      runListOrder(ep);
    }
    ++epoch_;
  }

  /// The oracle: the whole list in order on this thread.  Window regrows
  /// and plane resyncs happen inline, as in the sequential engine.
  void runListOrder(const Epoch& ep) {
    if (system_.grid().enabled()) {
      model_.attach(system_);
      if constexpr (kMaintainsIds) partnerIds_.sync(system_);
      system_.suspendIndex();
    }
    for (std::uint64_t k = 0; k < epochLength_; ++k) {
      if constexpr (kMaintainsIds) {
        // Sparse pair moves resolve partners through the hash index.
        if (!partnerIds_.sync(system_)) system_.restoreIndex();
      }
      runProposal(ep, k, drawParticle(ep, k), stats_, edges_,
                  boundaryRejects_);
    }
  }

  WorkerPool& pool() {
    if (!pool_) pool_ = std::make_unique<WorkerPool>(threads_);
    return *pool_;
  }

  void runBlocks(const Epoch& ep) {
    // A flat window restored from a foreign snapshot may sit off the
    // 64-column lattice the block edges need; one regrow realigns it.
    if (!system_.grid().tiled() && (system_.grid().originX() & 63) != 0) {
      const TriPoint anchor = system_.position(0);
      system_.reserveInterior({&anchor, 1}, 0);
    }
    const BlockGrid blocks = blockGridOf(system_.grid(), ep);
    if (blocks.cells > kMaxBlockCounters / threads_) {
      runListOrder(ep);
      return;
    }
    model_.attach(system_);
    if constexpr (kMaintainsIds) partnerIds_.sync(system_);
    system_.suspendIndex();

    bucket(ep, blocks);
    pool().run(order_.size(), [&](std::size_t j) {
      runBlock(ep, blocks_[order_[j]], true);
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
        reserveCenters_.push_back(system_.position(sorted_[i].particle));
      }
      depth = std::max(depth, block.reserveDepth);
    }
    if (!pending_.empty()) {
      system_.reserveInterior(reserveCenters_, depth);
      model_.attach(system_);
      if constexpr (kMaintainsIds) {
        partnerIds_.sync(system_);
        partnerIds_.reserveNear(reserveCenters_, depth);
      }
      pool().run(pending_.size(), [&](std::size_t j) {
        runBlock(ep, blocks_[pending_[j]], false);
      });
    }

    for (const Block& block : blocks_) {
      stats_.merge(block.stats);
      edges_ += block.edgeDelta;
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
  void bucket(const Epoch& ep, const BlockGrid& blocks) {
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
            blockCellOf(system_.position(particle), blocks, ep);
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
  void runBlock(const Epoch& ep, Block& block, bool check) {
    if (check && !storageCovers(ep, block)) return;
    for (std::uint64_t i = block.begin; i < block.end; ++i) {
      runProposal(ep, sorted_[i].index, sorted_[i].particle, block.stats,
                  block.edgeDelta, block.rejects);
    }
  }

  /// True when no proposal of the block can touch unbacked storage.  Every
  /// cell an executed proposal reads or writes lies in the block, and a
  /// moved particle needs kInteriorMargin cells of grid around it, so a
  /// grid (and, for pair models, id plane) backing the block widened by
  /// kInteriorMargin settles it at once.  Otherwise each particle needs
  /// its proposal count c_i plus kReserveSlack around it; a block that
  /// fails records the deepest need and returns false.  Leaves
  /// proposalCounts_ zeroed.
  bool storageCovers(const Epoch& ep, Block& block) {
    const system::BitGrid& grid = system_.grid();
    // Any particle of the block locates it; the box [center ± reach]
    // covers the block and kInteriorMargin cells around it.
    const auto centerOf = [](std::int32_t v, std::int64_t offset) {
      return static_cast<std::int32_t>(
          (((v - offset) >> kBlockShift) << kBlockShift) + offset +
          kBlockSize / 2);
    };
    const TriPoint first = system_.position(sorted_[block.begin].particle);
    const TriPoint center{centerOf(first.x, ep.offsetX),
                          centerOf(first.y, ep.offsetY)};
    constexpr std::int64_t kBlockReach =
        kBlockSize / 2 + system::BitGrid::kInteriorMargin;
    bool blockBacked = grid.coversInteriorBy(center, kBlockReach);
    if constexpr (kMaintainsIds) {
      blockBacked = blockBacked && partnerIds_.coversNear(center, kBlockReach);
    }
    if (blockBacked) return true;

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
      const TriPoint p = system_.position(particle);
      const std::int64_t need = count + kReserveSlack;
      depth = std::max(depth, need);
      covered = covered && grid.coversInteriorBy(p, need);
      if constexpr (kMaintainsIds) {
        covered = covered && partnerIds_.coversNear(p, need);
      }
    }
    if (!covered) block.reserveDepth = depth;
    return covered;
  }

  system::ParticleSystem system_;
  Model model_;
  std::uint64_t seed_ = 0;
  unsigned threads_ = 1;
  std::uint64_t epochLength_ = 0;
  std::uint32_t particleCount32_ = 0;
  bool greedy_ = false;
  rng::AliasTable selection_;  ///< empty = uniform particle selection
  EngineStats stats_;
  std::int64_t edges_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t boundaryRejects_ = 0;
  /// cell → id mirror for models that declare kNeedsPartnerIds; empty and
  /// untouched otherwise (same contract as the engine's).
  ParticleIdPlane partnerIds_;
  std::array<MoveDecision, 256> decisions_{};
  const CancelToken* cancel_ = nullptr;

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

#endif  // SOPS_CORE_SHARDED_CHAIN_RUNNER_HPP

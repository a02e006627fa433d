#ifndef SOPS_SYSTEM_PARTICLE_SYSTEM_HPP
#define SOPS_SYSTEM_PARTICLE_SYSTEM_HPP

/// \file particle_system.hpp
/// A configuration of contracted particles on G∆ (paper §2.2).
///
/// This is the state type of the Markov chain M: n distinct occupied lattice
/// vertices.  It maintains three synchronized views:
///
///   - a position vector (uniform particle selection, iteration),
///   - a dense bitboard window (BitGrid) answering occupied() with a single
///     word load — the hot path of every chain step (~9 queries per
///     proposed move),
///   - a flat hash index mapping cell → particle id, which serves
///     particleAt().
///
/// Every non-empty system keeps the dense grid on: a flat window while
/// the bounding box fits BitGrid::kMaxWords, the tiled backend beyond.
///
/// Expanded particles exist only in the amoebot layer (S7); the chain's
/// states consider contracted particles only, exactly as in the paper
/// (§3.2, footnote 2).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lattice/tri_point.hpp"
#include "system/bit_grid.hpp"
#include "util/assert.hpp"
#include "util/flat_hash.hpp"

namespace sops::system {

using lattice::Direction;
using lattice::TriPoint;

class ParticleSystem {
 public:
  ParticleSystem() = default;

  /// Builds a system from distinct lattice points.  Throws ContractViolation
  /// on duplicates.
  explicit ParticleSystem(std::span<const TriPoint> points);

  [[nodiscard]] std::size_t size() const noexcept { return positions_.size(); }
  [[nodiscard]] bool empty() const noexcept { return positions_.empty(); }

  [[nodiscard]] TriPoint position(std::size_t particle) const {
    SOPS_DASSERT(particle < positions_.size());
    return positions_[particle];
  }

  [[nodiscard]] const std::vector<TriPoint>& positions() const noexcept {
    return positions_;
  }

  [[nodiscard]] bool occupied(TriPoint p) const noexcept {
    // One word load.  The grid invariantly covers every particle, so an
    // out-of-window cell is unoccupied by construction (and an empty
    // system's disabled grid reports every cell empty).
    return grid_.test(p);
  }

  /// Occupancy via the hash index only, bypassing the bitboard.  Exposed
  /// for the reference kernels in tests/benches that validate the dense
  /// grid against an independent oracle.
  [[nodiscard]] bool occupiedSparse(TriPoint p) const noexcept {
    return index_.contains(lattice::pack(p));
  }

  /// Occupancy of a cell within graph distance 2 of some particle — the
  /// target and ring cells of any proposed move qualify.  Every particle
  /// is kept ≥ BitGrid::kInteriorMargin cells inside the dense window
  /// (regrowth triggers on interior escape), so this skips the window
  /// bounds check: one word load on the hot path.  For arbitrary cells use
  /// occupied().
  [[nodiscard]] bool occupiedNear(TriPoint p) const noexcept {
    return grid_.testUnchecked(p);
  }

  /// The dense occupancy grid: a flat window for small bounding boxes,
  /// the tiled backend for large ones (disabled only while empty).
  [[nodiscard]] const BitGrid& grid() const noexcept { return grid_; }

  /// Which occupancy regime the system is running: "dense-flat" (one flat
  /// window) or "dense-tiled" (tile directory).  Surfaced through the sim
  /// facade so a promotion to tiled is visible in the replica record.
  [[nodiscard]] const char* regimeName() const noexcept {
    return grid_.tiled() ? "dense-tiled" : "dense-flat";
  }

  /// Particle id occupying p, if any.  Invalid while the index is
  /// suspended (see suspendIndex()).
  [[nodiscard]] std::optional<std::size_t> particleAt(
      TriPoint p) const noexcept {
    SOPS_DASSERT(!indexSuspended_);
    const std::int32_t* id = index_.find(lattice::pack(p));
    if (id == nullptr) return std::nullopt;
    return static_cast<std::size_t>(*id);
  }

  /// Adds a particle at an unoccupied vertex; returns its id.
  std::size_t add(TriPoint p);

  /// Removes the particle with the given id (swap-with-last, so ids of other
  /// particles may change: the last particle takes over the removed id).
  void remove(std::size_t particle);

  /// Moves a particle to an unoccupied vertex (need not be adjacent; the
  /// chain enforces adjacency itself).
  void moveParticle(std::size_t particle, TriPoint to);

  /// The grid half of moveParticle(), for a parallel phase: clears `from`
  /// and sets `to` in the occupancy grid and touches nothing else, so
  /// concurrent workers may call it for cells in disjoint grid words.  The
  /// position vector and the cell → id index keep the particle at `from`
  /// until commitMove(from, to); in between only the grid may be read.
  /// Preconditions: `from` occupied, `to` free, and coversInterior(to) —
  /// nothing regrows.
  void moveOccupancy(TriPoint from, TriPoint to) {
    SOPS_DASSERT(grid_.test(from) && !grid_.test(to));
    SOPS_DASSERT(grid_.coversInterior(to));
    grid_.clear(from);
    grid_.set(to);
  }

  /// Completes a moveOccupancy(from, to): the particle the index places at
  /// `from` moves to `to` in the position vector and the index.  Returns
  /// its id.  Moves committed in the order they were made replay any
  /// sequence of moveOccupancy() calls exactly.
  std::size_t commitMove(TriPoint from, TriPoint to);

  /// Suspends maintenance of the cell → id hash index so that concurrent
  /// workers may moveParticle() *disjoint* particles whose reads and
  /// writes touch disjoint grid words (the sharded chain runner's
  /// blocks): the open-addressing index is the one structure every move
  /// would otherwise share.  While suspended, occupancy is answered
  /// by the dense grid alone and particleAt() must not be called.
  void suspendIndex();

  /// Rebuilds the hash index from the position vector and resumes normal
  /// maintenance.  Idempotent.
  void restoreIndex();

  [[nodiscard]] bool indexSuspended() const noexcept {
    return indexSuspended_;
  }

  /// Grows the dense grid so that grid().coversInteriorBy(c, depth) holds
  /// for every center: a flat window regrows once, spanning every box
  /// [c ± depth] (promoting to tiled past the flat cap); a tiled grid
  /// allocates the tiles of each box.  The sharded chain runner calls this
  /// between parallel phases, so no move inside one can regrow the grid.
  void reserveInterior(std::span<const TriPoint> centers, std::int64_t depth);

  /// Number of occupied neighbors of vertex p (0..6).  p itself does not
  /// count even if occupied.
  [[nodiscard]] int neighborCount(TriPoint p) const noexcept {
    int count = 0;
    for (const Direction d : lattice::kAllDirections) {
      count += occupied(lattice::neighbor(p, d)) ? 1 : 0;
    }
    return count;
  }

  /// 8-bit occupancy mask of the ring cells of the move (ℓ, d) — see
  /// lattice/edge_ring.hpp for the cell order (it matches core::ringCell).
  /// Precondition: ℓ is an occupied particle position, so the grid's
  /// interior-margin invariant makes the dense gather branch-free.
  [[nodiscard]] std::uint8_t ringMask(TriPoint l, Direction d) const noexcept {
    return grid_.ringMaskUnchecked(l, lattice::index(d));
  }

  /// 6-bit occupancy mask of p's neighborhood; bit i is direction index i.
  [[nodiscard]] std::uint8_t neighborMask(TriPoint p) const noexcept {
    std::uint8_t mask = 0;
    for (const Direction d : lattice::kAllDirections) {
      if (occupied(lattice::neighbor(p, d))) {
        mask = static_cast<std::uint8_t>(mask | (1u << index(d)));
      }
    }
    return mask;
  }

  /// Structural equality as a *set* of occupied vertices (particle ids and
  /// ordering are irrelevant, matching the paper's notion of arrangement).
  [[nodiscard]] bool sameArrangement(const ParticleSystem& other) const;

  /// Snapshot-restore hook: forces the flat window to the exact geometry
  /// a snapshot recorded.  The geometry is part of the serialized state:
  /// regrowGrid()'s proportional margin would re-derive a different,
  /// history-dependent window, and with it different later regrows, so a
  /// resumed run would no longer write the same snapshot bytes as an
  /// uninterrupted one.  Must not be called while the index is suspended.
  void restoreWindowGeometry(std::int64_t originX, std::int64_t originY,
                             std::uint64_t width, std::uint64_t height);

  /// Snapshot-restore hook for the tiled backend: rebuilds the tile
  /// directory EXACTLY as a v3 snapshot recorded it, for the same reason
  /// (the allocated-tile set is serialized state, and the tiled backend
  /// only grows, so it cannot be re-derived from the positions).
  void restoreTiledGeometry(std::span<const std::uint64_t> tileKeys);

  /// Forces the tiled backend on a system whose bounding box would
  /// otherwise fit a flat window, so tests can compare the two backends
  /// on small configurations.
  void forceTiledForTest();

 private:
  /// Rebuilds the dense grid from positions_: a flat window (with
  /// proportional margin so rebuilds stay rare as the configuration
  /// drifts) when the bounding box fits BitGrid::kMaxWords, the tiled
  /// backend beyond that.
  void regrowGrid();

  std::vector<TriPoint> positions_;
  util::FlatMap64<std::int32_t> index_;
  BitGrid grid_;
  bool indexSuspended_ = false;
};

}  // namespace sops::system

#endif  // SOPS_SYSTEM_PARTICLE_SYSTEM_HPP

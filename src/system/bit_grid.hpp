#ifndef SOPS_SYSTEM_BIT_GRID_HPP
#define SOPS_SYSTEM_BIT_GRID_HPP

/// \file bit_grid.hpp
/// Dense bit-packed occupancy over the triangular lattice, in one of two
/// backends behind a single query API.
///
/// Occupancy queries dominate every chain step (the target cell plus the
/// 8-cell ring, ~9 per proposed move).  The open-addressing index answers
/// each with a hash probe chain; this grid answers with a handful of
/// integer ops and one word load — the "bitboard" of the hot path.
///
/// **Flat backend.**  A rectangular window [originX, originX+width) ×
/// [originY, originY+height) that ParticleSystem keeps a superset of the
/// bounding box of all particles (rebuilt with proportional margin when a
/// particle leaves it).  Rows are keyed by axial y and bit-packed along
/// axial x with a 64-bit word stride.  Cells outside the window are by
/// construction unoccupied, so test() simply returns false there.
///
/// **Tiled backend.**  Configurations whose bounding box exceeds kMaxWords
/// (spread-out or huge systems) no longer fall off the dense path:
/// rebuild() promotes the grid to a tiled layout that allocates fixed-size
/// 1024×256-cell tiles (4096 words = 32 KiB) on first touch, keyed by tile
/// coordinate in a small open-addressing directory.  Tiles are absolutely
/// anchored — tile (tx, ty) always covers cells [tx·1024, (tx+1)·1024) ×
/// [ty·256, (ty+1)·256) — so tile geometry is a pure function of the cell
/// coordinate, independent of history.  Interior cells of a tile resolve
/// with the same constant-stride word math as the flat window (the in-tile
/// row stride is 1024 bits); only cells within kInteriorMargin of a tile
/// edge take the per-cell seam path.  Unallocated tiles read as empty.
/// Because the tile width is a multiple of 64 and tiles are anchored at
/// multiples of 1024, the block executor's word-exclusive column ownership
/// (128-column blocks at 64-column offsets) carries over unchanged.
///
/// The caller-visible invariant is shared: every particle satisfies
/// coversInterior(), meaning (flat) it sits ≥ kInteriorMargin cells inside
/// the window, or (tiled) every tile within kInteriorMargin of it is
/// allocated.  That licenses testUnchecked()/ring gathers on any cell
/// within graph distance kInteriorMargin of a particle.

#include <cstdint>
#include <span>
#include <vector>

#include "lattice/edge_ring.hpp"
#include "lattice/tri_point.hpp"
#include "util/assert.hpp"
#include "util/flat_hash.hpp"

namespace sops::system {

using lattice::TriPoint;

class BitGrid {
 public:
  /// Flat-window size cap: 2^28 bits = 32 MiB, a 16384×16384 cell window.
  /// Beyond this rebuild() promotes to the tiled backend instead of
  /// failing.
  static constexpr std::size_t kMaxWords = (std::size_t{1} << 28) / 64;

  /// Ring/target cells sit within graph distance 2 of a particle.
  static constexpr std::int64_t kInteriorMargin = 2;

  // --- tiled-backend geometry (absolutely anchored) ---

  /// Tiles are 1024 cells wide: a multiple of 64 so word-aligned column
  /// ownership is preserved, and wide enough that the seam fraction of a
  /// dense region is ~0.4% per axis.
  static constexpr int kTileShiftX = 10;
  /// ...and 256 rows tall: 1024×256 bits = 32 KiB per tile, small enough
  /// that a sparse diagonal of particles does not over-allocate, large
  /// enough that a dense blob of 10^5 particles spans only a few tiles.
  static constexpr int kTileShiftY = 8;
  static constexpr std::int64_t kTileWidth = std::int64_t{1} << kTileShiftX;
  static constexpr std::int64_t kTileHeight = std::int64_t{1} << kTileShiftY;
  static constexpr std::size_t kTileRowWords =
      static_cast<std::size_t>(kTileWidth) / 64;
  static constexpr std::size_t kTileWords =
      kTileRowWords * static_cast<std::size_t>(kTileHeight);
  static constexpr std::uint64_t kTileBits = std::uint64_t{kTileWords} * 64;

  /// Tile-directory cap: 2^16 tiles × 32 KiB = 2 GiB of occupancy words.
  /// Exceeding it throws ContractViolation from ensureTile (see the
  /// message there for the fix); like sim::kMaxBufferedEventsPerReplica
  /// this bounds a single run's resource appetite with a loud failure
  /// instead of an OOM kill.
  static constexpr std::uint32_t kMaxTiles = 1u << 16;

  BitGrid() = default;

  /// True when a backend is allocated and test()/set()/clear() are usable.
  [[nodiscard]] bool enabled() const noexcept { return !words_.empty(); }

  /// True while the tiled backend is active (enabled() implied false when
  /// no tiles exist yet).
  [[nodiscard]] bool tiled() const noexcept { return tiled_; }

  /// Number of allocated tiles (0 in flat mode).
  [[nodiscard]] std::size_t tileCount() const noexcept {
    return tiles_.size();
  }

  /// A version renewed by every geometry change: rebuilds, exact
  /// rebuilds, disable, allocateLike, and each tile allocation.  Shadow
  /// planes, the id plane and the rejection-free sampler's kept anchor
  /// counts fingerprint this to detect staleness.  Versions come from one
  /// process-wide counter, so equal versions mean identical geometry
  /// (window or tile directory) on one grid object or on a copy of it, and
  /// a grid built anew never repeats an earlier version.
  [[nodiscard]] std::uint64_t geometryVersion() const noexcept {
    return geometryVersion_;
  }

  // --- tile coordinate helpers ---

  [[nodiscard]] static constexpr std::int64_t tileXOf(TriPoint p) noexcept {
    return static_cast<std::int64_t>(p.x) >> kTileShiftX;
  }
  [[nodiscard]] static constexpr std::int64_t tileYOf(TriPoint p) noexcept {
    return static_cast<std::int64_t>(p.y) >> kTileShiftY;
  }
  [[nodiscard]] static constexpr std::uint64_t tileKey(
      std::int64_t tx, std::int64_t ty) noexcept {
    return (static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(static_cast<std::int32_t>(tx)))
            << 32) |
           static_cast<std::uint32_t>(static_cast<std::int32_t>(ty));
  }
  [[nodiscard]] static constexpr std::int64_t tileXOfKey(
      std::uint64_t key) noexcept {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(key >> 32));
  }
  [[nodiscard]] static constexpr std::int64_t tileYOfKey(
      std::uint64_t key) noexcept {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(key));
  }

  /// True iff p lies inside the allocated window (flat) or inside an
  /// allocated tile (tiled).
  [[nodiscard]] bool covers(TriPoint p) const noexcept {
    if (tiled_) return tiles_.contains(tileKey(tileXOf(p), tileYOf(p)));
    const auto dx = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(p.x) - originX_);
    const auto dy = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(p.y) - originY_);
    return dx < width_ && dy < height_;
  }

  /// True iff every cell within graph distance kInteriorMargin of p is
  /// backed by allocated storage.  ParticleSystem keeps every particle
  /// interior in this sense, which is what licenses testUnchecked() on any
  /// cell within that distance of a particle (ring and target cells of a
  /// move).
  [[nodiscard]] bool coversInterior(TriPoint p) const noexcept {
    return coversInteriorBy(p, kInteriorMargin);
  }

  /// True iff the whole box [p.x ± depth] × [p.y ± depth] is backed by
  /// allocated storage: at least `depth` cells from every window edge
  /// (flat), or every tile intersecting the box allocated (tiled).  The
  /// sharded runners check it before a parallel phase (amoebot: depth
  /// kInteriorMargin + 1 per event; chain: a block, or each particle's
  /// proposal count plus slack) so that no window regrow or tile
  /// allocation can trigger inside one.
  [[nodiscard]] bool coversInteriorBy(TriPoint p,
                                      std::int64_t depth) const noexcept {
    SOPS_DASSERT(depth >= 0);
    if (tiled_) {
      const auto x = static_cast<std::int64_t>(p.x);
      const auto y = static_cast<std::int64_t>(p.y);
      const std::int64_t tx0 = (x - depth) >> kTileShiftX;
      const std::int64_t tx1 = (x + depth) >> kTileShiftX;
      const std::int64_t ty0 = (y - depth) >> kTileShiftY;
      const std::int64_t ty1 = (y + depth) >> kTileShiftY;
      for (std::int64_t ty = ty0; ty <= ty1; ++ty) {
        for (std::int64_t tx = tx0; tx <= tx1; ++tx) {
          if (!tiles_.contains(tileKey(tx, ty))) return false;
        }
      }
      return true;
    }
    // A window narrower than the two interior bands has no interior at
    // all; without this check the unsigned subtractions below wrap and can
    // wrongly report interior (this also covers a disabled grid, where
    // width_ == 0).
    if (2 * static_cast<std::uint64_t>(depth) >= width_ ||
        2 * static_cast<std::uint64_t>(depth) >= height_) {
      return false;
    }
    const auto dx = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(p.x) - originX_ - depth);
    const auto dy = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(p.y) - originY_ - depth);
    return dx < width_ - 2 * static_cast<std::uint64_t>(depth) &&
           dy < height_ - 2 * static_cast<std::uint64_t>(depth);
  }

  /// Occupancy of p without the bounds check.  Precondition: p is within
  /// kInteriorMargin cells of some cell satisfying coversInterior() —
  /// guaranteed by ParticleSystem's interior-margin invariant for any cell
  /// adjacent-or-ring to a particle.  In tiled mode this means p's tile is
  /// allocated, so the probe is asserted to hit.
  [[nodiscard]] bool testUnchecked(TriPoint p) const noexcept {
    if (tiled_) {
      const std::uint32_t* slot =
          tiles_.find(tileKey(tileXOf(p), tileYOf(p)));
      SOPS_DASSERT(slot != nullptr);
      if (slot == nullptr) return false;
      const std::uint64_t bit = tileBit(*slot, p);
      return (words_[bit >> 6] >> (bit & 63)) & 1u;
    }
    SOPS_DASSERT(covers(p));
    const auto dx = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(p.x) - originX_);
    const auto dy = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(p.y) - originY_);
    return (words_[dy * strideWords_ + (dx >> 6)] >> (dx & 63)) & 1u;
  }

  /// Occupancy bitmask of the 8 ring cells of the move (ℓ, d): one bit
  /// index for ℓ, then eight adds against per-direction deltas precomputed
  /// for the backend's row stride — no per-cell multiplies or bounds
  /// checks.  In tiled mode, ring offsets reach at most kInteriorMargin
  /// cells from ℓ, so when ℓ sits that far inside its tile the whole ring
  /// resolves against one tile with the same constant-stride math; only
  /// the thin seam band falls back to per-cell test().
  /// Preconditions: enabled(), and ℓ satisfies coversInterior() (it is a
  /// particle under ParticleSystem's interior-margin invariant).
  [[nodiscard]] std::uint8_t ringMaskUnchecked(TriPoint l,
                                               int dirIndex) const noexcept {
    SOPS_DASSERT(coversInterior(l));
    if (tiled_) {
      const std::int64_t inX =
          static_cast<std::int64_t>(l.x) & (kTileWidth - 1);
      const std::int64_t inY =
          static_cast<std::int64_t>(l.y) & (kTileHeight - 1);
      if (inX >= kInteriorMargin && inX < kTileWidth - kInteriorMargin &&
          inY >= kInteriorMargin && inY < kTileHeight - kInteriorMargin) {
        const std::uint32_t* slot =
            tiles_.find(tileKey(tileXOf(l), tileYOf(l)));
        SOPS_DASSERT(slot != nullptr);
        if (slot != nullptr) {
          const std::uint64_t base =
              static_cast<std::uint64_t>(*slot) * kTileBits +
              static_cast<std::uint64_t>(inY * kTileWidth + inX);
          return gatherRing(base, dirIndex);
        }
      }
      const SeamBlock block = resolveSeamBlock(l, kInteriorMargin);
      const auto& offsets = lattice::kEdgeRingOffsets[dirIndex];
      std::uint32_t mask = 0;
      for (int idx = 0; idx < lattice::kEdgeRingSize; ++idx) {
        if (seamTest(block, l + offsets[idx])) mask |= 1u << idx;
      }
      return static_cast<std::uint8_t>(mask);
    }
    const std::uint64_t base =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(l.y) - originY_) *
            (strideWords_ * 64) +
        static_cast<std::uint64_t>(static_cast<std::int64_t>(l.x) - originX_);
    return gatherRing(base, dirIndex);
  }

  /// Occupancy bitmask of the 6 neighbors of p: bit i is the cell
  /// p + offset(directionFromIndex(i)), gathered through per-direction bit
  /// deltas.  Precondition: every neighbor of p is backed by allocated
  /// storage — guaranteed when some cell within distance 1 of p satisfies
  /// coversInterior().
  [[nodiscard]] std::uint8_t neighborMaskUnchecked(TriPoint p) const noexcept {
    if (tiled_) {
      const std::int64_t inX =
          static_cast<std::int64_t>(p.x) & (kTileWidth - 1);
      const std::int64_t inY =
          static_cast<std::int64_t>(p.y) & (kTileHeight - 1);
      if (inX >= 1 && inX < kTileWidth - 1 && inY >= 1 &&
          inY < kTileHeight - 1) {
        const std::uint32_t* slot =
            tiles_.find(tileKey(tileXOf(p), tileYOf(p)));
        SOPS_DASSERT(slot != nullptr);
        if (slot != nullptr) {
          const std::uint64_t base =
              static_cast<std::uint64_t>(*slot) * kTileBits +
              static_cast<std::uint64_t>(inY * kTileWidth + inX);
          return gatherNeighbors(base);
        }
      }
      const SeamBlock block = resolveSeamBlock(p, 1);
      std::uint32_t mask = 0;
      for (int idx = 0; idx < lattice::kNumDirections; ++idx) {
        const TriPoint n =
            p + lattice::offset(lattice::directionFromIndex(idx));
        if (seamTest(block, n)) mask |= 1u << idx;
      }
      return static_cast<std::uint8_t>(mask);
    }
    SOPS_DASSERT(covers(p));
    const std::uint64_t base =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(p.y) - originY_) *
            (strideWords_ * 64) +
        static_cast<std::uint64_t>(static_cast<std::int64_t>(p.x) - originX_);
    return gatherNeighbors(base);
  }

  /// Occupancy of p; false for any cell outside the allocated storage.
  [[nodiscard]] bool test(TriPoint p) const noexcept {
    if (tiled_) {
      const std::uint32_t* slot =
          tiles_.find(tileKey(tileXOf(p), tileYOf(p)));
      if (slot == nullptr) return false;
      const std::uint64_t bit = tileBit(*slot, p);
      return (words_[bit >> 6] >> (bit & 63)) & 1u;
    }
    const auto dx = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(p.x) - originX_);
    const auto dy = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(p.y) - originY_);
    if (dx >= width_ || dy >= height_) return false;
    const std::uint64_t word =
        words_[dy * strideWords_ + (dx >> 6)];
    return (word >> (dx & 63)) & 1u;
  }

  /// The occupancy of the 64 cells (x + j, y), j = 0..63, as one word (bit
  /// j); cells outside the allocated storage read 0.  At most two word
  /// loads and a funnel shift — the word-parallel form of test() for scans
  /// along a row.
  [[nodiscard]] std::uint64_t rowBits(std::int64_t x,
                                      std::int64_t y) const noexcept {
    const std::int64_t rel = tiled_ ? x : x - originX_;
    const std::int64_t k = rel >> 6;  // floor: rel may be negative
    const int shift = static_cast<int>(rel & 63);
    const std::uint64_t lo = alignedRowWord(k, y) >> shift;
    return shift == 0 ? lo : lo | (alignedRowWord(k + 1, y) << (64 - shift));
  }

  /// The words of window row y of the flat backend, y in [originY,
  /// originY + height): word k holds the cells (originX + 64k + j, y) at
  /// bit j — the raw form of rowBits() for whole-window scans.
  [[nodiscard]] std::span<const std::uint64_t> flatRow(
      std::int64_t y) const noexcept {
    SOPS_DASSERT(!tiled_ && y >= originY_ &&
                 y < originY_ + static_cast<std::int64_t>(height_));
    return {words_.data() +
                static_cast<std::size_t>(y - originY_) * strideWords_,
            strideWords_};
  }

  /// Sets the bit for p.  Flat precondition: covers(p).  Tiled: allocates
  /// p's tile on demand (so may throw on the tile cap — never reachable
  /// from a sharded parallel phase, which writes only inside tiles
  /// allocated before it started).
  void set(TriPoint p) {
    if (tiled_) {
      const std::uint32_t slot = ensureTile(tileXOf(p), tileYOf(p));
      const std::uint64_t bit = tileBit(slot, p);
      words_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
      return;
    }
    const auto dx = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(p.x) - originX_);
    const auto dy = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(p.y) - originY_);
    words_[dy * strideWords_ + (dx >> 6)] |= std::uint64_t{1} << (dx & 63);
  }

  /// Clears the bit for p.  Flat precondition: covers(p).  Tiled: a miss
  /// (clearing a cell in an unallocated tile) is a no-op — the bit is
  /// already clear by construction.
  void clear(TriPoint p) noexcept {
    if (tiled_) {
      const std::uint32_t* slot =
          tiles_.find(tileKey(tileXOf(p), tileYOf(p)));
      SOPS_DASSERT(slot != nullptr);
      if (slot == nullptr) return;
      const std::uint64_t bit = tileBit(*slot, p);
      words_[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63));
      return;
    }
    const auto dx = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(p.x) - originX_);
    const auto dy = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(p.y) - originY_);
    words_[dy * strideWords_ + (dx >> 6)] &=
        ~(std::uint64_t{1} << (dx & 63));
  }

  /// An inclusive cell rectangle [minX, maxX] × [minY, maxY].
  struct CellBox {
    std::int64_t minX = 0;
    std::int64_t minY = 0;
    std::int64_t maxX = 0;
    std::int64_t maxY = 0;

    /// The bounding box of `centers` (non-empty), widened by `depth`.
    [[nodiscard]] static CellBox around(std::span<const TriPoint> centers,
                                        std::int64_t depth) noexcept;
  };

  /// Reallocates the backend to cover every point and sets exactly the
  /// given points.  Small bounding boxes get the flat window (baseMargin
  /// plus a quarter of the bounding-box span of spare cells on each side,
  /// so a drifting configuration triggers only O(log drift) rebuilds, with
  /// the origin column rounded down to a multiple of 64).  A non-null
  /// `cover` joins the bounding box, so the window also spans that
  /// rectangle.  Boxes whose flat window would exceed kMaxWords promote to
  /// the tiled backend (margin baseMargin, `cover` not allocated) instead
  /// of failing.  Returns false (and disables the grid) only when points
  /// is empty.
  bool rebuild(std::span<const TriPoint> points, std::int64_t baseMargin,
               const CellBox* cover = nullptr);

  /// Forces the tiled backend regardless of bounding-box size: allocates
  /// every tile intersecting the box [p ± margin] of each point and sets
  /// exactly the given points.  rebuild() calls this past the flat cap;
  /// tests call it directly to exercise the tiled path on small systems.
  void rebuildTiled(std::span<const TriPoint> points, std::int64_t margin);

  /// Reallocates the flat window with the EXACT geometry given and sets
  /// exactly the given points.  Snapshot restore uses this instead of
  /// rebuild(): a resumed run must reproduce the snapshotted window
  /// verbatim — rebuild()'s proportional margin would re-derive a
  /// different (history-dependent) one, and with it a different sequence
  /// of later regrows.  Throws
  /// when the window exceeds kMaxWords or a point violates the
  /// interior-margin invariant the geometry is supposed to carry.
  void rebuildExact(std::span<const TriPoint> points, std::int64_t originX,
                    std::int64_t originY, std::uint64_t width,
                    std::uint64_t height);

  /// Tiled analogue of rebuildExact: rebuilds the tiled backend with
  /// EXACTLY the given tile directory (the directory only grows, so it is
  /// a function of the run's history, not of the points; resume must
  /// reproduce it verbatim so that later snapshots match an uninterrupted
  /// run's) and sets exactly the given points.  Throws on duplicate keys,
  /// on the tile cap, or when a point violates the interior invariant
  /// under the given directory.
  void rebuildTiledExact(std::span<const TriPoint> points,
                         std::span<const std::uint64_t> tileKeys);

  /// Tiled only: allocates every tile intersecting [p ± margin].  The
  /// callers' escape hatch — when a particle moves toward unallocated
  /// territory, one ensureRegion() call restores its interior invariant
  /// without touching the rest of the directory (the tiled backend never
  /// rebuilds from scratch; it only grows).
  void ensureRegion(TriPoint p, std::int64_t margin);

  /// Tiled only: allocates (at least) every tile `other` has — used by
  /// shadow/id planes to follow the occupancy grid's growth incrementally,
  /// keeping plane directories a superset of the grid's.
  void ensureTilesOf(const BitGrid& other);

  /// Allocates an all-clear grid with the exact geometry of `other`: the
  /// flat window (origin, width, height, stride) or the tiled directory
  /// (same tiles, same slots).  Grids built this way answer unchecked
  /// queries under the same interior-margin invariant as `other` — the
  /// amoebot layer keeps its occupancy/head/expanded planes aligned so one
  /// bit-index computation serves all three.  Precondition:
  /// other.enabled().
  void allocateLike(const BitGrid& other);

  /// Releases all storage; enabled() becomes false.
  void disable() noexcept;

  /// The allocated tile keys in ascending key order — a deterministic
  /// enumeration for serialization (FlatMap64 iteration order is
  /// unspecified), so snapshot bytes are a pure function of the directory
  /// contents.
  [[nodiscard]] std::vector<std::uint64_t> sortedTileKeys() const;

  /// Lowers the tile cap for this instance so cap-overflow tests do not
  /// have to allocate 2 GiB.  Test-only.
  void setMaxTilesForTest(std::uint32_t cap) noexcept { maxTiles_ = cap; }

  [[nodiscard]] std::size_t wordCount() const noexcept { return words_.size(); }
  [[nodiscard]] std::int64_t originX() const noexcept { return originX_; }
  [[nodiscard]] std::int64_t originY() const noexcept { return originY_; }
  [[nodiscard]] std::uint64_t width() const noexcept { return width_; }
  [[nodiscard]] std::uint64_t height() const noexcept { return height_; }

 private:
  std::vector<std::uint64_t> words_;
  /// In tiled mode the origin/width/height describe the bounding box of
  /// the allocated tiles in cells (tile-aligned, hence 64-aligned) — the
  /// block executor derives its block coordinates from originX() exactly
  /// as in flat mode.  strideWords_ is 0 (rows are not
  /// globally contiguous).
  std::int64_t originX_ = 0;
  std::int64_t originY_ = 0;
  std::uint64_t width_ = 0;    // cells per row
  std::uint64_t height_ = 0;   // rows
  std::uint64_t strideWords_ = 0;
  bool tiled_ = false;
  std::uint64_t geometryVersion_ = 0;
  std::uint32_t maxTiles_ = kMaxTiles;
  /// tileKey(tx, ty) -> tile slot; tile slot t owns words_[t*kTileWords,
  /// (t+1)*kTileWords).
  util::FlatMap64<std::uint32_t> tiles_;
  /// Allocated-tile bounding box, in tile units (valid while tiled_ and
  /// tiles_ nonempty).
  std::int64_t tileMinX_ = 0;
  std::int64_t tileMaxX_ = 0;
  std::int64_t tileMinY_ = 0;
  std::int64_t tileMaxY_ = 0;
  /// Bit-index deltas of the 8 ring cells per direction, valid for the
  /// current row stride (flat: strideWords_*64 bits; tiled: kTileWidth):
  /// delta = offset.y * strideBits + offset.x.
  std::int64_t ringDeltas_[lattice::kNumDirections][lattice::kEdgeRingSize] =
      {};
  /// Bit-index deltas of the 6 neighbor cells, same convention.
  std::int64_t neighborDeltas_[lattice::kNumDirections] = {};

  /// A seam mask query — one whose reach crosses a tile edge — touches at
  /// most the 2×2 block of tiles covering [c ± reach].  Resolving those ≤4
  /// directory slots once, instead of one find() per gathered cell, is
  /// what keeps seam gathers within ~2× of the interior fast path: a
  /// straight line at y = 0 sits on a tile-row boundary for its whole
  /// length (tiles are absolutely anchored), so without this the dominant
  /// shape of the tiled regime would pay ~10 directory probes per mask —
  /// the speed of a hash-probe gather.
  struct SeamBlock {
    std::int64_t tx0 = 0;  // top-left tile of the 2×2 block
    std::int64_t ty0 = 0;
    std::uint64_t base[2][2] = {};  // word-bit tile bases; kNoTile if absent
  };
  static constexpr std::uint64_t kNoTile = ~std::uint64_t{0};

  [[nodiscard]] SeamBlock resolveSeamBlock(TriPoint c,
                                           std::int64_t reach) const noexcept {
    SeamBlock b;
    const auto x = static_cast<std::int64_t>(c.x);
    const auto y = static_cast<std::int64_t>(c.y);
    b.tx0 = (x - reach) >> kTileShiftX;
    b.ty0 = (y - reach) >> kTileShiftY;
    const std::int64_t tx1 = (x + reach) >> kTileShiftX;
    const std::int64_t ty1 = (y + reach) >> kTileShiftY;
    for (int by = 0; by < 2; ++by) {
      for (int bx = 0; bx < 2; ++bx) {
        const std::int64_t tx = b.tx0 + bx;
        const std::int64_t ty = b.ty0 + by;
        if (tx > tx1 || ty > ty1) {
          b.base[by][bx] = kNoTile;
          continue;
        }
        const std::uint32_t* slot = tiles_.find(tileKey(tx, ty));
        b.base[by][bx] = slot != nullptr
                             ? static_cast<std::uint64_t>(*slot) * kTileBits
                             : kNoTile;
      }
    }
    return b;
  }

  /// Occupancy of q against a resolved SeamBlock.  Precondition: q lies
  /// within the block's 2×2 tile footprint (guaranteed when q is within
  /// `reach` of the block's center).  A cell in an unallocated tile reads
  /// unoccupied, matching test().
  [[nodiscard]] bool seamTest(const SeamBlock& b, TriPoint q) const noexcept {
    const auto x = static_cast<std::int64_t>(q.x);
    const auto y = static_cast<std::int64_t>(q.y);
    const int bx = (x >> kTileShiftX) != b.tx0;
    const int by = (y >> kTileShiftY) != b.ty0;
    const std::uint64_t base = b.base[by][bx];
    if (base == kNoTile) return false;
    const std::uint64_t bit =
        base + static_cast<std::uint64_t>((y & (kTileHeight - 1)) * kTileWidth +
                                          (x & (kTileWidth - 1)));
    return (words_[bit >> 6] >> (bit & 63)) & 1u;
  }

  [[nodiscard]] static std::uint64_t tileBit(std::uint32_t slot,
                                             TriPoint p) noexcept {
    const std::int64_t inX = static_cast<std::int64_t>(p.x) & (kTileWidth - 1);
    const std::int64_t inY =
        static_cast<std::int64_t>(p.y) & (kTileHeight - 1);
    return static_cast<std::uint64_t>(slot) * kTileBits +
           static_cast<std::uint64_t>(inY * kTileWidth + inX);
  }

  /// Word k of row y: cells [64k, 64k + 64) relative to the window origin
  /// (flat) or in absolute columns (tiled); 0 outside the storage.
  [[nodiscard]] std::uint64_t alignedRowWord(std::int64_t k,
                                             std::int64_t y) const noexcept {
    if (tiled_) {
      const std::int64_t x = k * 64;
      const std::uint32_t* slot =
          tiles_.find(tileKey(x >> kTileShiftX, y >> kTileShiftY));
      if (slot == nullptr) return 0;
      return words_[static_cast<std::size_t>(*slot) * kTileWords +
                    static_cast<std::size_t>(y & (kTileHeight - 1)) *
                        kTileRowWords +
                    static_cast<std::size_t>((x & (kTileWidth - 1)) >> 6)];
    }
    const std::int64_t row = y - originY_;
    if (row < 0 || row >= static_cast<std::int64_t>(height_) || k < 0 ||
        k >= static_cast<std::int64_t>(strideWords_)) {
      return 0;
    }
    return words_[static_cast<std::size_t>(row) * strideWords_ +
                  static_cast<std::size_t>(k)];
  }

  [[nodiscard]] std::uint8_t gatherRing(std::uint64_t base,
                                        int dirIndex) const noexcept {
    const std::int64_t* deltas = ringDeltas_[dirIndex];
    std::uint32_t mask = 0;
    for (int idx = 0; idx < lattice::kEdgeRingSize; ++idx) {
      const std::uint64_t bit = base + static_cast<std::uint64_t>(deltas[idx]);
      mask |= static_cast<std::uint32_t>((words_[bit >> 6] >> (bit & 63)) & 1u)
              << idx;
    }
    return static_cast<std::uint8_t>(mask);
  }

  [[nodiscard]] std::uint8_t gatherNeighbors(
      std::uint64_t base) const noexcept {
    std::uint32_t mask = 0;
    for (int idx = 0; idx < lattice::kNumDirections; ++idx) {
      const std::uint64_t bit =
          base + static_cast<std::uint64_t>(neighborDeltas_[idx]);
      mask |= static_cast<std::uint32_t>((words_[bit >> 6] >> (bit & 63)) & 1u)
              << idx;
    }
    return static_cast<std::uint8_t>(mask);
  }

  /// Allocates (or finds) tile (tx, ty); returns its slot.  Throws with
  /// the cap and the fix once the directory reaches maxTiles_.
  std::uint32_t ensureTile(std::int64_t tx, std::int64_t ty);

  /// Resets to an empty tiled backend (no tiles yet) with tiled deltas.
  void enterTiled();

  void computeDeltas(std::int64_t strideBits) noexcept;
};

}  // namespace sops::system

#endif  // SOPS_SYSTEM_BIT_GRID_HPP

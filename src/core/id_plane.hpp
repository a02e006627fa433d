#ifndef SOPS_CORE_ID_PLANE_HPP
#define SOPS_CORE_ID_PLANE_HPP

/// \file id_plane.hpp
/// Dense cell → particle-id plane, aligned with a ParticleSystem's
/// occupancy grid.
///
/// The separation scenario's auxiliary move needs the *identity* of the
/// swap partner — the one query on the engine's accept path that still
/// went through the hash index.  This plane answers it with a single
/// array load: one u32 per cell, kept in lockstep with the engine's
/// accepted moves (BiasedChainEngine::step maintains it for models that
/// declare kNeedsPartnerIds).
///
/// Two modes, selected by sync() from the grid's shape:
///
///   Flat   — one contiguous u32 mirror of a flat occupancy window whose
///            area fits kMaxCells: exactly the pre-tiled fast path.
///   Paged  — for tiled grids and for flat windows past kMaxCells: 128×32
///            u32 pages (16 KiB) allocated on first touch, keyed by page
///            coordinate in an open-addressing directory, absolutely
///            anchored (page (px, py) always covers cells [px·128,
///            (px+1)·128) × [py·32, (py+1)·32)).  Because pages key
///            absolute coordinates, the plane's content stays valid when
///            the grid grows — no O(n) rebuild per window event, which is
///            what used to force the sharded runner back to sequential
///            epochs past kMaxCells.
///
/// Before the first sync() (and after invalidate()) the plane is Inactive:
/// tracksMoves() is false, so callers sync() or use particleAt().
///
/// Paged-mode invariant: every particle's current position has its page
/// allocated and holding its id (the initial build allocates a
/// kPageMargin-box around every particle; move() re-establishes it by
/// allocating around any target that lands on a missing page — reachable
/// only from sequential contexts, since the sharded chain runner reserves
/// every page a block can touch (reserveNear) before its parallel phase).

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lattice/tri_point.hpp"
#include "system/particle_system.hpp"
#include "system/snapshot.hpp"
#include "util/assert.hpp"
#include "util/flat_hash.hpp"

namespace sops::core {

using lattice::TriPoint;

class ParticleIdPlane {
 public:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  /// Flat-mirror size cap: 2^24 cells = 64 MiB of ids.  Windows past this
  /// (and all tiled grids) use the paged mode instead of deactivating.
  static constexpr std::uint64_t kMaxCells = std::uint64_t{1} << 24;

  // --- paged-mode geometry (absolutely anchored) ---
  static constexpr int kPageShiftX = 7;  ///< pages are 128 cells wide
  static constexpr int kPageShiftY = 5;  ///< ...and 32 rows tall
  static constexpr std::int64_t kPageWidth = std::int64_t{1} << kPageShiftX;
  static constexpr std::int64_t kPageHeight = std::int64_t{1} << kPageShiftY;
  /// 128×32 u32 = 16 KiB per page.
  static constexpr std::size_t kPageCells =
      static_cast<std::size_t>(kPageWidth) *
      static_cast<std::size_t>(kPageHeight);
  /// Page-directory cap: 2^17 pages × 16 KiB = 2 GiB of ids; exceeding it
  /// throws with the fix in the message, like BitGrid::kMaxTiles.
  static constexpr std::uint32_t kMaxPages = 1u << 17;
  /// Pages are allocated this many cells around a particle (initial build
  /// and fresh-page moves), so a particle satisfies coversNear(pos, 1)
  /// until it drifts a few pages.
  static constexpr std::int64_t kPageMargin = 4;

  enum class Mode : std::uint8_t { Inactive = 0, Flat = 1, Paged = 2 };

  [[nodiscard]] Mode mode() const noexcept { return mode_; }

  /// True when the plane is a Flat mirror of `grid` exactly — the licence
  /// for idAtUnchecked()/move() in Flat mode.
  [[nodiscard]] bool syncedWith(const system::BitGrid& grid) const noexcept {
    return mode_ == Mode::Flat && grid.enabled() && !grid.tiled() &&
           grid.geometryVersion() == gridVersion_ &&
           grid.originX() == originX_ && grid.originY() == originY_ &&
           grid.width() == width_ && grid.height() == height_;
  }

  /// True when the plane tracks accepted moves incrementally — the licence
  /// for idAtUnchecked()/move() in either dense mode.  False means callers
  /// must sync() (sequential contexts) or fall back to particleAt.
  [[nodiscard]] bool tracksMoves(const system::BitGrid& grid) const noexcept {
    if (mode_ == Mode::Flat) return syncedWith(grid);
    return mode_ == Mode::Paged && pagedValid_;
  }

  /// Ensures the plane mirrors sys.grid().  Flat windows past kMaxCells
  /// and tiled grids build the paged mode; a valid paged plane is a no-op
  /// here (its absolute-keyed content survives grid growth).
  void sync(const system::ParticleSystem& sys) {
    const system::BitGrid& grid = sys.grid();
    if (!grid.tiled() && grid.width() * grid.height() <= kMaxCells) {
      if (!syncedWith(grid)) buildFlat(sys, grid);
      return;
    }
    if (mode_ == Mode::Paged && pagedValid_) return;
    buildPaged(sys);
  }

  /// Forces the next sync() to rebuild from scratch.  Required after the
  /// particle system is replaced wholesale (snapshot restore): the new
  /// geometry can coincide with the old fingerprint while every id is
  /// stale — geometry alone cannot detect that.
  void invalidate() noexcept {
    mode_ = Mode::Inactive;
    pagedValid_ = false;
    ids_.clear();
    pages_.clear();
  }

  /// True iff every cell in [p ± depth] is backed by the plane: always in
  /// Flat mode (the mirror spans the whole window), page-directory probes
  /// in Paged mode.  The sharded chain runner checks it before a block's
  /// parallel phase, so concurrent proposals never touch a missing page.
  [[nodiscard]] bool coversNear(TriPoint p, std::int64_t depth) const noexcept {
    if (mode_ == Mode::Flat) return true;
    if (mode_ != Mode::Paged || !pagedValid_) return false;
    const auto x = static_cast<std::int64_t>(p.x);
    const auto y = static_cast<std::int64_t>(p.y);
    const std::int64_t px0 = (x - depth) >> kPageShiftX;
    const std::int64_t px1 = (x + depth) >> kPageShiftX;
    const std::int64_t py0 = (y - depth) >> kPageShiftY;
    const std::int64_t py1 = (y + depth) >> kPageShiftY;
    for (std::int64_t py = py0; py <= py1; ++py) {
      for (std::int64_t px = px0; px <= px1; ++px) {
        if (!pages_.contains(pageKey(px, py))) return false;
      }
    }
    return true;
  }

  /// Paged mode: allocates every page within `depth` of each center, so
  /// coversNear(c, depth) holds afterwards (a no-op in the other modes,
  /// where coversNear is already total or meaningless).  The sharded chain
  /// runner calls this between parallel phases.
  void reserveNear(std::span<const TriPoint> centers, std::int64_t depth) {
    if (mode_ != Mode::Paged || !pagedValid_) return;
    for (const TriPoint c : centers) ensurePagesAround(c, depth);
  }

  /// Relocates `particle` from `from` to `to`.  Precondition: tracksMoves.
  /// In Paged mode a target on a missing page allocates a kPageMargin
  /// neighborhood around it — only reachable from sequential contexts (the
  /// sharded chain runner reserves pages before its parallel phases).
  void move(TriPoint from, TriPoint to, std::size_t particle) {
    if (mode_ == Mode::Flat) {
      SOPS_DASSERT(ids_[indexOf(from)] ==
                   static_cast<std::uint32_t>(particle));
      ids_[indexOf(from)] = kEmpty;
      ids_[indexOf(to)] = static_cast<std::uint32_t>(particle);
      return;
    }
    SOPS_DASSERT(mode_ == Mode::Paged && pagedValid_);
    const std::uint32_t* fromSlot =
        pages_.find(pageKey(pageXOf(from), pageYOf(from)));
    SOPS_DASSERT(fromSlot != nullptr &&
                 ids_[pageIndex(*fromSlot, from)] ==
                     static_cast<std::uint32_t>(particle));
    ids_[pageIndex(*fromSlot, from)] = kEmpty;
    const std::uint32_t* toSlot =
        pages_.find(pageKey(pageXOf(to), pageYOf(to)));
    if (toSlot == nullptr) {
      ensurePagesAround(to, kPageMargin);
      toSlot = pages_.find(pageKey(pageXOf(to), pageYOf(to)));
    }
    ids_[pageIndex(*toSlot, to)] = static_cast<std::uint32_t>(particle);
  }

  /// Id of the particle at an *occupied* cell.  Precondition: tracksMoves,
  /// and p occupied — in Paged mode an occupied cell's page is allocated
  /// by the every-particle-page invariant.
  [[nodiscard]] std::uint32_t idAtUnchecked(TriPoint p) const noexcept {
    std::uint32_t id = kEmpty;
    if (mode_ == Mode::Flat) {
      id = ids_[indexOf(p)];
    } else {
      const std::uint32_t* slot =
          pages_.find(pageKey(pageXOf(p), pageYOf(p)));
      SOPS_DASSERT(slot != nullptr);
      if (slot != nullptr) id = ids_[pageIndex(*slot, p)];
    }
    SOPS_DASSERT(id != kEmpty);
    return id;
  }

  [[nodiscard]] std::size_t pageCount() const noexcept {
    return pages_.size();
  }

  /// Lowers the page cap for this instance (cap-overflow tests).
  void setMaxPagesForTest(std::uint32_t cap) noexcept { maxPages_ = cap; }

  /// Serializes the plane's mode and, in Paged mode, the exact page
  /// directory, so a restored plane is the saved one page for page.
  /// Flat/Inactive planes write only a tag — a flat rebuild
  /// from the restored grid is exact.  Ids themselves are never written;
  /// they are rebuilt from particle positions.
  void saveState(system::SnapshotWriter& w) const {
    const bool paged = mode_ == Mode::Paged && pagedValid_;
    w.u8(paged ? static_cast<std::uint8_t>(Mode::Paged)
               : static_cast<std::uint8_t>(Mode::Inactive));
    if (!paged) return;
    std::vector<std::uint64_t> keys;
    keys.reserve(pages_.size());
    pages_.forEach(
        [&keys](std::uint64_t key, std::uint32_t) { keys.push_back(key); });
    std::sort(keys.begin(), keys.end());
    w.u64(keys.size());
    for (const std::uint64_t key : keys) {
      w.i64(pageXOfKey(key));
      w.i64(pageYOfKey(key));
    }
  }

  /// Inverse of saveState.  A Paged tag rebuilds ids from sys's positions
  /// under EXACTLY the serialized directory; any other tag falls back to
  /// invalidate() + sync().
  void restoreState(system::SnapshotReader& r,
                    const system::ParticleSystem& sys) {
    const std::uint8_t tag = r.u8();
    if (tag != static_cast<std::uint8_t>(Mode::Paged)) {
      SOPS_REQUIRE(tag == static_cast<std::uint8_t>(Mode::Inactive),
                   "snapshot: bad id-plane mode tag");
      invalidate();
      sync(sys);
      return;
    }
    invalidate();
    mode_ = Mode::Paged;
    const std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::int64_t px = r.i64();
      const std::int64_t py = r.i64();
      SOPS_REQUIRE(!pages_.contains(pageKey(px, py)),
                   "snapshot: duplicate id-plane page");
      ensurePage(px, py);
    }
    for (std::size_t i = 0; i < sys.size(); ++i) {
      const TriPoint p = sys.position(i);
      const std::uint32_t* slot =
          pages_.find(pageKey(pageXOf(p), pageYOf(p)));
      SOPS_REQUIRE(slot != nullptr,
                   "snapshot: id-plane directory misses a particle's page");
      ids_[pageIndex(*slot, p)] = static_cast<std::uint32_t>(i);
    }
    pagedValid_ = true;
  }

 private:
  [[nodiscard]] static constexpr std::int64_t pageXOf(TriPoint p) noexcept {
    return static_cast<std::int64_t>(p.x) >> kPageShiftX;
  }
  [[nodiscard]] static constexpr std::int64_t pageYOf(TriPoint p) noexcept {
    return static_cast<std::int64_t>(p.y) >> kPageShiftY;
  }
  [[nodiscard]] static constexpr std::uint64_t pageKey(
      std::int64_t px, std::int64_t py) noexcept {
    return (static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(static_cast<std::int32_t>(px)))
            << 32) |
           static_cast<std::uint32_t>(static_cast<std::int32_t>(py));
  }
  [[nodiscard]] static constexpr std::int64_t pageXOfKey(
      std::uint64_t key) noexcept {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(key >> 32));
  }
  [[nodiscard]] static constexpr std::int64_t pageYOfKey(
      std::uint64_t key) noexcept {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(key));
  }

  [[nodiscard]] static std::size_t pageIndex(std::uint32_t slot,
                                             TriPoint p) noexcept {
    const std::int64_t inX =
        static_cast<std::int64_t>(p.x) & (kPageWidth - 1);
    const std::int64_t inY =
        static_cast<std::int64_t>(p.y) & (kPageHeight - 1);
    return static_cast<std::size_t>(slot) * kPageCells +
           static_cast<std::size_t>(inY * kPageWidth + inX);
  }

  [[nodiscard]] std::size_t indexOf(TriPoint p) const noexcept {
    const auto dx = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(p.x) - originX_);
    const auto dy = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(p.y) - originY_);
    SOPS_DASSERT(dx < width_ && dy < height_);
    return static_cast<std::size_t>(dy * width_ + dx);
  }

  void buildFlat(const system::ParticleSystem& sys,
                 const system::BitGrid& grid) {
    pages_.clear();
    pagedValid_ = false;
    originX_ = grid.originX();
    originY_ = grid.originY();
    width_ = grid.width();
    height_ = grid.height();
    gridVersion_ = grid.geometryVersion();
    ids_.assign(static_cast<std::size_t>(width_ * height_), kEmpty);
    for (std::size_t i = 0; i < sys.size(); ++i) {
      ids_[indexOf(sys.position(i))] = static_cast<std::uint32_t>(i);
    }
    mode_ = Mode::Flat;
  }

  void buildPaged(const system::ParticleSystem& sys) {
    mode_ = Mode::Paged;
    pagedValid_ = false;
    pages_.clear();
    ids_.clear();
    for (std::size_t i = 0; i < sys.size(); ++i) {
      ensurePagesAround(sys.position(i), kPageMargin);
    }
    for (std::size_t i = 0; i < sys.size(); ++i) {
      const TriPoint p = sys.position(i);
      const std::uint32_t* slot =
          pages_.find(pageKey(pageXOf(p), pageYOf(p)));
      ids_[pageIndex(*slot, p)] = static_cast<std::uint32_t>(i);
    }
    pagedValid_ = true;
  }

  void ensurePagesAround(TriPoint p, std::int64_t margin) {
    const auto x = static_cast<std::int64_t>(p.x);
    const auto y = static_cast<std::int64_t>(p.y);
    const std::int64_t px0 = (x - margin) >> kPageShiftX;
    const std::int64_t px1 = (x + margin) >> kPageShiftX;
    const std::int64_t py0 = (y - margin) >> kPageShiftY;
    const std::int64_t py1 = (y + margin) >> kPageShiftY;
    for (std::int64_t py = py0; py <= py1; ++py) {
      for (std::int64_t px = px0; px <= px1; ++px) {
        ensurePage(px, py);
      }
    }
  }

  void ensurePage(std::int64_t px, std::int64_t py) {
    const std::uint64_t key = pageKey(px, py);
    if (pages_.contains(key)) return;
    if (pages_.size() >= maxPages_) {
      throw ContractViolation(
          "ParticleIdPlane: page directory reached the cap of " +
          std::to_string(maxPages_) +
          " pages (16 KiB each); this configuration is too spread out for "
          "one id plane — raise ParticleIdPlane::kMaxPages or split the "
          "run into smaller systems");
    }
    const auto slot = static_cast<std::uint32_t>(pages_.size());
    pages_.insert(key, slot);
    ids_.resize(ids_.size() + kPageCells, kEmpty);
  }

  std::vector<std::uint32_t> ids_;
  util::FlatMap64<std::uint32_t> pages_;
  std::int64_t originX_ = 0;
  std::int64_t originY_ = 0;
  std::uint64_t width_ = 0;
  std::uint64_t height_ = 0;
  std::uint64_t gridVersion_ = 0;
  std::uint32_t maxPages_ = kMaxPages;
  Mode mode_ = Mode::Inactive;
  bool pagedValid_ = false;
};

}  // namespace sops::core

#endif  // SOPS_CORE_ID_PLANE_HPP

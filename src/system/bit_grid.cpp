#include "system/bit_grid.hpp"

#include <algorithm>
#include <atomic>
#include <string>

namespace sops::system {

namespace {
/// Every geometry change takes the next value of one process-wide
/// counter, so equal versions mean equal geometry on any two grids.
std::uint64_t nextGeometryVersion() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

BitGrid::CellBox BitGrid::CellBox::around(std::span<const TriPoint> centers,
                                          std::int64_t depth) noexcept {
  CellBox box{centers[0].x, centers[0].y, centers[0].x, centers[0].y};
  for (const TriPoint c : centers) {
    box.minX = std::min<std::int64_t>(box.minX, c.x);
    box.minY = std::min<std::int64_t>(box.minY, c.y);
    box.maxX = std::max<std::int64_t>(box.maxX, c.x);
    box.maxY = std::max<std::int64_t>(box.maxY, c.y);
  }
  return {box.minX - depth, box.minY - depth, box.maxX + depth,
          box.maxY + depth};
}

bool BitGrid::rebuild(std::span<const TriPoint> points,
                      std::int64_t baseMargin, const CellBox* cover) {
  if (points.empty()) {
    disable();
    return false;
  }
  std::int64_t minX = points[0].x, maxX = points[0].x;
  std::int64_t minY = points[0].y, maxY = points[0].y;
  for (const TriPoint p : points) {
    minX = std::min<std::int64_t>(minX, p.x);
    maxX = std::max<std::int64_t>(maxX, p.x);
    minY = std::min<std::int64_t>(minY, p.y);
    maxY = std::max<std::int64_t>(maxY, p.y);
  }
  if (cover != nullptr) {
    minX = std::min(minX, cover->minX);
    maxX = std::max(maxX, cover->maxX);
    minY = std::min(minY, cover->minY);
    maxY = std::max(maxY, cover->maxY);
  }
  const std::int64_t margin =
      baseMargin + std::max(maxX - minX, maxY - minY) / 4;
  // The origin column is rounded down to a multiple of 64, so word
  // boundaries fall on absolute columns — the sharded chain runner's
  // blocks, whose edges are absolute multiples of 64, then never split a
  // word.
  const std::int64_t originX = (minX - margin) & ~std::int64_t{63};
  const std::uint64_t width =
      static_cast<std::uint64_t>(maxX + margin - originX) + 1;
  const std::uint64_t height =
      static_cast<std::uint64_t>(maxY - minY) + 1 + 2 * margin;
  const std::uint64_t strideWords = (width + 63) / 64;
  // Overflow-safe area check against the flat-window cap: too big for one
  // dense window means the configuration promotes to the tiled backend,
  // which allocates only the touched 32 KiB tiles.
  if (height != 0 && strideWords > kMaxWords / height) {
    rebuildTiled(points, std::max<std::int64_t>(baseMargin, kInteriorMargin));
    return true;
  }
  tiled_ = false;
  tiles_.clear();
  originX_ = originX;
  originY_ = minY - margin;
  width_ = width;
  height_ = height;
  strideWords_ = strideWords;
  computeDeltas(static_cast<std::int64_t>(strideWords_ * 64));
  words_.assign(static_cast<std::size_t>(strideWords * height), 0);
  geometryVersion_ = nextGeometryVersion();
  for (const TriPoint p : points) set(p);
  return true;
}

void BitGrid::rebuildTiled(std::span<const TriPoint> points,
                           std::int64_t margin) {
  SOPS_REQUIRE(!points.empty(), "rebuildTiled: no points");
  SOPS_REQUIRE(margin >= kInteriorMargin,
               "rebuildTiled: margin must cover the interior invariant");
  enterTiled();
  for (const TriPoint p : points) ensureRegion(p, margin);
  for (const TriPoint p : points) set(p);
}

void BitGrid::rebuildTiledExact(std::span<const TriPoint> points,
                                std::span<const std::uint64_t> tileKeys) {
  SOPS_REQUIRE(!tileKeys.empty(), "rebuildTiledExact: empty tile directory");
  enterTiled();
  for (const std::uint64_t key : tileKeys) {
    SOPS_REQUIRE(!tiles_.contains(key),
                 "rebuildTiledExact: duplicate tile key");
    ensureTile(tileXOfKey(key), tileYOfKey(key));
  }
  for (const TriPoint p : points) {
    SOPS_REQUIRE(coversInterior(p),
                 "rebuildTiledExact: point violates the interior invariant "
                 "under the given tile directory");
    set(p);
  }
}

void BitGrid::ensureRegion(TriPoint p, std::int64_t margin) {
  SOPS_REQUIRE(tiled_, "ensureRegion: tiled backend only");
  const auto x = static_cast<std::int64_t>(p.x);
  const auto y = static_cast<std::int64_t>(p.y);
  const std::int64_t tx0 = (x - margin) >> kTileShiftX;
  const std::int64_t tx1 = (x + margin) >> kTileShiftX;
  const std::int64_t ty0 = (y - margin) >> kTileShiftY;
  const std::int64_t ty1 = (y + margin) >> kTileShiftY;
  for (std::int64_t ty = ty0; ty <= ty1; ++ty) {
    for (std::int64_t tx = tx0; tx <= tx1; ++tx) {
      ensureTile(tx, ty);
    }
  }
}

void BitGrid::ensureTilesOf(const BitGrid& other) {
  SOPS_REQUIRE(tiled_ && other.tiled_, "ensureTilesOf: tiled backends only");
  other.tiles_.forEach([this](std::uint64_t key, std::uint32_t) {
    ensureTile(tileXOfKey(key), tileYOfKey(key));
  });
}

std::uint32_t BitGrid::ensureTile(std::int64_t tx, std::int64_t ty) {
  SOPS_DASSERT(tiled_);
  const std::uint64_t key = tileKey(tx, ty);
  if (const std::uint32_t* slot = tiles_.find(key)) return *slot;
  if (tiles_.size() >= maxTiles_) {
    throw ContractViolation(
        "BitGrid: tile directory reached the cap of " +
        std::to_string(maxTiles_) +
        " tiles (32 KiB each); this configuration is too spread out for one "
        "grid — raise BitGrid::kMaxTiles or split the run into smaller "
        "systems");
  }
  const auto slot = static_cast<std::uint32_t>(tiles_.size());
  tiles_.insert(key, slot);
  words_.resize(words_.size() + kTileWords, 0);
  if (slot == 0) {
    tileMinX_ = tileMaxX_ = tx;
    tileMinY_ = tileMaxY_ = ty;
  } else {
    tileMinX_ = std::min(tileMinX_, tx);
    tileMaxX_ = std::max(tileMaxX_, tx);
    tileMinY_ = std::min(tileMinY_, ty);
    tileMaxY_ = std::max(tileMaxY_, ty);
  }
  originX_ = tileMinX_ * kTileWidth;
  originY_ = tileMinY_ * kTileHeight;
  width_ = static_cast<std::uint64_t>(tileMaxX_ - tileMinX_ + 1) *
           static_cast<std::uint64_t>(kTileWidth);
  height_ = static_cast<std::uint64_t>(tileMaxY_ - tileMinY_ + 1) *
            static_cast<std::uint64_t>(kTileHeight);
  geometryVersion_ = nextGeometryVersion();
  return slot;
}

void BitGrid::enterTiled() {
  words_.clear();
  tiles_.clear();
  tiled_ = true;
  originX_ = originY_ = 0;
  width_ = height_ = 0;
  strideWords_ = 0;
  computeDeltas(kTileWidth);
  geometryVersion_ = nextGeometryVersion();
}

void BitGrid::rebuildExact(std::span<const TriPoint> points,
                           std::int64_t originX, std::int64_t originY,
                           std::uint64_t width, std::uint64_t height) {
  SOPS_REQUIRE(width > 0 && height > 0, "rebuildExact: empty window");
  const std::uint64_t strideWords = (width + 63) / 64;
  SOPS_REQUIRE(strideWords <= kMaxWords / height,
               "rebuildExact: window exceeds the dense cap");
  tiled_ = false;
  tiles_.clear();
  originX_ = originX;
  originY_ = originY;
  width_ = width;
  height_ = height;
  strideWords_ = strideWords;
  computeDeltas(static_cast<std::int64_t>(strideWords_ * 64));
  words_.assign(static_cast<std::size_t>(strideWords * height), 0);
  geometryVersion_ = nextGeometryVersion();
  for (const TriPoint p : points) {
    SOPS_REQUIRE(coversInterior(p),
                 "rebuildExact: point violates the interior-margin invariant");
    set(p);
  }
}

void BitGrid::computeDeltas(std::int64_t strideBits) noexcept {
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    for (int idx = 0; idx < lattice::kEdgeRingSize; ++idx) {
      const TriPoint off = lattice::kEdgeRingOffsets[d][idx];
      ringDeltas_[d][idx] = off.y * strideBits + off.x;
    }
    const TriPoint noff = lattice::offset(lattice::directionFromIndex(d));
    neighborDeltas_[d] = noff.y * strideBits + noff.x;
  }
}

void BitGrid::allocateLike(const BitGrid& other) {
  SOPS_REQUIRE(other.enabled(), "allocateLike: source grid not enabled");
  tiled_ = other.tiled_;
  tiles_ = other.tiles_;  // identical keys AND slots: word layouts align
  tileMinX_ = other.tileMinX_;
  tileMaxX_ = other.tileMaxX_;
  tileMinY_ = other.tileMinY_;
  tileMaxY_ = other.tileMaxY_;
  originX_ = other.originX_;
  originY_ = other.originY_;
  width_ = other.width_;
  height_ = other.height_;
  strideWords_ = other.strideWords_;
  computeDeltas(tiled_ ? kTileWidth
                       : static_cast<std::int64_t>(strideWords_ * 64));
  words_.assign(other.words_.size(), 0);
  geometryVersion_ = nextGeometryVersion();
}

void BitGrid::disable() noexcept {
  words_.clear();
  words_.shrink_to_fit();
  tiles_.clear();
  tiled_ = false;
  originX_ = originY_ = 0;
  width_ = height_ = strideWords_ = 0;
  geometryVersion_ = nextGeometryVersion();
}

std::vector<std::uint64_t> BitGrid::sortedTileKeys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(tiles_.size());
  tiles_.forEach(
      [&keys](std::uint64_t key, std::uint32_t) { keys.push_back(key); });
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace sops::system

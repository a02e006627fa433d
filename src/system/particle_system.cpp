#include "system/particle_system.hpp"

namespace sops::system {

namespace {
/// Base margin around the bounding box when (re)building the dense window
/// (BitGrid::rebuild adds span/4 proportional headroom on top).
constexpr std::int64_t kGridBaseMargin = 32;
/// Tile headroom allocated around a particle that escapes the interior of
/// a tiled grid: > kInteriorMargin + 1 so one ensureRegion() buys several
/// further moves in the same direction before the next directory touch.
constexpr std::int64_t kGridEnsureMargin = 8;
}  // namespace

void ParticleSystem::regrowGrid() {
  if (positions_.empty()) {
    grid_.disable();
    return;
  }
  // rebuild() promotes oversized bounding boxes to the tiled backend, so
  // it only fails (false) on an empty point set — excluded above.
  const bool built = grid_.rebuild(positions_, kGridBaseMargin);
  SOPS_DASSERT(built);
  (void)built;
}

ParticleSystem::ParticleSystem(std::span<const TriPoint> points)
    : index_(points.size()) {
  positions_.reserve(points.size());
  for (const TriPoint p : points) {
    const bool fresh = index_.insert(
        lattice::pack(p), static_cast<std::int32_t>(positions_.size()));
    SOPS_REQUIRE(fresh, "duplicate particle position");
    positions_.push_back(p);
  }
  regrowGrid();
}

void ParticleSystem::suspendIndex() { indexSuspended_ = true; }

void ParticleSystem::restoreIndex() {
  if (!indexSuspended_) return;
  indexSuspended_ = false;
  index_.clear();
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const bool fresh = index_.insert(lattice::pack(positions_[i]),
                                     static_cast<std::int32_t>(i));
    SOPS_DASSERT(fresh);
    (void)fresh;
  }
}

void ParticleSystem::reserveInterior(std::span<const TriPoint> centers,
                                     std::int64_t depth) {
  if (positions_.empty() || centers.empty()) return;
  if (!grid_.tiled()) {
    const BitGrid::CellBox box = BitGrid::CellBox::around(centers, depth);
    grid_.rebuild(positions_, kGridBaseMargin, &box);
    if (!grid_.tiled()) return;
  }
  for (const TriPoint c : centers) grid_.ensureRegion(c, depth);
}

std::size_t ParticleSystem::add(TriPoint p) {
  SOPS_REQUIRE(!indexSuspended_, "add() while the id index is suspended");
  const bool fresh =
      index_.insert(lattice::pack(p),
                    static_cast<std::int32_t>(positions_.size()));
  SOPS_REQUIRE(fresh, "add() target already occupied");
  positions_.push_back(p);
  if (grid_.coversInterior(p)) {
    grid_.set(p);
  } else if (grid_.tiled()) {
    // A tiled grid never rebuilds from scratch: grow the directory around
    // the new particle and set its bit.
    grid_.ensureRegion(p, kGridEnsureMargin);
    grid_.set(p);
  } else {
    regrowGrid();
  }
  return positions_.size() - 1;
}

void ParticleSystem::remove(std::size_t particle) {
  SOPS_REQUIRE(!indexSuspended_, "remove() while the id index is suspended");
  SOPS_REQUIRE(particle < positions_.size(), "remove(): bad particle id");
  const TriPoint p = positions_[particle];
  index_.erase(lattice::pack(p));
  grid_.clear(p);
  const std::size_t last = positions_.size() - 1;
  if (particle != last) {
    positions_[particle] = positions_[last];
    index_.insertOrAssign(lattice::pack(positions_[particle]),
                          static_cast<std::int32_t>(particle));
  }
  positions_.pop_back();
}

void ParticleSystem::moveParticle(std::size_t particle, TriPoint to) {
  SOPS_REQUIRE(particle < positions_.size(), "moveParticle(): bad particle id");
  const TriPoint from = positions_[particle];
  if (from == to) return;
  SOPS_REQUIRE(!occupied(to), "moveParticle(): target occupied");
  if (!indexSuspended_) {
    index_.erase(lattice::pack(from));
    index_.insert(lattice::pack(to), static_cast<std::int32_t>(particle));
  }
  positions_[particle] = to;
  // Regrow as soon as a particle reaches the 2-cell interior margin, so
  // ring/target queries around any particle stay safely in-window for
  // occupiedNear()'s unchecked word load.
  if (grid_.coversInterior(to)) {
    grid_.clear(from);
    grid_.set(to);
  } else if (grid_.tiled()) {
    // A tiled grid only ever grows: allocating the few tiles around the
    // escape restores the interior invariant without re-deriving any
    // geometry, so shadow/id planes stay incrementally valid.  Never
    // reached from a parallel phase: the block executor checks each
    // block's reach against the storage first and grows it between
    // phases (reserveInterior).
    grid_.ensureRegion(to, kGridEnsureMargin);
    grid_.clear(from);
    grid_.set(to);
  } else {
    regrowGrid();  // positions_ already reflects the move
  }
  SOPS_DASSERT(grid_.test(to));
  SOPS_DASSERT(!grid_.test(from));
}

std::size_t ParticleSystem::commitMove(TriPoint from, TriPoint to) {
  SOPS_REQUIRE(!indexSuspended_, "commitMove() while the id index is suspended");
  const std::int32_t* id = index_.find(lattice::pack(from));
  SOPS_REQUIRE(id != nullptr, "commitMove(): no particle at the source cell");
  const auto particle = static_cast<std::size_t>(*id);
  index_.erase(lattice::pack(from));
  index_.insert(lattice::pack(to), static_cast<std::int32_t>(particle));
  positions_[particle] = to;
  SOPS_DASSERT(grid_.test(to));
  return particle;
}

void ParticleSystem::restoreWindowGeometry(std::int64_t originX,
                                           std::int64_t originY,
                                           std::uint64_t width,
                                           std::uint64_t height) {
  SOPS_REQUIRE(!indexSuspended_,
               "restoreWindowGeometry() while the id index is suspended");
  grid_.rebuildExact(positions_, originX, originY, width, height);
}

void ParticleSystem::restoreTiledGeometry(
    std::span<const std::uint64_t> tileKeys) {
  SOPS_REQUIRE(!indexSuspended_,
               "restoreTiledGeometry() while the id index is suspended");
  grid_.rebuildTiledExact(positions_, tileKeys);
}

void ParticleSystem::forceTiledForTest() {
  SOPS_REQUIRE(!indexSuspended_,
               "forceTiledForTest() while the id index is suspended");
  SOPS_REQUIRE(!positions_.empty(), "forceTiledForTest() needs particles");
  grid_.rebuildTiled(positions_, kGridBaseMargin);
}

bool ParticleSystem::sameArrangement(const ParticleSystem& other) const {
  if (size() != other.size()) return false;
  for (const TriPoint p : positions_) {
    if (!other.occupied(p)) return false;
  }
  return true;
}

}  // namespace sops::system

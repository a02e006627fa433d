#include "amoebot/amoebot_system.hpp"

namespace sops::amoebot {

namespace {
/// Base window margin, matching ParticleSystem's dense-window policy
/// (BitGrid::rebuild adds span/4 proportional headroom on top).
constexpr std::int64_t kPlaneBaseMargin = 32;
/// Tile headroom allocated around a cell that escapes the interior of a
/// tiled plane: > kInteriorMargin + 1 so one ensureRegion() buys several
/// further expansions in the same direction before the next directory
/// touch (mirrors ParticleSystem's policy).
constexpr std::int64_t kPlaneEnsureMargin = 8;

/// Every occupied cell: each particle's tail, and the head of each
/// expanded one.
std::vector<TriPoint> cellsOf(const std::vector<Particle>& particles) {
  std::size_t expanded = 0;
  for (const Particle& p : particles) expanded += p.expanded ? 1 : 0;
  std::vector<TriPoint> cells;
  cells.reserve(particles.size() + expanded);
  for (const Particle& p : particles) {
    cells.push_back(p.tail);
    if (p.expanded) cells.push_back(p.head);
  }
  return cells;
}
}  // namespace

AmoebotSystem::AmoebotSystem(const system::ParticleSystem& initial,
                             rng::Random& rng)
    : tailIds_(initial.size()), idIndexDirty_(true) {
  SOPS_REQUIRE(initial.size() > 0, "AmoebotSystem requires particles");
  particles_.reserve(initial.size());
  for (std::size_t id = 0; id < initial.size(); ++id) {
    Particle p;
    p.tail = initial.position(id);
    p.head = p.tail;
    p.orientationOffset = static_cast<std::uint8_t>(rng.below(6));
    p.mirrored = rng.bernoulli(0.5);
    particles_.push_back(p);
  }
  regrowPlanes();
}

void AmoebotSystem::rebuildExpansionPlanes() {
  heads_.allocateLike(occ_);
  expanded_.allocateLike(occ_);
  faulty_.allocateLike(occ_);
  for (const Particle& p : particles_) {
    if (p.crashed || p.byzantine) faulty_.set(p.tail);
    if (!p.expanded) continue;
    heads_.set(p.head);
    expanded_.set(p.tail);
    expanded_.set(p.head);
  }
}

void AmoebotSystem::regrowPlanes(const system::BitGrid::CellBox* cover) {
  // rebuild() promotes oversized bounding boxes to the tiled backend, so
  // it only fails on an empty cell set — excluded by the constructor.
  const bool built = occ_.rebuild(cellsOf(particles_), kPlaneBaseMargin, cover);
  SOPS_DASSERT(built);
  (void)built;
  rebuildExpansionPlanes();
}

void AmoebotSystem::reserveInterior(std::span<const TriPoint> centers,
                                    std::int64_t depth) {
  if (centers.empty()) return;
  if (!occ_.tiled()) {
    const system::BitGrid::CellBox box =
        system::BitGrid::CellBox::around(centers, depth);
    regrowPlanes(&box);
    if (!occ_.tiled()) return;
  }
  for (const TriPoint c : centers) occ_.ensureRegion(c, depth);
  heads_.ensureTilesOf(occ_);
  expanded_.ensureTilesOf(occ_);
  faulty_.ensureTilesOf(occ_);
}

void AmoebotSystem::recountExpanded() {
  std::size_t count = 0;
  for (const Particle& p : particles_) {
    if (p.expanded) ++count;
  }
  expandedCount_ = count;
}

void AmoebotSystem::rebuildIdIndex() const {
  tailIds_.clear();
  tailIds_.reserve(particles_.size());
  for (std::size_t id = 0; id < particles_.size(); ++id) {
    tailIds_.insertOrAssign(lattice::pack(particles_[id].tail),
                            static_cast<std::int32_t>(id));
  }
  idIndexDirty_ = false;
}

void AmoebotSystem::suspendIdIndex() { sharded_ = true; }

void AmoebotSystem::restoreIdIndex() {
  if (!sharded_) return;
  sharded_ = false;
  // The hash refresh stays lazy (at() rebuilds on demand) — a sharded
  // burst between samples should not pay O(n) hash work nobody reads.
  idIndexDirty_ = true;
  recountExpanded();
}

void AmoebotSystem::freezeIdIndex() {
  restoreIdIndex();
  if (idIndexDirty_) rebuildIdIndex();
  sharded_ = true;
}

void AmoebotSystem::moveTailId(std::size_t id, TriPoint from, TriPoint to) {
  const bool removed = tailIds_.erase(lattice::pack(from));
  SOPS_REQUIRE(removed, "moveTailId: tail missing from the id index");
  setTail(to, id);
}

void AmoebotSystem::thawIdIndex(std::int64_t expandedDelta) {
  sharded_ = false;
  expandedCount_ = static_cast<std::size_t>(
      static_cast<std::int64_t>(expandedCount_) + expandedDelta);
}

AmoebotSystem::CellView AmoebotSystem::at(TriPoint cell) const {
  SOPS_DASSERT(!sharded_);
  if (idIndexDirty_) rebuildIdIndex();
  if (heads_.test(cell)) {
    // Heads are not indexed: the particle whose head this is has its
    // tail on a neighbouring cell.
    for (const Direction d : lattice::kAllDirections) {
      const std::int32_t* id =
          tailIds_.find(lattice::pack(lattice::neighbor(cell, d)));
      if (id == nullptr) continue;
      const Particle& p = particles_[static_cast<std::size_t>(*id)];
      if (p.expanded && p.head == cell) return {*id, true};
    }
    SOPS_REQUIRE(false, "at: head cell without its particle's tail");
  }
  const std::int32_t* id = tailIds_.find(lattice::pack(cell));
  if (id == nullptr) return {};
  return {*id, false};
}

bool AmoebotSystem::expandedParticleAdjacent(TriPoint cell,
                                             std::size_t self) const {
  std::uint8_t mask;
  if (expanded_.coversInterior(cell)) {
    mask = expanded_.neighborMaskUnchecked(cell);
  } else {
    mask = 0;
    for (const Direction d : lattice::kAllDirections) {
      if (expanded_.test(lattice::neighbor(cell, d))) {
        mask = static_cast<std::uint8_t>(mask | (1u << index(d)));
      }
    }
  }
  if (mask == 0) return false;
  const Particle& s = particles_[self];
  if (s.expanded) {
    // The only expanded cells belonging to `self` are its own tail and
    // head; drop their direction bits if they happen to be adjacent.
    if (const auto d = lattice::directionBetween(cell, s.tail)) {
      mask = static_cast<std::uint8_t>(mask & ~(1u << index(*d)));
    }
    if (const auto d = lattice::directionBetween(cell, s.head)) {
      mask = static_cast<std::uint8_t>(mask & ~(1u << index(*d)));
    }
  }
  return mask != 0;
}

bool AmoebotSystem::occupiedExcludingHeads(TriPoint cell,
                                           std::size_t self) const {
  if (!occ_.test(cell)) return false;
  if (heads_.test(cell)) return false;
  // Of self's cells only the tail can still match here: a contracted
  // self has head == tail, and an expanded self's head carries the
  // heads-plane bit just tested.
  return cell != particles_[self].tail;
}

bool AmoebotSystem::expandedAdjacentToMovePair(std::size_t id) const {
  const Particle& p = particles_[id];
  SOPS_DASSERT(p.expanded);
  // Of the twelve neighbor probes around (tail, head), the only cells of
  // particle `id` itself are the two ends of the expansion edge: mask
  // the head's direction bit at the tail and vice versa.
  const std::uint32_t tailMask =
      expanded_.neighborMaskUnchecked(p.tail) & ~(1u << p.expandDir);
  const std::uint32_t headMask =
      expanded_.neighborMaskUnchecked(p.head) &
      ~(1u << ((p.expandDir + 3) % 6));
  return (tailMask | headMask) != 0;
}

std::uint8_t AmoebotSystem::nStarRingMask(std::size_t id) const {
  const Particle& p = particles_[id];
  SOPS_DASSERT(p.expanded);
  const int di = p.expandDir;
  return static_cast<std::uint8_t>(occ_.ringMaskUnchecked(p.tail, di) &
                                   ~heads_.ringMaskUnchecked(p.tail, di));
}

void AmoebotSystem::expand(std::size_t id, Direction d) {
  SOPS_REQUIRE(id < particles_.size(), "expand: bad id");
  Particle& p = particles_[id];
  SOPS_REQUIRE(!p.expanded, "expand: particle already expanded");
  const TriPoint target = lattice::neighbor(p.tail, d);
  SOPS_REQUIRE(!occupied(target), "expand: target occupied");
  p.head = target;
  p.expanded = true;
  p.expandDir = static_cast<std::uint8_t>(index(d));
  if (maintainCount()) ++expandedCount_;
  noteMutation();
  // Keep every particle cell interior so unchecked gathers stay licensed.
  // Tiled planes only grow: allocating around the escape up front keeps
  // all three directories mirrored (heads_/expanded_ must cover every
  // occ_ tile so block workers never allocate); flat windows rebuild
  // below, after the bits are placed.  Neither path triggers during a
  // sharded parallel phase: the runner's storage check reserves every
  // cell a block's activations can reach first.
  if (occ_.tiled() && !occ_.coversInterior(target)) {
    occ_.ensureRegion(target, kPlaneEnsureMargin);
    heads_.ensureTilesOf(occ_);
    expanded_.ensureTilesOf(occ_);
    faulty_.ensureTilesOf(occ_);
  }
  occ_.set(target);
  heads_.set(target);
  expanded_.set(p.tail);
  expanded_.set(target);
  if (!occ_.coversInterior(target)) regrowPlanes();
}

void AmoebotSystem::contractToHead(std::size_t id) {
  SOPS_REQUIRE(id < particles_.size(), "contractToHead: bad id");
  Particle& p = particles_[id];
  SOPS_REQUIRE(p.expanded, "contractToHead: particle not expanded");
  occ_.clear(p.tail);
  heads_.clear(p.head);
  expanded_.clear(p.tail);
  expanded_.clear(p.head);
  noteMutation();
  if (maintainCount()) --expandedCount_;
  p.tail = p.head;
  p.expanded = false;
}

void AmoebotSystem::contractBack(std::size_t id) {
  SOPS_REQUIRE(id < particles_.size(), "contractBack: bad id");
  Particle& p = particles_[id];
  SOPS_REQUIRE(p.expanded, "contractBack: particle not expanded");
  occ_.clear(p.head);
  heads_.clear(p.head);
  expanded_.clear(p.tail);
  expanded_.clear(p.head);
  noteMutation();
  if (maintainCount()) --expandedCount_;
  p.head = p.tail;
  p.expanded = false;
}

namespace {
// Particle bool flags packed into one byte for the snapshot payload.
constexpr std::uint8_t kFlagExpanded = 1u << 0;
constexpr std::uint8_t kFlagMemory = 1u << 1;
constexpr std::uint8_t kFlagMirrored = 1u << 2;
constexpr std::uint8_t kFlagCrashed = 1u << 3;
constexpr std::uint8_t kFlagByzantine = 1u << 4;
}  // namespace

void AmoebotSystem::saveState(system::SnapshotWriter& w) const {
  SOPS_REQUIRE(!sharded_,
               "saveState: only legal outside a sharded section");
  w.u64(particles_.size());
  for (const Particle& p : particles_) {
    w.i64(p.tail.x);
    w.i64(p.tail.y);
    w.i64(p.head.x);
    w.i64(p.head.y);
    std::uint8_t flags = 0;
    if (p.expanded) flags |= kFlagExpanded;
    if (p.flag) flags |= kFlagMemory;
    if (p.mirrored) flags |= kFlagMirrored;
    if (p.crashed) flags |= kFlagCrashed;
    if (p.byzantine) flags |= kFlagByzantine;
    w.u8(flags);
    w.u8(p.orientationOffset);
    w.u8(p.expandDir);
  }
  if (occ_.tiled()) {
    // Tag 2 (snapshot v3): the exact allocated-tile set, sorted by raw
    // key so the byte stream is a pure function of state.
    w.u8(2);
    const std::vector<std::uint64_t> keys = occ_.sortedTileKeys();
    w.u64(keys.size());
    for (const std::uint64_t key : keys) {
      w.i64(system::BitGrid::tileXOfKey(key));
      w.i64(system::BitGrid::tileYOfKey(key));
    }
  } else {
    // Tag 1 keeps frame v2's exact byte layout.
    w.u8(1);
    w.i64(occ_.originX());
    w.i64(occ_.originY());
    w.u64(occ_.width());
    w.u64(occ_.height());
  }
}

void AmoebotSystem::restoreState(system::SnapshotReader& r) {
  const std::uint64_t count = r.u64();
  SOPS_REQUIRE(count == particles_.size(),
               "snapshot: particle count does not match the configuration "
               "this system was constructed from");
  std::vector<Particle> particles;
  particles.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Particle p;
    p.tail.x = static_cast<std::int32_t>(r.i64());
    p.tail.y = static_cast<std::int32_t>(r.i64());
    p.head.x = static_cast<std::int32_t>(r.i64());
    p.head.y = static_cast<std::int32_t>(r.i64());
    const std::uint8_t flags = r.u8();
    p.expanded = (flags & kFlagExpanded) != 0;
    p.flag = (flags & kFlagMemory) != 0;
    p.mirrored = (flags & kFlagMirrored) != 0;
    p.crashed = (flags & kFlagCrashed) != 0;
    p.byzantine = (flags & kFlagByzantine) != 0;
    p.orientationOffset = r.u8();
    SOPS_REQUIRE(p.orientationOffset < 6, "snapshot: bad orientation offset");
    p.expandDir = r.u8();
    SOPS_REQUIRE(p.expandDir < 6, "snapshot: bad expansion direction");
    SOPS_REQUIRE(p.expanded || p.head == p.tail,
                 "snapshot: contracted particle with head != tail");
    const TriPoint expandedHead =
        lattice::neighbor(p.tail, lattice::directionFromIndex(p.expandDir));
    SOPS_REQUIRE(!p.expanded || p.head == expandedHead,
                 "snapshot: expanded particle whose head is not its tail's "
                 "neighbor along the expansion direction");
    particles.push_back(p);
  }
  const std::uint8_t backend = r.u8();
  SOPS_REQUIRE(backend <= 2, "snapshot: bad occupancy backend tag");
  std::vector<std::uint64_t> tileKeys;
  std::int64_t originX = 0;
  std::int64_t originY = 0;
  std::uint64_t width = 0;
  std::uint64_t height = 0;
  if (backend == 2) {
    const std::uint64_t tileCount = r.u64();
    tileKeys.reserve(static_cast<std::size_t>(tileCount));
    for (std::uint64_t i = 0; i < tileCount; ++i) {
      const std::int64_t tx = r.i64();
      const std::int64_t ty = r.i64();
      tileKeys.push_back(
          system::BitGrid::tileKey(static_cast<std::int32_t>(tx),
                                   static_cast<std::int32_t>(ty)));
    }
  } else {
    originX = r.i64();
    originY = r.i64();
    width = r.u64();
    height = r.u64();
  }

  const std::vector<TriPoint> cells = cellsOf(particles);
  util::FlatSet64 seen(cells.size());
  for (const TriPoint cell : cells) {
    const bool fresh = seen.insert(lattice::pack(cell));
    SOPS_REQUIRE(fresh, "snapshot: two particles share a cell");
  }

  particles_ = std::move(particles);
  recountExpanded();
  sharded_ = false;
  idIndexDirty_ = true;  // at() rebuilds lazily, as after any mutation
  ++mutations_;
  if (backend == 2) {
    occ_.rebuildTiledExact(cells, tileKeys);
    rebuildExpansionPlanes();
  } else if (backend == 1) {
    occ_.rebuildExact(cells, originX, originY, width, height);
    rebuildExpansionPlanes();
  } else {
    // Tag 0: the retired hash-only regime of older payloads.  The default
    // dense planes stand in for it.
    regrowPlanes();
  }
}

system::ParticleSystem AmoebotSystem::tailConfiguration() const {
  return system::ParticleSystem(tails());
}

std::vector<TriPoint> AmoebotSystem::tails() const {
  std::vector<TriPoint> cells;
  cells.reserve(particles_.size());
  for (const Particle& p : particles_) cells.push_back(p.tail);
  return cells;
}

void AmoebotSystem::setTail(TriPoint cell, std::size_t id) {
  tailIds_.insertOrAssign(lattice::pack(cell), static_cast<std::int32_t>(id));
}

}  // namespace sops::amoebot

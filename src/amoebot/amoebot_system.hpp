#ifndef SOPS_AMOEBOT_AMOEBOT_SYSTEM_HPP
#define SOPS_AMOEBOT_AMOEBOT_SYSTEM_HPP

/// \file amoebot_system.hpp
/// The geometric amoebot model substrate (paper §2.1), on the dense
/// bitboard fast path.
///
/// Particles occupy one vertex (contracted) or two adjacent vertices
/// (expanded, with head and tail).  Particles are anonymous, have no global
/// compass or chirality (each gets a private random port labeling), and
/// carry the single bit of persistent memory Algorithm A needs (the flag).
/// Movement is by expansion into an empty adjacent vertex followed by a
/// contraction onto head or tail.  Atomicity of activations is provided by
/// the schedulers in scheduler.hpp / parallel_scheduler.hpp.
///
/// Occupancy encoding.  Four bit planes share one window geometry (same
/// origin/stride, so one bit-index computation addresses all four):
///
///   occ       every occupied cell — heads and tails alike,
///   heads     heads of currently *expanded* particles,
///   expanded  both cells (head and tail) of currently expanded particles,
///   faulty    tails of crashed and Byzantine particles (fixed: neither
///             kind ever contracts, so such a tail never moves).
///
/// Every per-activation query of Algorithm A becomes word loads against
/// these planes: cell occupancy is one load of `occ`; the N* oracle of
/// step 9 (ignore heads of expanded neighbors) is the 8-cell ring gather
/// `occ & ~heads`; the step-3/5 expanded-neighbor scans are one 6-neighbor
/// gather of `expanded`.  The planes keep ParticleSystem's interior-margin
/// invariant — every particle cell sits ≥ BitGrid::kInteriorMargin inside
/// the window, regrown on escape — which licenses the unchecked gathers.
/// Configurations too spread out for one flat window (BitGrid::kMaxWords)
/// run on the tiled backend: all four planes share one tile directory
/// layout (the others always cover every occ_ tile), so the
/// word-exclusive block discipline carries over.
///
/// A cell -> id hash index serves id lookups (at()).  It holds tails
/// only — at() finds a head through the heads plane and the tail next to
/// it — so only a contraction to the head moves an entry.  A sharded
/// runner suspends it during a concurrent section (see
/// suspendIdIndex()), or freezes it current while its rejection-free
/// blocks read it and report their contractions to the head afterwards
/// (see freezeIdIndex()).

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "lattice/direction.hpp"
#include "lattice/tri_point.hpp"
#include "rng/random.hpp"
#include "system/bit_grid.hpp"
#include "system/particle_system.hpp"
#include "system/snapshot.hpp"
#include "util/flat_hash.hpp"

namespace sops::amoebot {

using lattice::Direction;
using lattice::TriPoint;

struct Particle {
  TriPoint tail;
  TriPoint head;  ///< equals tail while contracted
  bool expanded = false;
  bool flag = false;  ///< Algorithm A's one bit of persistent memory
  /// Private port labeling: global direction = rotated(offset, ±port).
  std::uint8_t orientationOffset = 0;
  bool mirrored = false;  ///< chirality of the private labeling
  bool crashed = false;    ///< crash fault (§3.3): never acts again
  bool byzantine = false;  ///< adversarial: expands and refuses to contract
  /// Direction index tail -> head while expanded (set by expand(); avoids
  /// re-deriving it from coordinates on the contraction path).
  std::uint8_t expandDir = 0;
};
// saveState() serializes a Particle as tail/head coordinates, one packed
// flags byte (expanded/flag/mirrored/crashed/byzantine), and the two u8s
// — every member exactly once.  Pinning the layout turns "someone added a
// member" into a compile error here, where saveState/restoreState and the
// kFlag* bits must be extended in the same change.
static_assert(std::is_trivially_copyable_v<Particle> &&
              sizeof(Particle) == 2 * sizeof(TriPoint) + 8);

/// Private-port translation table: kPortTable[offset][mirrored][port] is
/// the global direction of port `port` under orientation (offset,
/// mirrored).  The reference kernel recomputes the same value with 60°
/// rotations; tests/amoebot_test.cpp asserts the two agree.
inline constexpr auto kPortTable = [] {
  std::array<std::array<std::array<Direction, 6>, 2>, 6> table{};
  for (int offset = 0; offset < 6; ++offset) {
    for (int port = 0; port < 6; ++port) {
      table[offset][0][port] =
          lattice::rotated(static_cast<Direction>(offset), port);
      table[offset][1][port] =
          lattice::rotated(static_cast<Direction>(offset), -port);
    }
  }
  return table;
}();

class AmoebotSystem {
 public:
  /// What a lattice cell currently holds.
  struct CellView {
    std::int32_t particle = kEmpty;  ///< particle id, or kEmpty
    bool isHead = false;             ///< head of an *expanded* particle
    static constexpr std::int32_t kEmpty = -1;
    [[nodiscard]] bool empty() const noexcept { return particle == kEmpty; }
  };

  /// Builds an all-contracted system from a configuration, assigning each
  /// particle a private random orientation and chirality.  The id index
  /// is sized for n but filled by its first use (at(), freezeIdIndex()).
  AmoebotSystem(const system::ParticleSystem& initial, rng::Random& rng);

  [[nodiscard]] std::size_t size() const noexcept { return particles_.size(); }
  [[nodiscard]] const Particle& particle(std::size_t id) const {
    SOPS_DASSERT(id < particles_.size());
    return particles_[id];
  }

  /// Requires the id index to be live (it always is outside a sharded
  /// runner's concurrent section).  The index is refreshed lazily here
  /// rather than on every expand/contract — activations never consult
  /// it, so the hot path pays one dirty-bit store instead of hash
  /// mutations.  The lazy rebuild allocates, so
  /// (unlike the seed's pure hash probe) this is not noexcept.
  [[nodiscard]] CellView at(TriPoint cell) const;

  [[nodiscard]] bool occupied(TriPoint cell) const noexcept {
    return occ_.test(cell);
  }

  /// Occupancy of a cell within graph distance kInteriorMargin of some
  /// particle cell (move targets and neighbor probes qualify): skips the
  /// window bounds check — one word load on the hot path.
  [[nodiscard]] bool occupiedNear(TriPoint cell) const noexcept {
    return occ_.testUnchecked(cell);
  }

  /// Translates a particle's private port (0..5) to a global direction.
  /// One 72-entry L1-resident table lookup — no modular arithmetic on the
  /// activation hot path (kPortTable[offset][mirrored][port] ==
  /// rotated(offset, mirrored ? -port : port) by construction).
  [[nodiscard]] Direction globalDirection(std::size_t id, int port) const {
    SOPS_DASSERT(id < particles_.size());
    SOPS_DASSERT(port >= 0 && port < lattice::kNumDirections);
    const Particle& p = particles_[id];
    return kPortTable[p.orientationOffset][p.mirrored ? 1 : 0][port];
  }

  /// True iff any cell adjacent to `cell` holds (head or tail of) an
  /// *expanded* particle other than `self`.
  [[nodiscard]] bool expandedParticleAdjacent(TriPoint cell,
                                              std::size_t self) const;

  /// Occupancy oracle N* of Algorithm A (step 9): cell counts as occupied
  /// unless empty, part of particle `self`, or the head of an expanded
  /// particle.
  [[nodiscard]] bool occupiedExcludingHeads(TriPoint cell,
                                            std::size_t self) const;

  /// Steps 5–7 of Algorithm A for the just-expanded particle `id`: true
  /// iff an expanded particle *other than id* is adjacent to id's tail or
  /// head.  Equivalent to expandedParticleAdjacent(tail) ||
  /// expandedParticleAdjacent(head), but the self-exclusion collapses to
  /// masking the one direction bit pointing along the expansion edge.
  [[nodiscard]] bool expandedAdjacentToMovePair(std::size_t id) const;

  /// The 8-cell ring of an *expanded* particle's move (tail, expandDir)
  /// under the N* oracle — the whole step-9/10 neighborhood of Algorithm A
  /// as two gathers: occ ring & ~heads ring.  Ring cells never include the
  /// particle's own tail or head, so no self test is needed.
  [[nodiscard]] std::uint8_t nStarRingMask(std::size_t id) const;

  // --- atomic movements (enforce the model's physical constraints) ---

  /// Expands a contracted particle into the adjacent empty cell in the
  /// given global direction.
  void expand(std::size_t id, Direction d);

  /// Completes the movement: particle occupies only its head.
  void contractToHead(std::size_t id);

  /// Aborts the movement: particle occupies only its (original) tail.
  void contractBack(std::size_t id);

  void setFlag(std::size_t id, bool value) {
    SOPS_DASSERT(id < particles_.size());
    particles_[id].flag = value;
  }
  void markCrashed(std::size_t id) {
    particles_[id].crashed = true;
    faulty_.set(particles_[id].tail);
  }
  void markByzantine(std::size_t id) {
    particles_[id].byzantine = true;
    faulty_.set(particles_[id].tail);
  }

  /// Number of currently expanded particles (diagnostics; not maintained
  /// while the id index is suspended — restoreIdIndex() recomputes it).
  [[nodiscard]] std::size_t expandedCount() const noexcept {
    return expandedCount_;
  }

  /// Projection to the chain's state space: contracted particles at their
  /// location, expanded particles at their tails (§3.2, footnote 2).
  [[nodiscard]] system::ParticleSystem tailConfiguration() const;

  /// The same projection without building a ParticleSystem: every
  /// particle's tail, and a test for "p is some particle's tail" (occupied
  /// and not an expanded particle's head) — the inputs of the
  /// system::topology()/countEdges() overloads for a cell list.
  [[nodiscard]] std::vector<TriPoint> tails() const;
  [[nodiscard]] bool isTail(TriPoint p) const noexcept {
    return occ_.test(p) && !heads_.test(p);
  }

  // --- sharded-execution support (amoebot/parallel_scheduler) ---

  /// Which occupancy regime the planes are running: "dense-flat" or
  /// "dense-tiled" (see ParticleSystem::regimeName).
  [[nodiscard]] const char* regimeName() const noexcept {
    return occ_.tiled() ? "dense-tiled" : "dense-flat";
  }

  /// The occupancy plane — the sharded runner aligns its blocks to it and
  /// checks storage against it (the other planes mirror its geometry).
  [[nodiscard]] const system::BitGrid& occupancyGrid() const noexcept {
    return occ_;
  }
  [[nodiscard]] const system::BitGrid& headGrid() const noexcept {
    return heads_;
  }
  [[nodiscard]] const system::BitGrid& expandedGrid() const noexcept {
    return expanded_;
  }
  [[nodiscard]] const system::BitGrid& faultyGrid() const noexcept {
    return faulty_;
  }

  /// Grows the four planes together so that
  /// occupancyGrid().coversInteriorBy(c, depth) holds for every center —
  /// the sharded runner calls it between parallel phases, so that no
  /// plane regrows inside one.
  void reserveInterior(std::span<const TriPoint> centers, std::int64_t depth);

  /// Suspends maintenance of the cell -> id hash index and of
  /// expandedCount() so concurrent block workers touch only bit-plane
  /// words and per-particle state.  at()/particleAt-style lookups are
  /// invalid until restoreIdIndex().  The planes never give up
  /// mid-section: a flat window that outgrows BitGrid::kMaxWords promotes
  /// to the tiled backend, and tiled directories only grow.
  void suspendIdIndex();

  /// Rebuilds the id index and expandedCount() from particle state and
  /// resumes maintenance.
  void restoreIdIndex();

  /// For a rejection-free phase: ends any suspension, makes the id index
  /// current and freezes it — read by concurrent workers through
  /// frozenTailId(), maintained by nobody — until thawIdIndex().  The
  /// caller reports each contraction to a head through moveTailId() in
  /// between, so thawing costs O(moves), not restoreIdIndex()'s O(n).
  void freezeIdIndex();
  /// The particle the frozen index places at tail `cell`, or
  /// CellView::kEmpty.
  [[nodiscard]] std::int32_t frozenTailId(TriPoint cell) const noexcept {
    const std::int32_t* id = tailIds_.find(lattice::pack(cell));
    return id == nullptr ? CellView::kEmpty : *id;
  }
  /// Moves `id`'s frozen entry from `from` to `to`; coordinator only.
  void moveTailId(std::size_t id, TriPoint from, TriPoint to);
  /// Ends the frozen section; expandedCount() moves by `expandedDelta`,
  /// the section's expansions less its contractions.
  void thawIdIndex(std::int64_t expandedDelta);

  /// Counts the movements made outside a sharded section, and restores:
  /// while it stands still, only a runner's epochs have moved a particle.
  [[nodiscard]] std::uint64_t mutations() const noexcept { return mutations_; }

  // --- snapshot support (system/snapshot.hpp) ---

  /// Serializes every particle (cells, expansion state, private port
  /// labeling, fault flags) plus the exact occupancy-window geometry, so
  /// resume reproduces the window verbatim rather than re-deriving it.
  /// Only legal outside a sharded section.
  void saveState(system::SnapshotWriter& w) const;

  /// Inverse of saveState: replaces the particle set wholesale (the
  /// constructor's random orientation draws are overwritten), rebuilds
  /// the planes with the snapshotted geometry, and recomputes the derived
  /// index/counters.  A tag-0 payload (the retired hash-only regime)
  /// restores into the default dense planes.  Rejects payloads whose
  /// particles share a cell, or whose expanded head is not the tail's
  /// neighbor along the expansion direction.
  void restoreState(system::SnapshotReader& r);

 private:
  std::vector<Particle> particles_;
  /// tail cell -> id, rebuilt lazily by at() when dirty, or by
  /// freezeIdIndex().
  mutable util::FlatMap64<std::int32_t> tailIds_;
  mutable bool idIndexDirty_ = false;
  std::size_t expandedCount_ = 0;

  system::BitGrid occ_;       ///< all occupied cells (heads + tails)
  system::BitGrid heads_;     ///< heads of expanded particles
  system::BitGrid expanded_;  ///< head and tail cells of expanded particles
  system::BitGrid faulty_;    ///< tails of crashed and Byzantine particles
  /// Between suspendIdIndex() or freezeIdIndex() and the restore or thaw.
  bool sharded_ = false;
  std::uint64_t mutations_ = 0;

  /// Bookkeeping after a mutation: the index is marked stale; a sharded
  /// section does nothing at all (restore rebuilds, thaw is told).
  void noteMutation() noexcept {
    if (sharded_) return;
    idIndexDirty_ = true;
    ++mutations_;
  }
  /// expandedCount_ must not be touched by concurrent block workers; it
  /// is recomputed on restore.
  [[nodiscard]] bool maintainCount() const noexcept { return !sharded_; }

  void setTail(TriPoint cell, std::size_t id);
  /// Rebuilds the planes around every particle cell (and `cover`, when
  /// given); promotes to tiled past the flat cap.
  void regrowPlanes(const system::BitGrid::CellBox* cover = nullptr);
  /// Mirrors occ_'s geometry into the other planes and sets their bits
  /// from the particle state.
  void rebuildExpansionPlanes();
  void rebuildIdIndex() const;
  void recountExpanded();
};

}  // namespace sops::amoebot

#endif  // SOPS_AMOEBOT_AMOEBOT_SYSTEM_HPP

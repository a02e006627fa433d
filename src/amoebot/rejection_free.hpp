#ifndef SOPS_AMOEBOT_REJECTION_FREE_HPP
#define SOPS_AMOEBOT_REJECTION_FREE_HPP

/// \file rejection_free.hpp
/// Rejection-free epochs for Algorithm A: the n-fold way of Bortz, Kalos
/// and Lebowitz (J. Comput. Phys. 17, 1975), sampling exactly the law of
/// one block-path epoch of amoebot::ShardedPoissonRunner (the amoebot
/// counterpart of core/rejection_free.hpp, which does the same for
/// chain M).
///
/// **The law.**  A block-path epoch e runs L activations: each picks a
/// particle uniformly and a port uniformly from its move stream — a
/// (particle, port) pair uniform among the 6n — and is skipped when the
/// pair's widened box leaves its block under BlockEpoch::draw(seed, e)'s
/// offsets (the box of (ℓ, ℓ + dir(port)) for a contracted particle, of
/// (tail, head) for an expanded one, of ℓ's ring for a contracted
/// Byzantine one).  Otherwise the activation runs: Idle writes nothing,
/// every other outcome changes the system.
///
/// **Candidates.**  Given the configuration, whether a pair's activation
/// is Idle is fixed; the pairs that are not are its candidates, counted
/// per particle (its *mass*):
///   - contracted: its empty neighbours (one port each), or 0 when any
///     neighbour cell is expanded (steps 3 of Algorithm A);
///   - expanded: 6 (it always contracts, to the head or back);
///   - crashed: 0;
///   - Byzantine: 6 when contracted with an empty neighbour (it probes
///     from any port to the first empty one), else 0.
/// A proposal is a candidate with probability Σ/6n.  Since the system
/// changes only at a candidate, the failures before the next one are
/// Geometric(Σ/6n); the candidate is a particle ∝ its mass, then a
/// uniform one of its candidate ports — both read off one uniform rank
/// below Σ — and the event runs through LocalCompressionAlgorithm::activate
/// exactly as the block path runs it, Metropolis uniform included.  A
/// candidate whose box leaves its block is a skip instead (*thinning*).
/// Each failure is a skip with probability C/(6n − Σ), C the epoch's
/// crossing non-candidate pairs, and Idle otherwise: one binomial draw per
/// run.  The epoch stops exactly after L activations — a geometric run
/// that passes the end is cut there, exact because the geometric law is
/// memoryless.  Every draw comes from counter streams keyed by (seed, e),
/// two per run (gap and candidate; the split), so an epoch is a pure
/// function of the seed and the configuration.
///
/// **The structure.**  One byte per particle: its candidate directions
/// (bits 0–5, a protocol-following contracted particle's legal
/// expansions) or the six-port flag (bit 6: an expanded particle, or a
/// Byzantine one that can expand).  Masses are summed per 64-particle
/// chunk under one Fenwick tree (core::ChunkFenwick), so the candidate is
/// found by its rank in particle order in O(log n) — never by insertion
/// order, so a rebuilt index picks what an incrementally kept one picks.
/// C is counted at each epoch start without visiting the particles: a
/// 128 × 128 histogram of contracted tails by (x mod 128, y mod 128) gives
/// every contracted particle's crossing pairs from the ~10³ histogram
/// cells in the block-line bands; the candidate particles' crossing
/// candidate pairs are subtracted and the faulty particles (Byzantine, or
/// crashed while expanded) counted one by one.  During the epoch C is kept
/// exactly.  An event of the pair (ℓ, ℓ′) changes only particles within
/// distance 1 of ℓ or ℓ′ — the ten cells core::refreshCells() lists
/// first; only contracted ones whose neighbourhood changed in a way their
/// byte reads (known from the planes after the event, with ℓ and ℓ′ put
/// back) are looked up, through AmoebotSystem's live cell → id index.
/// About 1.1 bytes per particle, plus the 64 KiB histogram.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/local_compression.hpp"
#include "core/block_executor.hpp"
#include "core/chunk_fenwick.hpp"

namespace sops::amoebot {

/// The index of every particle's candidate mass, and the epoch sampler
/// built on it (see the file comment).
class RejectionFreeIndex {
 public:
  /// `algo` runs the events; it must outlive the index.
  explicit RejectionFreeIndex(const LocalCompressionAlgorithm& algo) noexcept
      : algo_(&algo) {}

  /// Recomputes every byte, sum and the histogram from the system.  C is
  /// per epoch (beginEpoch()); rebuild leaves it at zero.
  void rebuild(const AmoebotSystem& sys);

  /// Counts C under `ep` from the histogram (see the file comment).
  void beginEpoch(const AmoebotSystem& sys, const core::BlockEpoch& ep);

  /// C under `ep`, particle by particle — the reference for beginEpoch.
  [[nodiscard]] std::int64_t crossingByParticles(
      const AmoebotSystem& sys, const core::BlockEpoch& ep) const;

  /// Runs one epoch of `length` activations on `sys` (which must keep its
  /// cell → id index live: AmoebotSystem::keepIdIndexLive), adding the
  /// executed activations' outcomes to `tallies`; returns the skipped
  /// ones (tallied by the executor).  With `verifyEachEvent`, every
  /// executed candidate must change the system and be followed by an
  /// index equal to a from-scratch rebuild (throwing otherwise).
  std::uint64_t runEpoch(AmoebotSystem& sys, const core::BlockEpoch& ep,
                         std::uint64_t length, ActivationTallies& tallies,
                         bool verifyEachEvent = false);

  /// True when the incrementally kept bytes, sums, chunk masses and
  /// histogram equal those of a from-scratch rebuild plus
  /// beginEpoch, and C equals its particle-by-particle count.  O(n): the
  /// brute-force check of the tests and debug builds.
  [[nodiscard]] bool matchesRebuild(const AmoebotSystem& sys,
                                    const core::BlockEpoch& ep) const;

  /// Σ, the candidate pairs.
  [[nodiscard]] std::uint64_t candidateMass() const noexcept { return mass_; }
  /// C, the epoch's crossing non-candidate pairs.
  [[nodiscard]] std::uint64_t crossingMass() const noexcept {
    return static_cast<std::uint64_t>(crossing_);
  }
  /// Bytes held by the index's arrays.
  [[nodiscard]] std::size_t memoryBytes() const noexcept {
    return state_.capacity() + masses_.memoryBytes() +
           (tails_.capacity() + faulty_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  static constexpr int kPorts = 6;
  static constexpr std::uint8_t kDirections = 0x3F;
  static constexpr std::uint8_t kSixPorts = 0x40;
  /// The histogram's side: the block side, so a cell's position within its
  /// block is a function of its histogram cell and the epoch's offsets.
  static constexpr std::int64_t kSide = core::BlockEpoch::kBlockSize;
  /// "amoebot": the epoch's stream key is mix64(moveKey ^ salt).
  static constexpr std::uint64_t kStreamSalt = 0x616d6f65626f74ULL;
  /// The boundary rule's boxes: the move pair widened by 1 (the
  /// runner's Kernel::kReach).
  static constexpr auto kReach = core::blockReach(1);

  [[nodiscard]] static int massOf(std::uint8_t byte) noexcept {
    return (byte & kSixPorts) != 0 ? kPorts : std::popcount(byte);
  }
  /// The byte of a contracted particle of each kind, from its tail's
  /// neighbourhood: the key the refresh compares before and after.
  [[nodiscard]] static std::uint8_t contractedKey(
      const AmoebotSystem::Neighborhood& nb) noexcept;
  /// The byte of contracted particle `p` whose tail has key `key`.
  [[nodiscard]] static std::uint8_t contractedByte(const Particle& p,
                                                   std::uint8_t key) noexcept;
  /// Particle i's byte.
  [[nodiscard]] static std::uint8_t byteOf(const AmoebotSystem& sys,
                                           std::size_t i);
  /// The directions whose pair box at `tail` leaves its block.
  [[nodiscard]] static std::uint8_t crossingDirections(
      TriPoint tail, const core::BlockEpoch& ep) noexcept;
  /// The crossing non-candidate ports of particle `p` with byte `byte`.
  [[nodiscard]] static int crossingOf(const Particle& p, std::uint8_t byte,
                                      const core::BlockEpoch& ep) noexcept;
  /// Contracted, protocol-following or crashed: counted in the histogram.
  [[nodiscard]] static bool inHistogram(const Particle& p) noexcept {
    return !p.expanded && !p.byzantine;
  }
  [[nodiscard]] static std::size_t histogramCell(TriPoint tail) noexcept {
    return static_cast<std::size_t>((tail.x & (kSide - 1)) |
                                    (tail.y & (kSide - 1)) << 7);
  }

  /// Replaces particle i's byte, in the mass sums and the tree.
  void setByte(std::size_t i, std::uint8_t byte) noexcept;
  /// Re-evaluates contracted particle i, whose record the event did not
  /// change and whose tail now has key `key`.
  void update(const AmoebotSystem& sys, const core::BlockEpoch& ep,
              std::size_t i, std::uint8_t key);
  /// After an event that took a particle from `before` to `after`:
  /// re-evaluates the contracted particles within distance 1 of the pair
  /// whose byte the event changed.
  void refreshNeighbors(const AmoebotSystem& sys, const core::BlockEpoch& ep,
                        const Particle& before, const Particle& after,
                        ActivationResult result);

  /// The candidate of rank `rank` < Σ in (particle, port) order: the
  /// particle and the rank of its port among its candidate ports.
  struct Pick {
    std::uint32_t particle;
    std::uint32_t rank;
  };
  [[nodiscard]] Pick pick(std::uint32_t rank) const;

  const LocalCompressionAlgorithm* algo_;
  std::vector<std::uint8_t> state_;  ///< per particle, see above
  std::uint64_t mass_ = 0;           ///< Σ
  std::int64_t crossing_ = 0;        ///< C
  core::ChunkFenwick masses_;        ///< every particle's mass
  /// [x mod 128 | (y mod 128) << 7]: tails of histogram particles.
  std::vector<std::uint32_t> tails_;
  /// Particles outside the histogram that can cross while non-candidates:
  /// every Byzantine one, and crashed ones that are expanded (forever).
  std::vector<std::uint32_t> faulty_;
};

}  // namespace sops::amoebot

#endif  // SOPS_AMOEBOT_REJECTION_FREE_HPP

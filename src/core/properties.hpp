#ifndef SOPS_CORE_PROPERTIES_HPP
#define SOPS_CORE_PROPERTIES_HPP

/// \file properties.hpp
/// The local movement conditions of the paper's Markov chain M (§3.1):
/// Property 1, Property 2, and the gap condition e ≠ 5, evaluated on the
/// 8-cell ring around a candidate move ℓ → ℓ'.
///
/// Ring indexing.  For a move from ℓ in direction d (so ℓ' = ℓ + d), the
/// set N(ℓ ∪ ℓ') = (N(ℓ) ∪ N(ℓ')) \ {ℓ, ℓ'} consists of exactly eight
/// cells forming an 8-cycle around the edge (ℓ, ℓ'), indexed here as
///
///   idx 0: ℓ + rot(d,+1)   = c1, common neighbor of ℓ and ℓ'
///   idx 1: ℓ + rot(d,+2)
///   idx 2: ℓ + rot(d,+3)   (= ℓ − d)
///   idx 3: ℓ + rot(d,+4)
///   idx 4: ℓ + rot(d,+5)   = c2, the other common neighbor
///   idx 5: ℓ' + rot(d,+5)
///   idx 6: ℓ' + d
///   idx 7: ℓ' + rot(d,+1)
///
/// Consecutive indices (mod 8) are lattice-adjacent and there are no other
/// adjacencies among ring cells, so connectivity "through N(ℓ ∪ ℓ')" is
/// connectivity of set bits along the 8-cycle.  N(ℓ)\{ℓ'} = indices 0–4 and
/// N(ℓ')\{ℓ} = indices 4–7,0.  The test-suite validates all of this against
/// a brute-force geometric implementation for all 256 masks.

#include <array>
#include <cstdint>

#include "lattice/direction.hpp"
#include "lattice/tri_point.hpp"
#include "system/particle_system.hpp"
#include "util/popcount.hpp"

namespace sops::core {

using lattice::Direction;
using lattice::TriPoint;

inline constexpr int kRingSize = 8;
inline constexpr std::uint8_t kCommonMask = 0b0001'0001;  // idx 0 and 4
inline constexpr std::uint8_t kBeforeMask = 0b0001'1111;  // N(ℓ)\{ℓ'}: idx 0..4
inline constexpr std::uint8_t kAfterMask =
    0b1111'0001;   // N(ℓ')\{ℓ}: idx 4..7,0

/// The lattice cell at ring index idx for the move (ℓ, d).
[[nodiscard]] constexpr TriPoint ringCell(TriPoint l, Direction d,
                                          int idx) noexcept {
  const TriPoint lPrime = lattice::neighbor(l, d);
  switch (idx) {
    case 0: return lattice::neighbor(l, lattice::rotated(d, 1));
    case 1: return lattice::neighbor(l, lattice::rotated(d, 2));
    case 2: return lattice::neighbor(l, lattice::rotated(d, 3));
    case 3: return lattice::neighbor(l, lattice::rotated(d, 4));
    case 4: return lattice::neighbor(l, lattice::rotated(d, 5));
    case 5: return lattice::neighbor(lPrime, lattice::rotated(d, 5));
    case 6: return lattice::neighbor(lPrime, d);
    default: return lattice::neighbor(lPrime, lattice::rotated(d, 1));
  }
}

/// Ring-cell offsets relative to ℓ, precomputed per direction so generic
/// gathers replace eight 60°-rotation computations with a 16-byte table
/// row.  kRingOffsets[index(d)][idx] == ringCell({0,0}, d, idx) by
/// construction (ringCell stays the geometric source of truth; tests
/// compare the two, and lattice/edge_ring.hpp builds the same table for
/// the bitboard backend).
inline constexpr auto& kRingOffsets = lattice::kEdgeRingOffsets;
static_assert(lattice::kEdgeRingSize == kRingSize);

/// Occupancy bitmask of the 8 ring cells for the move (ℓ, d), from an
/// arbitrary occupancy oracle (used by both M and the amoebot layer, which
/// passes the N*-filtered oracle of Algorithm A).
template <typename OccupiedFn>
[[nodiscard]] std::uint8_t ringMask(TriPoint l, Direction d,
                                    OccupiedFn&& occupied) {
  const std::array<TriPoint, kRingSize>& offsets = kRingOffsets[index(d)];
  std::uint8_t mask = 0;
  for (int idx = 0; idx < kRingSize; ++idx) {
    mask |= static_cast<std::uint8_t>(
        occupied(l + offsets[idx]) ? (1u << idx) : 0u);
  }
  return mask;
}

/// Ring mask against a ParticleSystem: one bit-index computation plus
/// eight precomputed-delta word loads (BitGrid::ringMaskUnchecked) —
/// inline so the chain step sees through it.  Precondition: ℓ is an
/// occupied particle position (ring cells then sit within the grid's
/// interior-margin invariant).
[[nodiscard]] inline std::uint8_t ringMask(const system::ParticleSystem& sys,
                                           TriPoint l, Direction d) {
  return sys.ringMask(l, d);
}

/// Number of neighbors of P while at ℓ (ℓ' unoccupied): e in the paper.
[[nodiscard]] constexpr int neighborsBefore(std::uint8_t mask) noexcept {
  return util::popcount64(mask & kBeforeMask);
}

/// Number of neighbors P would have after contracting to ℓ': e'.
[[nodiscard]] constexpr int neighborsAfter(std::uint8_t mask) noexcept {
  return util::popcount64(mask & kAfterMask);
}

/// Property 1 (§3.1): |S| ∈ {1,2} and every occupied ring cell is connected
/// along the ring to a common neighbor (idx 0 or 4).  constexpr so the
/// move table is built — and its invariants proven — at compile time
/// (core/move_table.hpp).
[[nodiscard]] constexpr bool property1Holds(std::uint8_t mask) noexcept {
  if ((mask & kCommonMask) == 0) return false;  // S is empty
  if (mask == 0xFF) return true;                // single all-ring arc
  // Every maximal cyclic run of set bits must contain idx 0 or idx 4.
  for (int i = 0; i < kRingSize; ++i) {
    const bool set = (mask >> i) & 1u;
    const bool prevSet = (mask >> ((i + kRingSize - 1) % kRingSize)) & 1u;
    if (!set || prevSet) continue;  // not the start of a run
    bool touchesCommon = false;
    for (int j = i; (mask >> (j % kRingSize)) & 1u; ++j) {
      const int idx = j % kRingSize;
      if (idx == 0 || idx == 4) {
        touchesCommon = true;
        break;
      }
    }
    if (!touchesCommon) return false;
  }
  return true;
}

/// Property 2 (§3.1): S = ∅, both sides nonempty, and the occupied cells of
/// each side are connected within that side (contiguous along its path).
[[nodiscard]] constexpr bool property2Holds(std::uint8_t mask) noexcept {
  if ((mask & kCommonMask) != 0) return false;    // requires S = ∅
  const std::uint8_t sideL = mask & 0b0000'1110;  // idx 1..3 (N(ℓ) side)
  const std::uint8_t sideR = mask & 0b1110'0000;  // idx 5..7 (N(ℓ') side)
  if (sideL == 0 || sideR == 0) return false;
  // On the 3-cell path {1,2,3} the only disconnected occupied pattern is
  // {1,3} without 2; likewise {5,7} without 6.
  if (sideL == 0b0000'1010) return false;
  if (sideR == 0b1010'0000) return false;
  return true;
}

/// Conditions (1) and (2) of M's step 6 combined: e ≠ 5 and Property 1 or 2.
[[nodiscard]] constexpr bool moveStructurallyValid(std::uint8_t mask) noexcept {
  return neighborsBefore(mask) != 5 &&
         (property1Holds(mask) || property2Holds(mask));
}

/// Full evaluation of one proposed move of M, shared verbatim by the chain
/// runner (core/compression_chain) and the exact transition-matrix builder
/// (enumeration/chain_matrix) so both use the identical kernel.
struct MoveEvaluation {
  bool targetOccupied = false;
  std::uint8_t mask = 0;
  int eBefore = 0;
  int eAfter = 0;
  bool gapOk = false;     // condition (1): e != 5
  bool property1 = false; // Property 1 holds for (ℓ, ℓ')
  bool property2 = false; // Property 2 holds for (ℓ, ℓ')
  bool propertyOk = false;  // condition (2): Property 1 or Property 2
};

/// Precondition: ℓ is an occupied particle position.  The dense-bitboard
/// gather relies on the grid's interior-margin invariant around particles
/// (SOPS_DASSERT-checked in debug builds); evaluating a move from an
/// arbitrary unoccupied cell is not meaningful in M and not supported.
[[nodiscard]] MoveEvaluation evaluateMove(const system::ParticleSystem& sys,
                                          TriPoint l, Direction d);

}  // namespace sops::core

#endif  // SOPS_CORE_PROPERTIES_HPP

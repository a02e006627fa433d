#ifndef SOPS_CORE_MOVE_TABLE_HPP
#define SOPS_CORE_MOVE_TABLE_HPP

/// \file move_table.hpp
/// Precomputed per-ring-mask move structure for Algorithm M's hot path.
///
/// Every structural quantity the chain needs — e, e', the gap condition
/// e ≠ 5, Property 1, Property 2 — is a pure function of the 8-bit ring
/// mask of the proposed move (properties.hpp).  There are only 256 masks,
/// so all of it is precomputed into kMoveTable and a chain step collapses
/// to: one occupancy test for ℓ', one ring-mask gather, one 4-byte table
/// load.  The table is built from the reference predicates
/// property1Holds / property2Holds (single source of truth) — at compile
/// time, so the invariant proofs at the bottom of this header hold by
/// static_assert and the test suite's geometric re-validation
/// (tests/move_table_test.cpp) is a second, independent check.
///
/// Reversal identity used by the proofs.  The reverse of move (ℓ, d) is
/// (ℓ' = ℓ + d, opposite(d)); its ring is the same eight lattice cells,
/// re-indexed.  Chasing the indexing in properties.hpp through the axial
/// identity u_k + u_{k+2} = u_{k+1} shows the re-indexing is exactly
/// idx → idx + 4 (mod 8), i.e. the reverse move's mask is the original
/// rotated left by four bits.  That turns the paper's reversibility
/// argument (detailed balance needs e/e' and the properties to look the
/// same from both endpoints) into eight byte-level identities checked
/// below for all 256 masks.

#include <array>
#include <cmath>
#include <cstdint>

#include "core/properties.hpp"

namespace sops::core {

struct MoveTableEntry {
  std::uint8_t eBefore;  ///< |N(ℓ)\{ℓ'}| — e in the paper
  std::uint8_t eAfter;   ///< |N(ℓ')\{ℓ}| — e'
  std::int8_t delta;     ///< e' − e ∈ [−5, 5]
  std::uint8_t flags;    ///< kGapOk / kProperty1 / kProperty2 / kStructOk
};
static_assert(sizeof(MoveTableEntry) == 4,
              "a chain step budgets one 4-byte load per table probe");

inline constexpr std::uint8_t kMoveGapOk = 1u << 0;      ///< e ≠ 5
inline constexpr std::uint8_t kMoveProperty1 = 1u << 1;  ///< Property 1 holds
inline constexpr std::uint8_t kMoveProperty2 = 1u << 2;  ///< Property 2 holds
/// Conditions (1) and (2) combined: gap OK and Property 1 or 2.
inline constexpr std::uint8_t kMoveStructOk = 1u << 3;

namespace detail {

constexpr std::array<MoveTableEntry, 256> buildMoveTable() {
  std::array<MoveTableEntry, 256> table{};
  for (int m = 0; m < 256; ++m) {
    const auto mask = static_cast<std::uint8_t>(m);
    MoveTableEntry& entry = table[static_cast<std::size_t>(m)];
    entry.eBefore = static_cast<std::uint8_t>(neighborsBefore(mask));
    entry.eAfter = static_cast<std::uint8_t>(neighborsAfter(mask));
    entry.delta = static_cast<std::int8_t>(entry.eAfter - entry.eBefore);
    std::uint8_t flags = 0;
    if (entry.eBefore != 5) flags |= kMoveGapOk;
    if (property1Holds(mask)) flags |= kMoveProperty1;
    if (property2Holds(mask)) flags |= kMoveProperty2;
    if ((flags & kMoveGapOk) && (flags & (kMoveProperty1 | kMoveProperty2))) {
      flags |= kMoveStructOk;
    }
    entry.flags = flags;
  }
  return table;
}

/// Ring mask of the reverse move (ℓ', opposite(d)): the same eight cells
/// under the idx → idx + 4 (mod 8) re-indexing derived in the file comment.
[[nodiscard]] constexpr std::uint8_t reverseRingMask(
    std::uint8_t mask) noexcept {
  return static_cast<std::uint8_t>((mask << 4 | mask >> 4) & 0xFF);
}

}  // namespace detail

/// The full 256-entry table, a compile-time constant.
inline constexpr std::array<MoveTableEntry, 256> kMoveTable =
    detail::buildMoveTable();

/// The full 256-entry table (kept as a function for the pre-constexpr
/// call sites).
[[nodiscard]] constexpr const std::array<MoveTableEntry, 256>&
moveTable() noexcept {
  return kMoveTable;
}

/// Entry for one ring mask.
[[nodiscard]] constexpr const MoveTableEntry& moveTableEntry(
    std::uint8_t mask) noexcept {
  return kMoveTable[mask];
}

/// λ^delta, computed identically everywhere it is needed — the chain's
/// per-mask acceptance thresholds, acceptanceProbability(), and the exact
/// transition-matrix builder all call this one function, so the Metropolis
/// filter cannot drift between the sampled and the enumerated kernel even
/// in the last ulp.  (Deliberately not constexpr: it must stay std::pow
/// bit-for-bit, and std::pow is not a constant expression in C++20.)
[[nodiscard]] inline double lambdaPower(double lambda, int delta) noexcept {
  return std::pow(lambda, static_cast<double>(delta));
}

// ---------------------------------------------------------------------------
// Compile-time proofs over all 256 masks.  Each block is a total check —
// a single counterexample mask fails the build with the assert's text.

namespace detail {

// The neighborhood partition behind e/e' is itself rot4-symmetric: the
// before-side index set {0..4} maps onto the after-side {4..7,0}, and the
// two common cells map onto each other.
static_assert(reverseRingMask(kBeforeMask) == kAfterMask);
static_assert(reverseRingMask(kAfterMask) == kBeforeMask);
static_assert(reverseRingMask(kCommonMask) == kCommonMask);

// Field consistency: e and e' are the advertised popcounts, δ their
// difference, and every ring cell is counted once except the two common
// neighbors, which appear in both e and e'.
static_assert([] {
  for (int m = 0; m < 256; ++m) {
    const auto mask = static_cast<std::uint8_t>(m);
    const MoveTableEntry& entry = kMoveTable[mask];
    if (entry.eBefore != util::popcount64(mask & kBeforeMask)) return false;
    if (entry.eAfter != util::popcount64(mask & kAfterMask)) return false;
    if (entry.delta != entry.eAfter - entry.eBefore) return false;
    if (entry.delta < -5 || entry.delta > 5) return false;
    if (entry.eBefore + entry.eAfter !=
        util::popcount64(mask) + util::popcount64(mask & kCommonMask)) {
      return false;
    }
  }
  return true;
}(), "e/e'/δ must be the ring-mask popcounts they claim to be");

// Reversal symmetry (detailed balance): viewed from ℓ', the move has
// e ↔ e' exchanged (so δ is antisymmetric) and sees the identical
// Property 1 / Property 2 verdicts — the properties are statements about
// the joint neighborhood N(ℓ ∪ ℓ'), not about one endpoint.
static_assert([] {
  for (int m = 0; m < 256; ++m) {
    const auto mask = static_cast<std::uint8_t>(m);
    const MoveTableEntry& fwd = kMoveTable[mask];
    const MoveTableEntry& rev = kMoveTable[reverseRingMask(mask)];
    if (rev.eBefore != fwd.eAfter || rev.eAfter != fwd.eBefore) return false;
    if (rev.delta != -fwd.delta) return false;
    if ((rev.flags & kMoveProperty1) != (fwd.flags & kMoveProperty1)) {
      return false;
    }
    if ((rev.flags & kMoveProperty2) != (fwd.flags & kMoveProperty2)) {
      return false;
    }
  }
  return true;
}(), "move reversal must swap e/e', negate δ, and preserve the properties");

// Property exclusivity and the connectivity floor: Property 1 needs an
// occupied common neighbor, Property 2 demands S = ∅ (so both can never
// hold at once), and a structurally valid move keeps the particle
// attached at both endpoints (e ≥ 1 and e' ≥ 1 — the local connectivity
// guarantee of §3.1) while honoring the gap condition e ≠ 5.
static_assert([] {
  for (int m = 0; m < 256; ++m) {
    const auto mask = static_cast<std::uint8_t>(m);
    const MoveTableEntry& entry = kMoveTable[mask];
    const bool p1 = (entry.flags & kMoveProperty1) != 0;
    const bool p2 = (entry.flags & kMoveProperty2) != 0;
    if (p1 && p2) return false;
    if (p1 != property1Holds(mask) || p2 != property2Holds(mask)) return false;
    const bool structOk = (entry.flags & kMoveStructOk) != 0;
    if (structOk != (entry.eBefore != 5 && (p1 || p2))) return false;
    if (structOk && (entry.eBefore < 1 || entry.eAfter < 1)) return false;
    if (structOk && entry.eBefore == 5) return false;
  }
  return true;
}(), "Properties 1/2 are exclusive and valid moves keep both endpoints "
     "attached");

// The precomputed per-direction ring offsets agree with the geometric
// ringCell definition for every (direction, ring index) pair — the gather
// tables and the §3.1 indexing cannot drift.
static_assert([] {
  for (const Direction d : lattice::kAllDirections) {
    for (int idx = 0; idx < kRingSize; ++idx) {
      const TriPoint origin{0, 0};
      if (!(origin + kRingOffsets[index(d)][static_cast<std::size_t>(idx)] ==
            ringCell(origin, d, idx))) {
        return false;
      }
    }
  }
  return true;
}(), "kRingOffsets must equal the geometric ringCell for all 48 pairs");

}  // namespace detail

}  // namespace sops::core

#endif  // SOPS_CORE_MOVE_TABLE_HPP

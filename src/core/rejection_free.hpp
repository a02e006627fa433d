#ifndef SOPS_CORE_REJECTION_FREE_HPP
#define SOPS_CORE_REJECTION_FREE_HPP

/// \file rejection_free.hpp
/// Rejection-free epochs for chain M in the compressed regime: the n-fold
/// way of Bortz, Kalos and Lebowitz (J. Comput. Phys. 17, 1975), sampling
/// exactly the law of one block-path epoch of core::BlockExecutor.
///
/// **The law.**  A block-path epoch e runs L proposals of M_e: M with
/// every proposal whose widened box leaves its block (under
/// BlockEpoch::draw(seed, e)'s offsets) counted as a boundary reject.
/// Given the configuration σ, one proposal picks a (particle, direction)
/// pair uniformly among the 6n and
///   - rejects it at the boundary if the pair crosses a block line;
///   - otherwise stops at its stage: target occupied, gap, property, or
///     the filter, which accepts with probability a(pair).
/// a depends only on the pair's δ = e′ − e (the decision table's
/// threshold λ^δ, or the greedy rule), and is 0 outside the filter stage.
///
/// **The n-fold way.**  Split every proposal into a *candidate* — the pair
/// chosen in proportion to a, probability A/6n with A = Σ a — and a
/// *failure* otherwise.  Both pick pair i with total probability
/// (a_i + (1 − a_i))/6n = 1/6n, so the split changes nothing.  A candidate
/// that crosses a block line is a boundary reject (thinning); any other
/// candidate is an accepted move.  A failure changes nothing, and the
/// stage it is tallied under has probability proportional to the failure
/// masses
///   boundary Σ_crossing (1 − a), occupied / gap / property their
///   non-crossing pair counts, filter Σ_non-crossing filter (1 − a).
/// Since σ only changes at an accepted move, the failures before the next
/// candidate are Geometric(A/6n) and their stages one multinomial draw
/// over those masses.  The epoch stops exactly after L proposals: a
/// geometric run that reaches the end is cut there, which is exact because
/// the geometric law is memoryless.  All draws come from counter streams
/// keyed by (seed, e) — two per run, one for the geometric gap and the
/// candidate, one for the multinomial split — so an epoch is a pure
/// function of the seed and the configuration.
///
/// **The structure.**  Each pair carries a 4-bit code: occupied, gap,
/// property, or filter class δ + 5 (the decision table's δ).  The index
/// keeps, exactly and in integers:
///   - every pair's code (one u32 per particle);
///   - the count of pairs per code over all pairs (occupied = 2e);
///   - per filter class, the count in each 64-particle chunk and a Fenwick
///     tree over the chunks, so a uniform member of a class is found by
///     its canonical rank (particle id, then direction) in O(log n) —
///     never by insertion order, so the pick does not depend on history;
///   - the epoch's crossing pairs per code, counted at the epoch start by a
///     word-parallel scan of the block-line bands of the occupancy grid
///     (per particle on a tiled system) and kept during it.
/// An accepted move of ℓ → ℓ′ changes the codes of pairs whose ring or
/// target it touches — particles within distance 2 of ℓ or ℓ′ — and only
/// those are refreshed.  About 5 bytes per particle: 0.5 MiB at n = 10⁵.
///
/// Only uniform-weight models without an aux move (compression) and
/// uniform selection qualify: a weight model's a would depend on more than
/// δ, and an aux move on more than the movement pairs.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/biased_chain_engine.hpp"
#include "core/block_executor.hpp"
#include "core/chain_stats.hpp"
#include "core/chunk_fenwick.hpp"
#include "core/compression_chain.hpp"
#include "lattice/direction.hpp"
#include "lattice/tri_point.hpp"
#include "rng/random.hpp"
#include "system/bit_grid.hpp"
#include "system/particle_system.hpp"
#include "util/assert.hpp"
#include "util/mix.hpp"

namespace sops::core {

/// Pair codes: what a movement proposal of the pair would do past the
/// boundary rule.  Filter pairs carry kPairFilter + δ + 5.
inline constexpr std::uint8_t kPairOccupied = 0;
inline constexpr std::uint8_t kPairGap = 1;
inline constexpr std::uint8_t kPairProperty = 2;
inline constexpr std::uint8_t kPairFilter = 3;
inline constexpr int kPairFilterClasses = 11;  ///< δ ∈ [−5, 5]
inline constexpr int kPairCodes = kPairFilter + kPairFilterClasses;

/// Per-code pair counts.
using PairCounts = std::array<std::uint64_t, kPairCodes>;

// The band scan shifts whole words by the direction offsets E (1, 0),
// NE (0, 1), NW (−1, 1), W (−1, 0), SW (0, −1), SE (1, −1).
static_assert([] {
  constexpr std::array<std::array<int, 2>, lattice::kNumDirections> kWant = {
      {{1, 0}, {0, 1}, {-1, 1}, {-1, 0}, {0, -1}, {1, -1}}};
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    const TriPoint off = lattice::offset(lattice::directionFromIndex(d));
    const auto& want = kWant[static_cast<std::size_t>(d)];
    if (off.x != want[0] || off.y != want[1]) return false;
  }
  return true;
}());

inline constexpr std::size_t kRefreshSize = 24;
inline constexpr std::size_t kRefreshNear = 10;

/// Per direction d, the cells within distance 2 of ℓ or ℓ + d, relative
/// to ℓ: every particle whose ring or target an ℓ → ℓ + d move touches.
/// The first kRefreshNear are within distance 1 of ℓ or ℓ + d.
[[nodiscard]] constexpr auto refreshCells() noexcept {
  std::array<std::array<TriPoint, kRefreshSize>, lattice::kNumDirections>
      table{};
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    const TriPoint off = lattice::offset(lattice::directionFromIndex(d));
    std::size_t k = 0;
    for (const int reach : {1, 2}) {
      for (std::int32_t y = -3; y <= 3; ++y) {
        for (std::int32_t x = -3; x <= 3; ++x) {
          const TriPoint cell{x, y};
          const int near = std::min(lattice::latticeDistance({0, 0}, cell),
                                    lattice::latticeDistance(off, cell));
          if (reach == 1 ? near <= 1 : near == 2) {
            if (k < kRefreshSize) table[static_cast<std::size_t>(d)][k] = cell;
            ++k;
          }
        }
      }
    }
  }
  return table;
}

// Two adjacent radius-1 discs share 4 cells (10 in the union); radius-2
// discs add 14 more.
static_assert([] {
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    const TriPoint off = lattice::offset(lattice::directionFromIndex(d));
    std::size_t near = 0;
    std::size_t all = 0;
    for (std::int32_t y = -3; y <= 3; ++y) {
      for (std::int32_t x = -3; x <= 3; ++x) {
        const TriPoint cell{x, y};
        const int r = std::min(lattice::latticeDistance({0, 0}, cell),
                               lattice::latticeDistance(off, cell));
        near += r <= 1 ? 1 : 0;
        all += r <= 2 ? 1 : 0;
      }
    }
    if (near != kRefreshNear || all != kRefreshSize) return false;
  }
  return true;
}());

/// The index of every (particle, direction) pair's code, and the epoch
/// sampler built on it (see the file comment).
class RejectionFreeIndex {
 public:
  /// `decisions` is the runner's decision table (its δ, stage and
  /// thresholds fix every code and acceptance probability); `widen` the
  /// boundary rule's widening, Model::kInteractionRadius − 1.
  RejectionFreeIndex(const std::array<MoveDecision, 256>& decisions,
                     bool greedy, std::int64_t widen)
      : reach_(blockReach(widen)) {
    for (int m = 0; m < 256; ++m) {
      const MoveDecision& decision = decisions[static_cast<std::size_t>(m)];
      std::uint8_t code = kPairFilter + decision.delta + 5;
      if (decision.stage ==
          static_cast<std::uint8_t>(StepOutcome::RejectedGap)) {
        code = kPairGap;
      } else if (decision.stage ==
                 static_cast<std::uint8_t>(StepOutcome::RejectedProperty)) {
        code = kPairProperty;
      }
      maskCode_[static_cast<std::size_t>(m)] = code;
      // The block path accepts iff acceptNoDraw, or (not greedy) a 53-bit
      // uniform k·2⁻⁵³ < threshold: probability ⌈threshold·2⁵³⌉·2⁻⁵³.
      double accept = 1.0;
      if (!decision.acceptNoDraw) {
        accept = greedy ? 0.0
                        : std::ceil(std::ldexp(decision.threshold, 53)) *
                              0x1.0p-53;
      }
      accept_[kPairFilter + decision.delta + 5] = accept;
    }
  }

  /// Recomputes every code and count from the configuration.  Crossing
  /// counts are per epoch: see beginEpoch().
  void rebuild(const system::ParticleSystem& sys) {
    const std::size_t n = sys.size();
    SOPS_REQUIRE(n <= 0xFFFFFFFFu / lattice::kNumDirections,
                 "rejection-free index: too many particles for u32 ranks");
    codes_.assign(n, 0);
    all_.fill(0);
    for (ChunkFenwick& members : members_) members.reset(n);
    for (std::size_t i = 0; i < n; ++i) {
      codes_[i] = codesAt(sys, sys.position(i));
      for (int d = 0; d < lattice::kNumDirections; ++d) {
        const std::uint8_t code = codeOf(codes_[i], d);
        ++all_[code];
        if (code >= kPairFilter) {
          members_[code - kPairFilter].addBeforeBuild(i, 1);
        }
      }
    }
    for (ChunkFenwick& members : members_) members.build();
  }

  /// Counts the epoch's crossing pairs per code: a word-parallel scan of
  /// the block-line bands on a flat grid, a pass over the particles near a
  /// block edge otherwise.
  void beginEpoch(const system::ParticleSystem& sys, const BlockEpoch& ep) {
    if (!sys.grid().tiled()) {
      countCrossingsByBands(sys, ep);
    } else {
      countCrossingsByParticles(sys, ep);
    }
  }

  /// Runs one epoch of `length` proposals on `sys` (which must have its
  /// cell → id index live), adding its outcomes to `stats` and `edges`;
  /// returns its boundary rejects (tallied by the executor).
  /// `onMoved(particle, from, to)` follows each executed move (the model's
  /// hook).  With `verifyEachMove`, every accepted move is followed by a
  /// comparison against a from-scratch rebuild, which must agree.
  template <typename OnMoved>
  std::uint64_t runEpoch(system::ParticleSystem& sys, const BlockEpoch& ep,
                         std::uint64_t length, EngineStats& stats,
                         std::int64_t& edges, OnMoved&& onMoved,
                         bool verifyEachMove = false) {
    beginEpoch(sys, ep);
    const std::uint64_t key = util::mix64(ep.moveKey ^ kStreamSalt);
    const double pairs =
        static_cast<double>(lattice::kNumDirections * codes_.size());
    std::uint64_t boundaryRejects = 0;
    std::uint64_t remaining = length;
    for (std::uint64_t run = 0; remaining > 0; ++run) {
      rng::CounterStream draw(key, 2 * run);
      rng::CounterStream split(key, 2 * run + 1);
      const double mass = acceptMass();
      const std::uint64_t gap =
          mass > 0.0 ? draw.geometric(std::min(1.0, mass / pairs))
                     : ~std::uint64_t{0};
      const std::uint64_t failures = std::min(gap, remaining);
      if (failures > 0) {
        boundaryRejects += splitFailures(split, failures, stats);
        remaining -= failures;
        if (remaining == 0) break;
      }
      // The candidate: pair ∝ a, then the boundary rule thins it.
      --remaining;
      ++stats.steps;
      const auto [particle, direction] = pick(draw, mass);
      const TriPoint from = sys.position(particle);
      if (!ep.inside(from, reach_[static_cast<std::size_t>(direction)])) {
        ++boundaryRejects;
        continue;
      }
      const std::uint8_t code = codeOf(codes_[particle], direction);
      const TriPoint to =
          lattice::neighbor(from, lattice::directionFromIndex(direction));
      sys.moveParticle(particle, to);
      edges += code - kPairFilter - 5;
      stats.movement.record(StepOutcome::Accepted);
      onMoved(particle, from, to);
      refresh(sys, ep, particle, from, direction);
      if (verifyEachMove) {
        SOPS_REQUIRE(matchesRebuild(sys, ep),
                     "rejection-free index drifted from a rebuild");
      }
    }
    SOPS_DASSERT(matchesRebuild(sys, ep));
    return boundaryRejects;
  }

  /// True when the incrementally kept codes, per-code counts, chunk counts,
  /// Fenwick trees and crossing counts equal a from-scratch rebuild's
  /// (crossings counted particle by particle, independently of the band
  /// scan).  O(n): the brute-force check of the tests and debug builds.
  [[nodiscard]] bool matchesRebuild(const system::ParticleSystem& sys,
                                    const BlockEpoch& ep) const {
    RejectionFreeIndex fresh = *this;
    fresh.rebuild(sys);
    fresh.countCrossingsByParticles(sys, ep);
    return fresh.codes_ == codes_ && fresh.all_ == all_ &&
           fresh.members_ == members_ && fresh.crossing_ == crossing_;
  }

  /// Counts the epoch's crossing pairs particle by particle into the
  /// current crossing counts — the reference for the band scan.
  void countCrossingsByParticles(const system::ParticleSystem& sys,
                                 const BlockEpoch& ep) {
    crossing_.fill(0);
    for (std::size_t i = 0; i < codes_.size(); ++i) {
      const TriPoint p = sys.position(i);
      if (ep.inside(p, reach_[kReachRing])) continue;  // no pair crosses
      for (int d = 0; d < lattice::kNumDirections; ++d) {
        if (!ep.inside(p, reach_[static_cast<std::size_t>(d)])) {
          ++crossing_[codeOf(codes_[i], d)];
        }
      }
    }
  }

  /// Counts the epoch's crossing pairs from the occupancy grid alone, 64
  /// cells at a time, over the grid's window (meant for a flat grid: a
  /// tiled grid's box can be far larger than its tiles).  Block lines sit
  /// at absolute multiples of 64, so every aligned 64-cell word is the
  /// left or the right half of one block row: its band cells are a few
  /// bits at one end, or the whole word in a band row.  Occupied targets
  /// are counted by popcount; the few band pairs with an empty target are
  /// classified by their ring.
  void countCrossingsByBands(const system::ParticleSystem& sys,
                             const BlockEpoch& ep) {
    const system::BitGrid& grid = sys.grid();
    crossing_.fill(0);
    constexpr std::int64_t kSize = BlockEpoch::kBlockSize;
    // Per direction: the band bits of a left-half and of a right-half word.
    std::array<std::uint64_t, lattice::kNumDirections> left{};
    std::array<std::uint64_t, lattice::kNumDirections> right{};
    for (int d = 0; d < lattice::kNumDirections; ++d) {
      const BlockReach& box = reach_[static_cast<std::size_t>(d)];
      left[static_cast<std::size_t>(d)] =
          (std::uint64_t{1} << -box.loX) - 1;  // local x < −loX
      right[static_cast<std::size_t>(d)] =
          ~std::uint64_t{0} << (64 - box.hiX);  // local x > 127 − hiX
    }
    const std::int64_t x0 = (grid.originX() >> 6) << 6;
    const std::int64_t x1 =
        grid.originX() + static_cast<std::int64_t>(grid.width());
    const std::int64_t y0 = grid.originY();
    const std::int64_t y1 = y0 + static_cast<std::int64_t>(grid.height());
    for (std::int64_t y = y0; y < y1; ++y) {
      const std::int64_t ly = (y - ep.offsetY) & (kSize - 1);
      std::array<bool, lattice::kNumDirections> rowCrosses{};
      for (int d = 0; d < lattice::kNumDirections; ++d) {
        const BlockReach& box = reach_[static_cast<std::size_t>(d)];
        rowCrosses[static_cast<std::size_t>(d)] =
            ly + box.loY < 0 || ly + box.hiY >= kSize;
      }
      for (std::int64_t x = x0; x < x1; x += 64) {
        const std::uint64_t cells = grid.rowBits(x, y);
        if (cells == 0) continue;
        const bool leftHalf = ((x - ep.offsetX) & (kSize - 1)) == 0;
        std::array<std::uint64_t, lattice::kNumDirections> crossing{};
        std::uint64_t any = 0;
        for (std::size_t d = 0; d < crossing.size(); ++d) {
          crossing[d] = cells & (rowCrosses[d] ? ~std::uint64_t{0}
                                 : leftHalf   ? left[d]
                                              : right[d]);
          any |= crossing[d];
        }
        if (any == 0) continue;
        // The targets of all 64 cells in each direction, from the six
        // words around this one (E, NE, NW, W, SW, SE: the offsets the
        // static_assert above the class pins).
        const std::uint64_t west = grid.rowBits(x - 64, y);
        const std::uint64_t east = grid.rowBits(x + 64, y);
        const std::uint64_t up = grid.rowBits(x, y + 1);
        const std::uint64_t upWest = grid.rowBits(x - 64, y + 1);
        const std::uint64_t down = grid.rowBits(x, y - 1);
        const std::uint64_t downEast = grid.rowBits(x + 64, y - 1);
        const std::array<std::uint64_t, lattice::kNumDirections> targets = {
            (cells >> 1) | (east << 63),  up,   (up << 1) | (upWest >> 63),
            (cells << 1) | (west >> 63),  down, (down >> 1) | (downEast << 63)};
        for (std::size_t d = 0; d < crossing.size(); ++d) {
          crossing_[kPairOccupied] += static_cast<std::uint64_t>(
              std::popcount(crossing[d] & targets[d]));
          for (std::uint64_t open = crossing[d] & ~targets[d]; open != 0;
               open &= open - 1) {
            const TriPoint cell{
                static_cast<std::int32_t>(x + std::countr_zero(open)),
                static_cast<std::int32_t>(y)};
            ++crossing_[maskCode_[sys.ringMask(
                cell, lattice::directionFromIndex(static_cast<int>(d)))]];
          }
        }
      }
    }
  }

  /// Σ over pairs of the acceptance probability a.
  [[nodiscard]] double acceptMass() const noexcept {
    double mass = 0.0;
    for (int c = kPairFilter; c < kPairCodes; ++c) {
      mass += static_cast<double>(all_[static_cast<std::size_t>(c)]) *
              accept_[static_cast<std::size_t>(c)];
    }
    return mass;
  }

  /// Pairs per code, over all pairs and over the epoch's crossing pairs.
  [[nodiscard]] const PairCounts& counts() const noexcept { return all_; }
  [[nodiscard]] const PairCounts& crossingCounts() const noexcept {
    return crossing_;
  }
  /// Bytes held by the index's arrays.
  [[nodiscard]] std::size_t memoryBytes() const noexcept {
    std::size_t bytes = codes_.capacity() * sizeof(std::uint32_t);
    for (const ChunkFenwick& members : members_) bytes += members.memoryBytes();
    return bytes;
  }

 private:
  /// "rejfree": the epoch's stream key is mix64(moveKey ^ salt).
  static constexpr std::uint64_t kStreamSalt = 0x72656a66726565ULL;

  /// Particle, direction.
  struct Pair {
    std::uint32_t particle;
    int direction;
  };

  [[nodiscard]] static std::uint8_t codeOf(std::uint32_t codes,
                                           int d) noexcept {
    return static_cast<std::uint8_t>((codes >> (4 * d)) & 0xF);
  }

  /// The six codes of the pairs of a particle at p, packed 4 bits each.
  [[nodiscard]] std::uint32_t codesAt(const system::ParticleSystem& sys,
                                      TriPoint p) const noexcept {
    std::uint32_t codes = 0;
    for (int d = 0; d < lattice::kNumDirections; ++d) {
      const lattice::Direction dir = lattice::directionFromIndex(d);
      const std::uint8_t code = sys.occupiedNear(lattice::neighbor(p, dir))
                                    ? kPairOccupied
                                    : maskCode_[sys.ringMask(p, dir)];
      codes |= std::uint32_t{code} << (4 * d);
    }
    return codes;
  }

  /// Candidate pair ∝ a: a class by mass, then a uniform member of it by
  /// canonical rank.
  [[nodiscard]] Pair pick(rng::CounterStream& draw, double mass) const {
    const double target = draw.uniform() * mass;
    int cls = -1;
    double cumulative = 0.0;
    for (int c = kPairFilter; c < kPairCodes; ++c) {
      const double m = static_cast<double>(all_[static_cast<std::size_t>(c)]) *
                       accept_[static_cast<std::size_t>(c)];
      if (m <= 0.0) continue;
      cls = c;  // rounding at the top end falls to the last positive class
      cumulative += m;
      if (target < cumulative) break;
    }
    SOPS_DASSERT(cls >= 0);
    const auto code = static_cast<std::uint8_t>(cls);
    // The chunk holding the rank-th member of the class.
    auto [first, rank] =
        members_[static_cast<std::size_t>(cls - kPairFilter)].descend(
            draw.below(static_cast<std::uint32_t>(
                all_[static_cast<std::size_t>(cls)])));
    // Within the chunk: skip whole particles by their match count (a
    // nibble of codes ^ code·0x111111 is zero exactly where it matches).
    const std::size_t end =
        std::min(codes_.size(), first + ChunkFenwick::kChunk);
    for (std::size_t i = first; i < end; ++i) {
      std::uint32_t diff = codes_[i] ^ (std::uint32_t{code} * 0x111111u);
      diff |= diff >> 1;
      diff |= diff >> 2;
      const auto matches = static_cast<std::uint32_t>(
          lattice::kNumDirections - std::popcount(diff & 0x111111u));
      if (rank >= matches) {
        rank -= matches;
        continue;
      }
      for (int d = 0; d < lattice::kNumDirections; ++d) {
        if (codeOf(codes_[i], d) != code) continue;
        if (rank == 0) return {static_cast<std::uint32_t>(i), d};
        --rank;
      }
    }
    SOPS_REQUIRE(false, "rejection-free index: class count out of sync");
    return {};
  }

  /// Tallies `failures` failed proposals by one multinomial draw over the
  /// stage masses (conditional binomials, largest stage last); returns
  /// the boundary rejects among them.
  std::uint64_t splitFailures(rng::CounterStream& split,
                              std::uint64_t failures, EngineStats& stats) {
    double boundary = 0.0;
    double filter = 0.0;
    for (int c = 0; c < kPairCodes; ++c) {
      const auto code = static_cast<std::size_t>(c);
      const double reject = c >= kPairFilter ? 1.0 - accept_[code] : 1.0;
      boundary += static_cast<double>(crossing_[code]) * reject;
      if (c >= kPairFilter) {
        filter += static_cast<double>(all_[code] - crossing_[code]) * reject;
      }
    }
    const auto inside = [&](std::uint8_t code) {
      return static_cast<double>(all_[code] - crossing_[code]);
    };
    // Stage order: boundary, gap, property, filter, occupied (the rest).
    const std::array<double, 5> masses = {boundary, inside(kPairGap),
                                          inside(kPairProperty), filter,
                                          inside(kPairOccupied)};
    std::array<std::uint64_t, 5> drawn{};
    std::uint64_t left = failures;
    double suffix = 0.0;
    std::array<double, 5> tail{};
    for (int s = 4; s >= 0; --s) {
      suffix += masses[static_cast<std::size_t>(s)];
      tail[static_cast<std::size_t>(s)] = suffix;
    }
    for (std::size_t s = 0; s + 1 < masses.size(); ++s) {
      const double p = tail[s] > 0.0 ? masses[s] / tail[s] : 0.0;
      drawn[s] = split.binomial(left, p);
      left -= drawn[s];
    }
    drawn[4] = left;
    stats.steps += failures;
    stats.movement.steps += failures - drawn[0];
    stats.movement.rejectedGap += drawn[1];
    stats.movement.rejectedProperty += drawn[2];
    stats.movement.rejectedFilter += drawn[3];
    stats.movement.targetOccupied += drawn[4];
    return drawn[0];
  }

  /// After particle `moved` went from `from` in direction d: recomputes the
  /// codes of every particle within distance 2 of either endpoint.
  /// Beyond distance 1 of ℓ and ℓ′ a particle's neighbours did not
  /// change, so one with all six still occupied keeps six "occupied" codes
  /// and is skipped without an id lookup — most of them, in a compressed
  /// configuration.
  void refresh(const system::ParticleSystem& sys, const BlockEpoch& ep,
               std::uint32_t moved, TriPoint from, int d) {
    const auto& cells = kRefreshCells[static_cast<std::size_t>(d)];
    for (std::size_t k = 0; k < cells.size(); ++k) {
      const TriPoint cell = from + cells[k];
      if (!sys.occupied(cell)) continue;
      if (k >= kRefreshNear && fullNeighborhood(sys, cell)) {
        continue;
      }
      const std::optional<std::size_t> id = sys.particleAt(cell);
      if (!id) continue;  // unreachable: the cell is occupied
      update(sys, ep, *id, *id == moved ? from : cell, cell);
    }
  }

  /// All six neighbours of the particle at p are occupied.
  [[nodiscard]] static bool fullNeighborhood(const system::ParticleSystem& sys,
                                             TriPoint p) noexcept {
    constexpr std::uint8_t kAll = (1u << lattice::kNumDirections) - 1;
    return sys.grid().neighborMaskUnchecked(p) == kAll;
  }

  /// Moves particle i's six pairs from their old codes (at `before`) to
  /// the codes at `after`, in every count.
  void update(const system::ParticleSystem& sys, const BlockEpoch& ep,
              std::size_t i, TriPoint before, TriPoint after) {
    const std::uint32_t oldCodes = codes_[i];
    const std::uint32_t newCodes = codesAt(sys, after);
    const bool moved = !(before == after);
    if (oldCodes == newCodes && !moved) return;
    codes_[i] = newCodes;
    for (int d = 0; d < lattice::kNumDirections; ++d) {
      const std::uint8_t was = codeOf(oldCodes, d);
      const std::uint8_t now = codeOf(newCodes, d);
      if (was != now) {
        --all_[was];
        ++all_[now];
        if (was >= kPairFilter) members_[was - kPairFilter].add(i, -1);
        if (now >= kPairFilter) members_[now - kPairFilter].add(i, +1);
      }
      const BlockReach& box = reach_[static_cast<std::size_t>(d)];
      if (!ep.inside(before, box)) --crossing_[was];
      if (!ep.inside(after, box)) ++crossing_[now];
    }
  }

  /// See refreshCells().
  static constexpr auto kRefreshCells = refreshCells();

  std::array<BlockReach, kReachRing + 1> reach_;
  std::array<std::uint8_t, 256> maskCode_{};
  std::array<double, kPairCodes> accept_{};  ///< a per code (0 off-filter)
  std::vector<std::uint32_t> codes_;  ///< 6 × 4-bit codes per particle
  PairCounts all_{};
  PairCounts crossing_{};
  /// Per filter class: its pairs per particle, by chunk.
  std::array<ChunkFenwick, kPairFilterClasses> members_;
};

}  // namespace sops::core

#endif  // SOPS_CORE_REJECTION_FREE_HPP

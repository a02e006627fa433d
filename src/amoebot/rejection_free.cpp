#include "amoebot/rejection_free.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "core/rejection_free.hpp"
#include "util/assert.hpp"
#include "util/mix.hpp"

namespace sops::amoebot {

namespace {

/// See core::refreshCells(): per direction d, the first kRefreshNear
/// cells are those within distance 1 of ℓ or ℓ + d.
constexpr auto kRefreshCells = core::refreshCells();

/// Per direction d and refresh cell k: the neighbour bits, seen from the
/// cell, of ℓ and of ℓ′ = ℓ + d (0 where not adjacent, and for ℓ, ℓ′
/// themselves).
struct PairBits {
  std::uint8_t from = 0;
  std::uint8_t to = 0;
};
constexpr auto kPairBits = [] {
  std::array<std::array<PairBits, core::kRefreshNear>, lattice::kNumDirections>
      table{};
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    const TriPoint to = lattice::offset(lattice::directionFromIndex(d));
    for (std::size_t k = 0; k < core::kRefreshNear; ++k) {
      const TriPoint cell = kRefreshCells[static_cast<std::size_t>(d)][k];
      const auto bitToward = [&](TriPoint pairCell) {
        const std::optional<lattice::Direction> dir =
            lattice::directionBetween(cell, pairCell);
        return dir ? static_cast<std::uint8_t>(1u << index(*dir))
                   : std::uint8_t{0};
      };
      table[static_cast<std::size_t>(d)][k] = {bitToward({0, 0}),
                                                bitToward(to)};
    }
  }
  return table;
}();

}  // namespace

std::uint8_t RejectionFreeIndex::contractedKey(
    const AmoebotSystem::Neighborhood& nb) noexcept {
  const auto empty = static_cast<std::uint8_t>(kDirections & ~nb.occupied);
  // Legal expansions (step 3: an empty target, no expanded neighbour) and
  // whether a Byzantine particle could expand at all.
  return static_cast<std::uint8_t>((nb.expanded != 0 ? 0 : empty) |
                                   (empty != 0 ? kSixPorts : 0));
}

std::uint8_t RejectionFreeIndex::contractedByte(const Particle& p,
                                                std::uint8_t key) noexcept {
  if (p.crashed) return 0;
  return static_cast<std::uint8_t>(key &
                                   (p.byzantine ? kSixPorts : kDirections));
}

std::uint8_t RejectionFreeIndex::byteOf(const AmoebotSystem& sys,
                                        std::size_t i) {
  const Particle& p = sys.particle(i);
  if (p.expanded) return p.crashed || p.byzantine ? 0 : kSixPorts;
  return contractedByte(p, contractedKey(sys.neighborhood(p.tail)));
}

std::uint8_t RejectionFreeIndex::crossingDirections(
    TriPoint tail, const core::BlockEpoch& ep) noexcept {
  if (ep.inside(tail, kReach[core::kReachRing])) return 0;  // none cross
  std::uint8_t mask = 0;
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    if (!ep.inside(tail, kReach[static_cast<std::size_t>(d)])) {
      mask = static_cast<std::uint8_t>(mask | (1u << d));
    }
  }
  return mask;
}

int RejectionFreeIndex::crossingOf(const Particle& p, std::uint8_t byte,
                                   const core::BlockEpoch& ep) noexcept {
  if ((byte & kSixPorts) != 0) return 0;  // every port is a candidate
  if (p.expanded || p.byzantine) {
    // Every port tests the same box: all six cross or none do.
    const int reach = p.expanded ? p.expandDir : core::kReachRing;
    return ep.inside(p.tail, kReach[static_cast<std::size_t>(reach)])
               ? 0
               : kPorts;
  }
  return std::popcount(
      static_cast<std::uint8_t>(crossingDirections(p.tail, ep) & ~byte));
}

void RejectionFreeIndex::rebuild(const AmoebotSystem& sys) {
  const std::size_t n = sys.size();
  SOPS_REQUIRE(n <= 0xFFFFFFFFu / kPorts,
               "rejection-free index: too many particles for u32 ranks");
  state_.resize(n);
  masses_.reset(n);
  tails_.assign(static_cast<std::size_t>(kSide * kSide), 0);
  faulty_.clear();
  mass_ = 0;
  crossing_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    state_[i] = byteOf(sys, i);
    const int mass = massOf(state_[i]);
    masses_.addBeforeBuild(i, mass);
    mass_ += static_cast<std::uint64_t>(mass);
    const Particle& p = sys.particle(i);
    if (inHistogram(p)) {
      ++tails_[histogramCell(p.tail)];
    } else if (p.byzantine || p.crashed) {
      faulty_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  masses_.build();
}

void RejectionFreeIndex::beginEpoch(const AmoebotSystem& sys,
                                    const core::BlockEpoch& ep) {
  // Every histogram particle's crossing pairs: a cell at local block
  // coordinates (lx, ly) crosses only within 2 of a block line, so only
  // the bands lx, ly ∈ {0, 1, 126, 127} count.
  std::int64_t crossing = 0;
  const auto addCell = [&](std::int64_t lx, std::int64_t ly) {
    const TriPoint cell{static_cast<std::int32_t>(ep.offsetX + lx),
                        static_cast<std::int32_t>(ep.offsetY + ly)};
    const std::uint32_t tails = tails_[histogramCell(cell)];
    if (tails != 0) {
      crossing += static_cast<std::int64_t>(tails) *
                  std::popcount(crossingDirections(cell, ep));
    }
  };
  constexpr std::array<std::int64_t, 4> kBands = {0, 1, kSide - 2, kSide - 1};
  for (std::int64_t ly = 0; ly < kSide; ++ly) {
    if (ly < 2 || ly >= kSide - 2) {
      for (std::int64_t lx = 0; lx < kSide; ++lx) addCell(lx, ly);
    } else {
      for (const std::int64_t lx : kBands) addCell(lx, ly);
    }
  }
  // Less their candidate pairs: the contracted particles with legal
  // expansions, found through the chunks that hold any mass.
  constexpr std::size_t kChunk = core::ChunkFenwick::kChunk;
  for (std::size_t chunk = 0; chunk < masses_.chunks(); ++chunk) {
    if (masses_.chunkSum(chunk) == 0) continue;
    const std::size_t end = std::min(state_.size(), (chunk + 1) * kChunk);
    for (std::size_t i = chunk * kChunk; i < end; ++i) {
      const std::uint8_t legal = state_[i] & kDirections;
      if (legal == 0) continue;
      crossing -= std::popcount(static_cast<std::uint8_t>(
          crossingDirections(sys.particle(i).tail, ep) & legal));
    }
  }
  for (const std::uint32_t i : faulty_) {
    crossing += crossingOf(sys.particle(i), state_[i], ep);
  }
  crossing_ = crossing;
}

std::int64_t RejectionFreeIndex::crossingByParticles(
    const AmoebotSystem& sys, const core::BlockEpoch& ep) const {
  std::int64_t crossing = 0;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    crossing += crossingOf(sys.particle(i), state_[i], ep);
  }
  return crossing;
}

void RejectionFreeIndex::setByte(std::size_t i, std::uint8_t byte) noexcept {
  const int delta = massOf(byte) - massOf(state_[i]);
  state_[i] = byte;
  if (delta == 0) return;
  mass_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(mass_) + delta);
  masses_.add(i, delta);
}

void RejectionFreeIndex::update(const AmoebotSystem& sys,
                                const core::BlockEpoch& ep, std::size_t i,
                                std::uint8_t key) {
  const Particle& p = sys.particle(i);
  const std::uint8_t was = state_[i];
  const std::uint8_t now = contractedByte(p, key);
  if (was == now) return;
  crossing_ += crossingOf(p, now, ep) - crossingOf(p, was, ep);
  setByte(i, now);
}

RejectionFreeIndex::Pick RejectionFreeIndex::pick(std::uint32_t rank) const {
  const core::ChunkFenwick::Position chunk = masses_.descend(rank);
  rank = chunk.rank;
  const std::size_t end =
      std::min(state_.size(), chunk.first + core::ChunkFenwick::kChunk);
  for (std::size_t i = chunk.first; i < end; ++i) {
    const auto mass = static_cast<std::uint32_t>(massOf(state_[i]));
    if (rank < mass) return {static_cast<std::uint32_t>(i), rank};
    rank -= mass;
  }
  SOPS_REQUIRE(false, "rejection-free index: chunk mass out of sync");
  return {};
}

std::uint64_t RejectionFreeIndex::runEpoch(AmoebotSystem& sys,
                                           const core::BlockEpoch& ep,
                                           std::uint64_t length,
                                           ActivationTallies& tallies,
                                           bool verifyEachEvent) {
  beginEpoch(sys, ep);
  const std::uint64_t key = util::mix64(ep.moveKey ^ kStreamSalt);
  const std::uint64_t pairs = kPorts * state_.size();
  std::uint64_t skipped = 0;
  std::uint64_t remaining = length;
  for (std::uint64_t run = 0; remaining > 0; ++run) {
    rng::CounterStream draw(key, 2 * run);
    rng::CounterStream split(key, 2 * run + 1);
    const std::uint64_t gap =
        mass_ > 0 ? draw.geometric(static_cast<double>(mass_) /
                                   static_cast<double>(pairs))
                  : ~std::uint64_t{0};
    const std::uint64_t failures = std::min(gap, remaining);
    if (failures > 0) {
      // Failures are non-candidate pairs: skipped when they cross.
      const std::uint64_t crossed =
          split.binomial(failures, static_cast<double>(crossing_) /
                                       static_cast<double>(pairs - mass_));
      skipped += crossed;
      tallies.idle += failures - crossed;
      remaining -= failures;
      if (remaining == 0) break;
    }
    // The candidate: a particle ∝ mass and one of its candidate ports,
    // then the boundary rule thins it.
    --remaining;
    const Pick candidate = pick(draw.below(static_cast<std::uint32_t>(mass_)));
    const std::size_t i = candidate.particle;
    const Particle before = sys.particle(i);
    const std::uint8_t byteBefore = state_[i];
    int port = 0;
    int reach = before.expandDir;
    if (!before.expanded) {
      if (before.byzantine) {
        port = static_cast<int>(candidate.rank);  // probes from any port
        reach = core::kReachRing;
      } else {
        std::uint32_t rank = candidate.rank;
        for (port = 0; port < kPorts; ++port) {
          reach = index(sys.globalDirection(i, port));
          if ((byteBefore >> reach & 1) == 0) continue;
          if (rank == 0) break;
          --rank;
        }
        SOPS_DASSERT(port < kPorts);
      }
    }
    if (!ep.inside(before.tail, kReach[static_cast<std::size_t>(reach)])) {
      ++skipped;
      continue;
    }

    const ActivationResult result = algo_->activate(sys, i, port, draw);
    SOPS_DASSERT(result != ActivationResult::Idle);
    tallies.record(result);

    // The particle itself: its record changed too.
    const Particle& after = sys.particle(i);
    const std::uint8_t byteAfter = byteOf(sys, i);
    if (inHistogram(before)) --tails_[histogramCell(before.tail)];
    if (inHistogram(after)) ++tails_[histogramCell(after.tail)];
    crossing_ += crossingOf(after, byteAfter, ep) -
                 crossingOf(before, byteBefore, ep);
    setByte(i, byteAfter);
    refreshNeighbors(sys, ep, before, after, result);
    if (verifyEachEvent) {
      SOPS_REQUIRE(result != ActivationResult::Idle,
                   "rejection-free index: a candidate activation ran Idle");
      SOPS_REQUIRE(matchesRebuild(sys, ep),
                   "rejection-free index drifted from a rebuild");
    }
  }
  SOPS_DASSERT(matchesRebuild(sys, ep));
  return skipped;
}

void RejectionFreeIndex::refreshNeighbors(const AmoebotSystem& sys,
                                          const core::BlockEpoch& ep,
                                          const Particle& before,
                                          const Particle& after,
                                          ActivationResult result) {
  // The pair (ℓ, ℓ′): the expansion just made, or the one just undone.
  const int d = after.expanded ? after.expandDir : before.expandDir;
  const TriPoint from = before.tail;
  const TriPoint to = from + lattice::offset(lattice::directionFromIndex(d));
  // Only ℓ and ℓ′ changed: occupied and contracted / empty before an
  // expansion, both cells of an expanded particle before a contraction.
  const bool expansion = result == ActivationResult::Expanded;
  const auto& cells = kRefreshCells[static_cast<std::size_t>(d)];
  const auto& pairBits = kPairBits[static_cast<std::size_t>(d)];
  for (std::size_t k = 0; k < core::kRefreshNear; ++k) {
    const TriPoint cell = from + cells[k];
    if (cell == from || cell == to) continue;
    // Other cells hold the particles they held before; expanded ones do
    // not change, contracted ones only when their neighbourhood changed
    // as their byte reads it.
    if (!sys.occupiedNear(cell)) continue;
    const AmoebotSystem::Neighborhood now = sys.neighborhood(cell);
    if (now.hereExpanded) continue;
    const std::uint8_t pair = pairBits[k].from | pairBits[k].to;
    const std::uint8_t fromBit = pairBits[k].from;
    AmoebotSystem::Neighborhood was = now;
    was.occupied = static_cast<std::uint8_t>(
        (now.occupied & ~pair) | (expansion ? fromBit : pair));
    was.expanded = static_cast<std::uint8_t>((now.expanded & ~pair) |
                                             (expansion ? 0 : pair));
    const std::uint8_t key = contractedKey(now);
    if (key == contractedKey(was)) continue;
    update(sys, ep, static_cast<std::size_t>(sys.at(cell).particle), key);
  }
}

bool RejectionFreeIndex::matchesRebuild(const AmoebotSystem& sys,
                                        const core::BlockEpoch& ep) const {
  RejectionFreeIndex fresh(*algo_);
  fresh.rebuild(sys);
  fresh.beginEpoch(sys, ep);
  return fresh.state_ == state_ && fresh.mass_ == mass_ &&
         fresh.crossing_ == crossing_ &&
         fresh.crossingByParticles(sys, ep) == crossing_ &&
         fresh.masses_ == masses_ && fresh.tails_ == tails_ && fresh.faulty_ == faulty_;
}

}  // namespace sops::amoebot

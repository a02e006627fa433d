#include "amoebot/parallel_scheduler.hpp"

#include <algorithm>
#include <string>

#include "util/popcount.hpp"

namespace sops::amoebot {

namespace {

[[nodiscard]] double rateSumOf(const ShardedOptions& options,
                               std::size_t particles) {
  if (options.rates.empty()) return static_cast<double>(particles);
  double sum = 0.0;
  for (const double rate : options.rates) sum += rate;
  return sum;
}

/// Removes one `key` from `cells` (order is not kept).
void eraseCell(std::vector<std::uint16_t>& cells, std::uint16_t key) {
  const auto it = std::find(cells.begin(), cells.end(), key);
  SOPS_DASSERT(it != cells.end());
  *it = cells.back();
  cells.pop_back();
}

}  // namespace

// --- the block rule ---------------------------------------------------------

void RejectionFreeRule::runBlock(AmoebotSystem& sys, RejectionFreeBlock& block,
                                 std::uint64_t key,
                                 bool verifyEachEvent) const {
  block.rebuild(sys, *this);
  block.run(sys, *this, key, verifyEachEvent);
}

void RejectionFreeBlock::reset(const core::BlockEpoch& ep, std::int64_t bx,
                               std::int64_t by, std::uint32_t particles,
                               const core::RowSet& rows,
                               std::uint64_t proposals) noexcept {
  place(ep, bx, by, particles, rows, proposals);
  tallies_ = {};
  moves_.clear();
}

std::uint64_t RejectionFreeBlock::candidateMass() const noexcept {
  std::uint64_t mass = 0;
  for (int bit = 0; bit < kSixPortsBit; ++bit) {
    mass += cells_[static_cast<std::size_t>(bit)].size();
  }
  return mass + lattice::kNumDirections * cells_[kSixPortsBit].size();
}

std::size_t RejectionFreeBlock::memoryBytes() const noexcept {
  std::size_t bytes = sizeof(*this) + codes_.capacity() * sizeof(Code) +
                      moves_.capacity() * sizeof(Move);
  for (const std::vector<std::uint16_t>& cells : cells_) {
    bytes += cells.capacity() * sizeof(std::uint16_t);
  }
  return bytes;
}

std::uint32_t RejectionFreeBlock::idAt(const AmoebotSystem& sys,
                                       TriPoint cell) const {
  // The frozen index holds the epoch start: right unless a contraction to
  // the head has moved the tail it names away since.  (That particle was
  // in this block, so it still is.)  Otherwise the latest contraction into
  // the cell brought the tail there.
  const std::int32_t id = sys.frozenTailId(cell);
  if (id != AmoebotSystem::CellView::kEmpty &&
      sys.particle(static_cast<std::size_t>(id)).tail == cell) {
    return static_cast<std::uint32_t>(id);
  }
  for (auto it = moves_.rbegin(); it != moves_.rend(); ++it) {
    if (it->to == cell) return it->particle;
  }
  SOPS_REQUIRE(false, "rejection-free block: a tail without its particle");
  return 0;
}

RejectionFreeBlock::Code RejectionFreeBlock::codeAt(
    const AmoebotSystem& sys, const RejectionFreeRule& rule, std::int64_t x,
    std::int64_t y) const {
  const TriPoint cell = cellAt(x, y);
  const system::BitGrid& occ = sys.occupancyGrid();
  if (!occ.testUnchecked(cell)) return 0;
  // Heads are expanded cells, and hold no tail.
  const bool expanded = sys.expandedGrid().testUnchecked(cell);
  if (expanded && sys.headGrid().testUnchecked(cell)) return 0;
  const std::uint8_t nonCrossing = rule.nonCrossingMask(x, y);
  if (!expanded && !sys.faultyGrid().testUnchecked(cell)) {
    // Contracted, protocol-following.  A non-crossing pair puts the whole
    // neighbourhood inside the block, so the gathers read only its words.
    if (nonCrossing == 0) return 0;
    const auto legal =
        static_cast<Code>(nonCrossing & ~occ.neighborMaskUnchecked(cell));
    if (legal == 0 || sys.expandedGrid().neighborMaskUnchecked(cell) != 0) {
      return 0;
    }
    return legal;
  }
  const Particle& p = sys.particle(idAt(sys, cell));
  if (p.crashed || crossingOf(p, rule, x, y) != 0) return 0;
  if (expanded) return p.byzantine ? 0 : kSixPorts;  // it always contracts
  // A contracted Byzantine particle probes from any port to an empty cell.
  return occ.neighborMaskUnchecked(cell) != 0x3F ? kSixPorts : 0;
}

int RejectionFreeBlock::crossingOf(const Particle& p,
                                   const RejectionFreeRule& rule,
                                   std::int64_t x, std::int64_t y) noexcept {
  // The boxes the ports test: (tail, head), the ring, or (ℓ, ℓ + dir).
  if (p.expanded) {
    return (rule.nonCrossingMask(x, y) >> p.expandDir) & 1u
               ? 0
               : lattice::kNumDirections;
  }
  if (p.byzantine) {  // the ring's box is the union of the pairs' boxes
    return rule.nonCrossingMask(x, y) == 0x3F ? 0 : lattice::kNumDirections;
  }
  return lattice::kNumDirections -
         util::popcount64(rule.nonCrossingMask(x, y));
}

RejectionFreeBlock::Code& RejectionFreeBlock::keptCode(std::int64_t x,
                                                      std::int64_t y) {
  const std::uint64_t bit = std::uint64_t{1} << (y & 63);
  std::uint64_t& zeroed = zeroed_[static_cast<std::size_t>(y >> 6)];
  const auto row = static_cast<std::size_t>(y * kSize);
  if ((zeroed & bit) == 0) {
    zeroed |= bit;
    std::fill_n(codes_.begin() + static_cast<std::ptrdiff_t>(row), kSize,
                Code{0});
  }
  return codes_[row + static_cast<std::size_t>(x)];
}

void RejectionFreeBlock::recode(std::int64_t x, std::int64_t y, Code after) {
  Code& kept = keptCode(x, y);
  const Code before = kept;
  if (before == after) return;
  kept = after;
  const std::uint16_t key = cellKey(x, y);
  const auto changed = static_cast<Code>(before ^ after);
  for (int bit = 0; bit <= kSixPortsBit; ++bit) {
    if (((changed >> bit) & 1u) == 0) continue;
    std::vector<std::uint16_t>& cells = cells_[static_cast<std::size_t>(bit)];
    if ((after >> bit) & 1u) {
      cells.push_back(key);
    } else {
      eraseCell(cells, key);
    }
  }
}

void RejectionFreeBlock::rebuild(const AmoebotSystem& sys,
                                 const RejectionFreeRule& rule) {
  for (std::vector<std::uint16_t>& cells : cells_) cells.clear();
  crossing_ = 0;
  codes_.resize(static_cast<std::size_t>(kSize * kSize));
  zeroed_ = {};
  const auto load = [&](const system::BitGrid& grid, std::int64_t y) {
    return core::BlockRow{grid.rowBits(x0_, y0_ + y),
                          grid.rowBits(x0_ + 64, y0_ + y)};
  };
  // The occupied and expanded words of the tail rows and the rows on
  // either side, row y at [y + 1]; the padding beyond the block reads 0.
  using Rows = std::array<core::BlockRow, kSize + 2>;
  Rows occRows;
  Rows expandedRows;
  occRows.front() = occRows.back() = expandedRows.front() =
      expandedRows.back() = {};
  const auto at = [](const Rows& rows, std::int64_t y) -> const auto& {
    return rows[static_cast<std::size_t>(y + 1)];
  };
  core::forEachRow(core::dilateRows(rows_, 1), [&](std::int64_t y) {
    occRows[static_cast<std::size_t>(y + 1)] = load(sys.occupancyGrid(), y);
    expandedRows[static_cast<std::size_t>(y + 1)] =
        load(sys.expandedGrid(), y);
  });
  std::uint64_t fullRowCrossing = 0;
  for (const std::uint8_t crossing : rule.edgeCrossings) {
    fullRowCrossing += crossing;
  }
  core::forEachRow(rows_, [&](std::int64_t y) {
    const core::BlockRow& occ = at(occRows, y);
    // Heads are expanded cells: a row without any has none to load.
    const core::BlockRow& expanded = at(expandedRows, y);
    const core::BlockRow heads = (expanded[0] | expanded[1]) != 0
                                     ? load(sys.headGrid(), y)
                                     : core::BlockRow{};
    const core::BlockRow faulty = load(sys.faultyGrid(), y);
    // An interior row full of simple tails between full rows, no expanded
    // cell nearby: no candidates, and the edge columns' crossing pairs.
    const std::uint64_t expandedNear =
        at(expandedRows, y - 1)[0] | at(expandedRows, y - 1)[1] |
        expanded[0] | expanded[1] | at(expandedRows, y + 1)[0] |
        at(expandedRows, y + 1)[1];
    if (y >= rule.rowsY0 && y <= rule.rowsY1 &&
        (occ[0] & occ[1] & at(occRows, y - 1)[0] & at(occRows, y - 1)[1] &
         at(occRows, y + 1)[0] & at(occRows, y + 1)[1]) == ~std::uint64_t{0} &&
        (heads[0] | heads[1] | faulty[0] | faulty[1] | expandedNear) == 0) {
      crossing_ += fullRowCrossing;
      return;
    }
    // Contracted protocol-following tails go word-parallel; expanded and
    // faulty ones need their particle records.
    core::BlockRow simple{};
    for (std::size_t half = 0; half < 2; ++half) {
      const std::uint64_t tails = occ[half] & ~heads[half];
      simple[half] = tails & ~expanded[half] & ~faulty[half];
      for (std::uint64_t rest = tails & ~simple[half]; rest != 0;
           rest &= rest - 1) {
        const std::int64_t x =
            static_cast<std::int64_t>(64 * half) + std::countr_zero(rest);
        crossing_ += static_cast<std::uint64_t>(crossingOf(
            sys.particle(idAt(sys, cellAt(x, y))), rule, x, y));
        recode(x, y, codeAt(sys, rule, x, y));
      }
    }
    // The simple tails' crossing pairs, direction by direction.
    for (const core::BlockLines::Span& span : rule.inside) {
      const bool band = y < span.y0 || y > span.y1;
      for (std::size_t half = 0; half < 2; ++half) {
        crossing_ += util::popcount64(
            simple[half] & ~(band ? 0 : span.columns[half]));
      }
    }
    // A simple tail has a code only with a legal expansion: a
    // non-crossing empty target and no expanded neighbour.
    core::BlockRow coded{};
    const auto targets =
        core::neighborWords(occ, at(occRows, y + 1), at(occRows, y - 1));
    core::BlockRow calm = {~std::uint64_t{0}, ~std::uint64_t{0}};
    if (expandedNear != 0) {
      for (const core::BlockRow& neighbors :
           core::neighborWords(expanded, at(expandedRows, y + 1),
                               at(expandedRows, y - 1))) {
        calm[0] &= ~neighbors[0];
        calm[1] &= ~neighbors[1];
      }
    }
    std::array<core::BlockRow, lattice::kNumDirections> legal{};
    for (int d = 0; d < lattice::kNumDirections; ++d) {
      const core::BlockLines::Span& span =
          rule.inside[static_cast<std::size_t>(d)];
      if (y < span.y0 || y > span.y1) continue;
      for (std::size_t half = 0; half < 2; ++half) {
        legal[static_cast<std::size_t>(d)][half] =
            simple[half] & span.columns[half] & calm[half] &
            ~targets[static_cast<std::size_t>(d)][half];
        coded[half] |= legal[static_cast<std::size_t>(d)][half];
      }
    }
    for (std::size_t half = 0; half < 2; ++half) {
      for (std::uint64_t rest = coded[half]; rest != 0; rest &= rest - 1) {
        const int bit = std::countr_zero(rest);
        const std::int64_t x = static_cast<std::int64_t>(64 * half) + bit;
        Code code = 0;
        for (int d = 0; d < lattice::kNumDirections; ++d) {
          code |= static_cast<Code>(
              ((legal[static_cast<std::size_t>(d)][half] >> bit) & 1u) << d);
        }
        recode(x, y, code);
      }
    }
  });
}

void RejectionFreeBlock::run(AmoebotSystem& sys, const RejectionFreeRule& rule,
                             std::uint64_t key, bool verifyEachEvent) {
  const std::uint64_t pairs =
      lattice::kNumDirections * std::uint64_t{particles_};
  const auto massOf = [&] { return static_cast<double>(candidateMass()); };
  // Failures are non-candidate pairs: skipped when they cross.
  const auto split = [&](rng::CounterStream& draw, std::uint64_t failures) {
    const std::uint64_t skipped = draw.binomial(
        failures, static_cast<double>(crossing_) /
                      static_cast<double>(pairs - candidateMass()));
    boundaryRejects_ += skipped;
    tallies_.idle += failures - skipped;
  };
  const auto run = [&](rng::CounterStream& draw, double mass) {
    execute(sys, rule, draw, draw.below(static_cast<std::uint32_t>(mass)),
            verifyEachEvent);
  };
  runNFoldWay(key, massOf, split, run);
  SOPS_DASSERT(matchesRebuild(sys, rule));
}

void RejectionFreeBlock::execute(AmoebotSystem& sys,
                                 const RejectionFreeRule& rule,
                                 rng::CounterStream& draw, std::uint32_t rank,
                                 bool verifyEachEvent) {
  // The candidate of the rank: a legal expansion (its cell, in the
  // direction's list), or one of a six-port particle's ports.
  int legal = -1;
  int port = 0;
  std::uint16_t key = 0;
  for (int d = 0; d < lattice::kNumDirections && legal < 0; ++d) {
    const std::vector<std::uint16_t>& cells =
        cells_[static_cast<std::size_t>(d)];
    if (rank < cells.size()) {
      key = cells[rank];
      legal = d;
    } else {
      rank -= static_cast<std::uint32_t>(cells.size());
    }
  }
  if (legal < 0) {
    key = cells_[kSixPortsBit][rank / lattice::kNumDirections];
    port = static_cast<int>(rank % lattice::kNumDirections);
  }
  const std::int64_t x = key & (kSize - 1);
  const std::int64_t y = key >> core::BlockEpoch::kBlockShift;
  const std::uint32_t id = idAt(sys, cellAt(x, y));
  const Particle before = sys.particle(id);
  while (legal >= 0 && index(sys.globalDirection(id, port)) != legal) ++port;
  const ActivationResult result = rule.algo->activate(sys, id, port, draw);
  SOPS_DASSERT(result != ActivationResult::Idle);
  tallies_.record(result);
  if (result == ActivationResult::MovedToHead) {
    moves_.push_back({id, before.tail, before.head});
    enterRow(before.head.y);
  }
  // Only the actor's crossing pairs change: its state, or its tail.  The
  // pair (ℓ, ℓ′) the event changed is the expansion made, or the one ended.
  const Particle& after = sys.particle(id);
  const int dir = after.expanded ? after.expandDir : before.expandDir;
  crossing_ -= static_cast<std::uint64_t>(crossingOf(before, rule, x, y));
  crossing_ += static_cast<std::uint64_t>(
      crossingOf(after, rule, after.tail.x - x0_, after.tail.y - y0_));
  const auto& cells = core::kRefreshCells[static_cast<std::size_t>(dir)];
  for (std::size_t k = 0; k < core::kRefreshNear; ++k) {
    const std::int64_t cx = x + cells[k].x;
    const std::int64_t cy = y + cells[k].y;
    if (cx < 0 || cx >= kSize || cy < 0 || cy >= kSize) continue;
    recode(cx, cy, codeAt(sys, rule, cx, cy));
  }
  if (verifyEachEvent) {
    SOPS_REQUIRE(result != ActivationResult::Idle,
                 "rejection-free block: a candidate activation ran Idle");
    SOPS_REQUIRE(matchesRebuild(sys, rule),
                 "rejection-free block drifted from a rebuild");
  }
}

bool RejectionFreeBlock::matchesRebuild(const AmoebotSystem& sys,
                                        const RejectionFreeRule& rule) const {
  RejectionFreeBlock fresh = *this;
  fresh.rebuild(sys, rule);
  if (fresh.crossing_ != crossing_) return false;
  const auto sameSet = [](std::vector<std::uint16_t> a,
                          std::vector<std::uint16_t> b) {
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b;
  };
  for (std::size_t bit = 0; bit < cells_.size(); ++bit) {
    if (!sameSet(cells_[bit], fresh.cells_[bit])) return false;
  }
  std::uint64_t tails = 0;
  core::forEachRow(rows_, [&](std::int64_t y) {
    for (const std::int64_t x : {x0_, x0_ + 64}) {
      tails += util::popcount64(sys.occupancyGrid().rowBits(x, y0_ + y) &
                                ~sys.headGrid().rowBits(x, y0_ + y));
    }
  });
  return tails == particles_;
}

std::uint64_t runRejectionFreeEpoch(
    core::RejectionFreeSampler<RejectionFreeRule>& sampler,
    AmoebotSystem& sys, const core::BlockEpoch& ep, std::uint64_t length,
    const core::BlockForEach& forEach, ActivationTallies& tallies,
    bool verifyEachEvent) {
  sys.freezeIdIndex();
  std::int64_t expandedDelta = 0;
  const std::uint64_t skipped = sampler.runEpoch(
      sys, ep, length, forEach,
      [&](const RejectionFreeBlock& block) {
        for (const RejectionFreeBlock::Move& m : block.moves()) {
          sys.moveTailId(m.particle, m.from, m.to);
        }
        const ActivationTallies& t = block.tallies();
        expandedDelta += static_cast<std::int64_t>(t.expanded) -
                         static_cast<std::int64_t>(t.movedToHead +
                                                   t.contractedBack);
        tallies.merge(t);
      },
      verifyEachEvent);
  sys.thawIdIndex(expandedDelta);
  return skipped;
}

// --- the runner -------------------------------------------------------------

ShardedPoissonRunner::ShardedPoissonRunner(
    AmoebotSystem& sys, const LocalCompressionAlgorithm& algo,
    std::uint64_t seed, ShardedOptions options)
    : sys_(sys),
      algo_(algo),
      rateSum_(rateSumOf(options, sys.size())),
      executor_(seed, sys.size(), options),
      router_(kAmoebotRejectionFreeDivisor, executor_.uniformSelection()) {}

bool ShardedPoissonRunner::Kernel::runProposal(const core::BlockEpoch& ep,
                                               std::uint32_t particle,
                                               rng::CounterStream& stream,
                                               Tallies& tallies) {
  const int port = static_cast<int>(stream.below(6));
  const Particle& p = sys_.particle(particle);
  int reach = p.expandDir;
  if (!p.expanded) {
    reach = p.byzantine ? core::kReachRing
                        : index(sys_.globalDirection(particle, port));
  }
  if (!ep.inside(p.tail, kReach[static_cast<std::size_t>(reach)])) {
    return false;
  }
  tallies.record(algo_.activate(sys_, particle, port, stream));
  return true;
}

void ShardedPoissonRunner::runBlockEpoch() {
  sys_.suspendIdIndex();
  Kernel kernel(sys_, algo_);
  executor_.runEpoch(kernel, tallies_);
}

void ShardedPoissonRunner::saveState(system::SnapshotWriter& w) const {
  w.u64(executor_.epochLength());
  w.u64(executor_.epochs());
  w.u64(executor_.boundaryRejects());
  w.u64(tallies_.idle);
  w.u64(tallies_.expanded);
  w.u64(tallies_.movedToHead);
  w.u64(tallies_.contractedBack);
  router_.save(w);
}

void ShardedPoissonRunner::restoreState(system::SnapshotReader& r) {
  SOPS_REQUIRE(r.version() >= 5,
               "snapshot: amoebot runner payload is version " +
                   std::to_string(r.version()) +
                   ", written by the Poisson-clock runner; the block runner "
                   "reads version 5 and later — rerun the spec from the "
                   "start");
  SOPS_REQUIRE(r.u64() == executor_.epochLength(),
               "snapshot: epoch length does not match the runner's options");
  const std::uint64_t epochs = r.u64();
  executor_.restore(epochs, r.u64());
  tallies_ = {};
  if (r.version() >= 7) {
    tallies_.idle = r.u64();
    tallies_.expanded = r.u64();
    tallies_.movedToHead = r.u64();
    tallies_.contractedBack = r.u64();
  }
  router_.restore(r, r.version() >= 7);
}

}  // namespace sops::amoebot

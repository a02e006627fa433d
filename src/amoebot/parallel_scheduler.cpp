#include "amoebot/parallel_scheduler.hpp"

#include <algorithm>
#include <bit>
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
  std::size_t bytes = sizeof(*this) + moves_.capacity() * sizeof(Move);
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

RejectionFreeBlock::Planes RejectionFreeBlock::planesOf(
    const AmoebotSystem& sys, std::int64_t y) const noexcept {
  const auto load = [&](const system::BitGrid& grid) {
    return core::BlockRow{grid.rowBits(x0_, y0_ + y),
                          grid.rowBits(x0_ + 64, y0_ + y)};
  };
  Planes planes;
  planes.occ = load(sys.occupancyGrid());
  // The other planes hold occupied cells only; heads are expanded cells.
  if ((planes.occ[0] | planes.occ[1]) == 0) return planes;
  planes.expanded = load(sys.expandedGrid());
  if ((planes.expanded[0] | planes.expanded[1]) != 0) {
    planes.heads = load(sys.headGrid());
  }
  planes.faulty = load(sys.faultyGrid());
  return planes;
}

void RejectionFreeBlock::loadRows(const AmoebotSystem& sys,
                                  const core::RowSet& rows) {
  core::forEachRow(rows, [&](std::int64_t y) { row(y) = planesOf(sys, y); });
  loaded_[0] |= rows[0];
  loaded_[1] |= rows[1];
}

RejectionFreeBlock::Window RejectionFreeBlock::windowAt(
    std::int64_t x, std::int64_t y) const noexcept {
  // Row y − kPad + r at byte r: columns x − kPad … x + kPad of its 128
  // cells, those past the block read 0.  Most windows lie in one word.
  constexpr std::uint64_t kMask = (std::uint64_t{1} << (2 * kPad + 1)) - 1;
  const std::int64_t first = x - kPad;
  Window w;
  const auto gather = [&](const auto& columns) {
    for (int r = 0; r <= 2 * kPad; ++r) {
      const Planes& kept = planes_[static_cast<std::size_t>(y + r)];
      w.occ |= columns(kept.occ) << (8 * r);
      w.expanded |= columns(kept.expanded) << (8 * r);
      // The outer rows serve only as neighbours.
      if (r == 0 || r == 2 * kPad) continue;
      w.heads |= columns(kept.heads) << (8 * r);
      w.faulty |= columns(kept.faulty) << (8 * r);
    }
  };
  if (first >= 0 && first <= 64 - 2 * kPad - 1) {
    gather([first](const core::BlockRow& words) {
      return (words[0] >> first) & kMask;
    });
  } else if (first >= 64 && first <= 128 - 2 * kPad - 1) {
    gather([first](const core::BlockRow& words) {
      return (words[1] >> (first - 64)) & kMask;
    });
  } else {
    gather([first](const core::BlockRow& words) {
      if (first < 0) return (words[0] << -first) & kMask;
      if (first < 64) {
        return ((words[0] >> first) | ((words[1] << 1) << (63 - first))) &
               kMask;
      }
      return (words[1] >> (first - 64)) & kMask;
    });
  }
  return w;
}

namespace {

/// Per direction d, the window bit offset of the neighbour in direction
/// d: the word shifted right by it (left by its negation) holds each
/// cell's neighbour on the cell.
constexpr auto kNeighborShift = [] {
  std::array<int, lattice::kNumDirections> shift{};
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    const TriPoint off = lattice::offset(lattice::directionFromIndex(d));
    shift[static_cast<std::size_t>(d)] = 8 * off.y + off.x;
  }
  return shift;
}();

[[nodiscard]] std::uint64_t neighborOf(std::uint64_t cells, int d) noexcept {
  const int shift = kNeighborShift[static_cast<std::size_t>(d)];
  return shift > 0 ? cells >> shift : cells << -shift;
}

}  // namespace

RejectionFreeBlock::Classes RejectionFreeBlock::classify(
    const Window& w) noexcept {
  Classes classes;
  // Contracted protocol-following tails without an expanded neighbour.
  std::uint64_t calm = w.occ & ~w.expanded & ~w.faulty;
  classes.enclosed = ~std::uint64_t{0};
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    calm &= ~neighborOf(w.expanded, d);
    classes.enclosed &= neighborOf(w.occ, d);
  }
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    classes.open[static_cast<std::size_t>(d)] = calm & ~neighborOf(w.occ, d);
  }
  // Heads are expanded cells, and hold no tail.
  classes.records = w.occ & ~w.heads & (w.expanded | w.faulty);
  return classes;
}

template <typename Record>
RejectionFreeBlock::Code RejectionFreeBlock::codeOf(
    const Classes& classes, int bit, const RejectionFreeRule& rule,
    std::int64_t x, std::int64_t y, const Record& record) {
  if (((classes.records >> bit) & 1u) != 0) {
    const Particle& p = record();
    if (p.crashed || crossingOf(p, rule, x, y) != 0) return 0;
    if (p.expanded) return p.byzantine ? 0 : kSixPorts;  // it always contracts
    // A contracted Byzantine particle probes from any port to an empty cell.
    return ((classes.enclosed >> bit) & 1u) != 0 ? 0 : kSixPorts;
  }
  // A contracted protocol-following tail: its non-crossing open pairs.  A
  // non-crossing pair puts the whole neighbourhood inside the block, so
  // the padding beyond it (read as empty) never counts.
  Code open = 0;
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    open |= static_cast<Code>(
        ((classes.open[static_cast<std::size_t>(d)] >> bit) & 1u) << d);
  }
  return open & rule.nonCrossingMask(x, y);
}

void RejectionFreeBlock::stamp(const Particle& p, bool set, TriPoint centre,
                               Window& w) noexcept {
  const auto put = [&](core::BlockRow Planes::*plane,
                       std::uint64_t Window::*cells, TriPoint cell) {
    const std::int64_t x = cell.x - x0_;
    std::uint64_t& word =
        (row(cell.y - y0_).*plane)[static_cast<std::size_t>(x >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (x & 63);
    const std::uint64_t at = std::uint64_t{1}
                             << windowBit({cell.x - centre.x,
                                           cell.y - centre.y});
    word = set ? word | bit : word & ~bit;
    w.*cells = set ? w.*cells | at : w.*cells & ~at;
  };
  // The faulty plane never changes: neither kind of faulty tail moves.
  put(&Planes::occ, &Window::occ, p.tail);
  if (!p.expanded) return;
  put(&Planes::expanded, &Window::expanded, p.tail);
  put(&Planes::occ, &Window::occ, p.head);
  put(&Planes::expanded, &Window::expanded, p.head);
  put(&Planes::heads, &Window::heads, p.head);
}

void RejectionFreeBlock::recode(std::int64_t x, std::int64_t y, Code before,
                                Code after) {
  const std::uint16_t key = cellKey(x, y);
  for (unsigned changed = before ^ after; changed != 0;
       changed &= changed - 1) {
    const int bit = std::countr_zero(changed);
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
  // The tail rows and the rows on either side; the rows an earlier
  // placement loaded go back to zero (the padding beyond the block is
  // never written).
  const core::RowSet loaded = core::dilateRows(rows_, 1);
  core::forEachRow({loaded_[0] & ~loaded[0], loaded_[1] & ~loaded[1]},
                   [&](std::int64_t y) { row(y) = {}; });
  loaded_ = {};
  loadRows(sys, loaded);
  std::uint64_t fullRowCrossing = 0;
  for (const std::uint8_t crossing : rule.edgeCrossings) {
    fullRowCrossing += crossing;
  }
  core::forEachRow(rows_, [&](std::int64_t y) {
    const Planes& here = row(y);
    const Planes& up = row(y + 1);
    const Planes& down = row(y - 1);
    const core::BlockRow& occ = here.occ;
    const core::BlockRow& expanded = here.expanded;
    const core::BlockRow& heads = here.heads;
    const core::BlockRow& faulty = here.faulty;
    // An interior row full of simple tails between full rows, no expanded
    // cell nearby: no candidates, and the edge columns' crossing pairs.
    const std::uint64_t expandedNear = down.expanded[0] | down.expanded[1] |
                                       expanded[0] | expanded[1] |
                                       up.expanded[0] | up.expanded[1];
    if (y >= rule.rowsY0 && y <= rule.rowsY1 &&
        (occ[0] & occ[1] & down.occ[0] & down.occ[1] & up.occ[0] &
         up.occ[1]) == ~std::uint64_t{0} &&
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
        const Particle& p = sys.particle(idAt(sys, cellAt(x, y)));
        crossing_ += static_cast<std::uint64_t>(crossingOf(p, rule, x, y));
        recode(x, y, 0,
               codeOf(classify(windowAt(x, y)), windowBit({0, 0}), rule, x,
                      y, [&]() -> const Particle& { return p; }));
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
    const auto targets = core::neighborWords(occ, up.occ, down.occ);
    core::BlockRow calm = {~std::uint64_t{0}, ~std::uint64_t{0}};
    if (expandedNear != 0) {
      for (const core::BlockRow& neighbors :
           core::neighborWords(expanded, up.expanded, down.expanded)) {
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
        recode(x, y, 0, code);
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
  while (legal >= 0 && index(sys.globalDirection(id, port)) != legal) ++port;
  const Event done = event(sys, rule, id, port, draw);
  SOPS_DASSERT(done.result != ActivationResult::Idle);
  for (std::size_t k = 0; k < done.cells; ++k) {
    const Recode& cell = done.recodes[k];
    recode(cell.x, cell.y, cell.before, cell.after);
  }
  if (verifyEachEvent) {
    SOPS_REQUIRE(done.result != ActivationResult::Idle,
                 "rejection-free block: a candidate activation ran Idle");
    SOPS_REQUIRE(matchesRebuild(sys, rule),
                 "rejection-free block drifted from a rebuild");
  }
}

RejectionFreeBlock::Event RejectionFreeBlock::event(
    AmoebotSystem& sys, const RejectionFreeRule& rule, std::uint32_t id,
    int port, rng::CounterStream& draw) {
  const Particle before = sys.particle(id);
  const std::int64_t x = before.tail.x - x0_;
  const std::int64_t y = before.tail.y - y0_;
  const Window was = windowAt(x, y);
  Event done;
  done.result = rule.algo->activate(sys, id, port, draw);
  tallies_.record(done.result);
  const Particle& after = sys.particle(id);
  Window now = was;
  stamp(before, false, before.tail, now);
  stamp(after, true, before.tail, now);
  if (done.result == ActivationResult::MovedToHead) {
    moves_.push_back({id, before.tail, before.head});
    enterRow(before.head.y);
    // The row beyond the tail's new row joins the kept rows.
    const core::RowSet wanted = core::dilateRows(rows_, 1);
    loadRows(sys, {wanted[0] & ~loaded_[0], wanted[1] & ~loaded_[1]});
  }
  // Only the actor's crossing pairs change: its state, or its tail.  The
  // pair (ℓ, ℓ′) the event changed is the expansion made, or the one ended.
  crossing_ -= static_cast<std::uint64_t>(crossingOf(before, rule, x, y));
  crossing_ += static_cast<std::uint64_t>(
      crossingOf(after, rule, after.tail.x - x0_, after.tail.y - y0_));
  const Classes wasClasses = classify(was);
  const Classes nowClasses = classify(now);
  const TriPoint moved{after.tail.x - before.tail.x,
                       after.tail.y - before.tail.y};
  // A cell's code can change only with its classes, or with its record:
  // the actor's, before and after, and a Byzantine tail's enclosure.
  std::uint64_t changed =
      (wasClasses.records ^ nowClasses.records) |
      (wasClasses.records & (wasClasses.enclosed ^ nowClasses.enclosed)) |
      (std::uint64_t{1} << windowBit({0, 0})) |
      (std::uint64_t{1} << windowBit(moved));
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    changed |= wasClasses.open[static_cast<std::size_t>(d)] ^
               nowClasses.open[static_cast<std::size_t>(d)];
  }
  // The refresh cells that may have changed, as bits in kRefreshCells
  // order.
  const auto dir = static_cast<std::size_t>(after.expanded ? after.expandDir
                                                           : before.expandDir);
  unsigned pending = 0;
  for (std::size_t k = 0; k < core::kRefreshNear; ++k) {
    pending |= static_cast<unsigned>(
                   (changed >> windowBit(core::kRefreshCells[dir][k])) & 1u)
               << k;
  }
  for (; pending != 0; pending &= pending - 1) {
    const TriPoint cell = core::kRefreshCells[dir][static_cast<std::size_t>(
        std::countr_zero(pending))];
    const std::int64_t cx = x + cell.x;
    const std::int64_t cy = y + cell.y;
    if (cx < 0 || cx >= kSize || cy < 0 || cy >= kSize) continue;
    // Only the actor's record changed; another expanded or faulty tail's
    // is the same before and after.
    const auto recordOf = [&](const Particle& actor, TriPoint actorCell) {
      return [&, actorCell]() -> const Particle& {
        return cell == actorCell ? actor
                                 : sys.particle(idAt(sys, cellAt(cx, cy)));
      };
    };
    const int bit = windowBit(cell);
    const Code from =
        codeOf(wasClasses, bit, rule, cx, cy, recordOf(before, {0, 0}));
    const Code to =
        codeOf(nowClasses, bit, rule, cx, cy, recordOf(after, moved));
    if (from != to) done.recodes[done.cells++] = {cx, cy, from, to};
  }
  return done;
}

bool RejectionFreeBlock::rowsMatch(const AmoebotSystem& sys) const {
  for (std::int64_t y = -kPad; y < kSize + kPad; ++y) {
    const bool loaded =
        y >= 0 && y < kSize &&
        ((loaded_[static_cast<std::size_t>(y >> 6)] >> (y & 63)) & 1u) != 0;
    if (row(y) != (loaded ? planesOf(sys, y) : Planes{})) return false;
  }
  return loaded_ == core::dilateRows(rows_, 1);
}

bool RejectionFreeBlock::matchesRebuild(const AmoebotSystem& sys,
                                        const RejectionFreeRule& rule) const {
  if (!rowsMatch(sys)) return false;
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

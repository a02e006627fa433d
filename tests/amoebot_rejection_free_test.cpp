// Rejection-free epochs for Algorithm A — core::RejectionFreeSampler under
// amoebot::RejectionFreeRule — and the sharded amoebot runner's epoch
// routing (amoebot/parallel_scheduler).
//
//  1. The per-block structures: after every event each block's candidate
//     lists and crossing count equal a from-scratch rebuild — on flat and
//     tiled planes, with crash and Byzantine faults, at one thread and at
//     four while the other blocks run; each block's word rebuild equals
//     the particle-by-particle count under 48 offsets; the memory budget.
//  2. The law: a rejection-free epoch samples the block-path epoch's law.
//     Chi-square of the quiescent configurations against exact π at
//     n = 4, 5 (and at 3-activation epochs, where nearly every geometric
//     run is cut at the epoch end); two-sample KS of the perimeter, the
//     skip count and every outcome tally against the list-order oracle at
//     n = 10⁴ and across a block line; chi-square of the blocks'
//     activation counts against the multinomial; two identical blocks
//     draw independently.
//  3. Routing: compressed epochs route rejection-free and the runner
//     pinned to the block path never does; with routing on, the
//     trajectory — tallies and rejection-free epoch count included — is
//     identical at every thread count and across a snapshot resumed at a
//     different thread count; v5/v6 payloads restore on the block path.
//
// Pre-registered design of the distributional tests (as in
// tests/local_vs_chain_test.cpp): burn-in 50,000 activations; one sample
// per 48 activations (eight 6-activation epochs), quiescent instants
// only; chi-square p > 0.01 with cells below 5 expected pooled; KS
// p > 0.001 per observable; fixed seeds.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/faults.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "analysis/stats.hpp"
#include "core/block_executor.hpp"
#include "core/rejection_free.hpp"
#include "enumeration/exact_distribution.hpp"
#include "system/canonical.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "system/snapshot.hpp"

namespace sops::amoebot {
namespace {

using system::ParticleSystem;
using Sampler = core::RejectionFreeSampler<RejectionFreeRule>;

/// Runs fn(j) for every j in order on this thread.
void inOrder(std::size_t count, const std::function<void(std::size_t)>& fn) {
  for (std::size_t j = 0; j < count; ++j) fn(j);
}

// --- 1. the per-block structures -------------------------------------------

/// A line of `n` along the x-axis, plus (for `tiled`) a far singleton that
/// promotes the planes to tiles.
ParticleSystem lineWithOutlier(std::int32_t n, bool tiled) {
  std::vector<TriPoint> points;
  for (std::int32_t i = 0; i < n; ++i) points.push_back({i, 0});
  if (tiled) points.push_back({60000, 20000});
  return ParticleSystem(points);
}

/// Crashes 10% and turns 5% Byzantine (`fraction` scales both).
void applyTestFaults(AmoebotSystem& sys, double fraction,
                     std::uint64_t seed) {
  rng::Random faultRng(seed);
  FaultPlan plan = randomCrashes(sys.size(), 0.1 * fraction, faultRng);
  plan.byzantine =
      randomByzantine(sys.size(), 0.05 * fraction, faultRng).byzantine;
  applyFaults(sys, plan);
}

/// The live id index and the expanded count agree with the particles.
void expectIdIndexConsistent(const AmoebotSystem& sys,
                             const std::string& label) {
  std::size_t expanded = 0;
  for (std::size_t id = 0; id < sys.size(); ++id) {
    const Particle& p = sys.particle(id);
    ASSERT_EQ(sys.at(p.tail).particle, static_cast<std::int32_t>(id)) << label;
    ASSERT_EQ(sys.at(p.head).particle, static_cast<std::int32_t>(id)) << label;
    if (p.expanded) ++expanded;
  }
  EXPECT_EQ(expanded, sys.expandedCount()) << label;
}

TEST(AmoebotRejectionFreeIndex, MatchesRebuildAfterEveryEvent) {
  for (const bool faulty : {false, true}) {
    for (const bool tiled : {false, true}) {
      // An 1100-particle line at λ = 4 (nine blocks and more along x) in
      // 1000-activation epochs: hundreds of events, each followed by a
      // full comparison of its block (verifyEachEvent throws on the first
      // drift).  With faults, 10% of the particles crash and 5% turn
      // Byzantine.
      rng::Random ctor(17);
      AmoebotSystem sys(lineWithOutlier(1100, tiled), ctor);
      ASSERT_EQ(sys.occupancyGrid().tiled(), tiled);
      if (faulty) applyTestFaults(sys, 1.0, 19);
      const LocalCompressionAlgorithm algo({4.0});
      ShardedOptions options;
      options.threads = 1;
      options.targetEventsPerEpoch = 1000;
      ShardedPoissonRunner runner(sys, algo, 4001, options);
      runner.forceRejectionFreeForTest(/*verifyEachEvent=*/true);
      const std::string label = std::string(faulty ? "faults" : "none") +
                                (tiled ? " tiled" : " flat");
      ASSERT_NO_THROW(runner.runAtLeast(4 * 1000)) << label;
      EXPECT_EQ(runner.rejectionFreeEpochs(), 4u) << label;
      const ActivationTallies& t = runner.tallies();
      EXPECT_EQ(t.idle + t.events() + runner.sweepActivations(),
                runner.activations())
          << label;
      EXPECT_GT(t.events(), 100u) << label;
      expectIdIndexConsistent(sys, label);
    }
  }
}

TEST(AmoebotRejectionFreeIndex, MatchesRebuildAfterEveryEventAtFourThreads) {
  // A 10⁴ spiral at λ = 4 with crash and Byzantine faults on four
  // workers: every event of every block is checked against a rebuild of
  // its block while the other blocks run, and the run must match the
  // single-thread one.
  const LocalCompressionAlgorithm algo({4.0});
  const ParticleSystem spiral = system::spiralConfiguration(10000);
  const auto runWith = [&](unsigned threads) {
    rng::Random ctor(21);
    AmoebotSystem sys(spiral, ctor);
    applyTestFaults(sys, 0.2, 22);
    ShardedOptions options;
    options.threads = threads;
    ShardedPoissonRunner runner(sys, algo, 4101, options);
    runner.forceRejectionFreeForTest(/*verifyEachEvent=*/true);
    runner.runAtLeast(8 * 20000);
    expectIdIndexConsistent(sys, std::to_string(threads) + " threads");
    std::vector<TriPoint> cells;
    for (std::size_t id = 0; id < sys.size(); ++id) {
      cells.push_back(sys.particle(id).tail);
      cells.push_back(sys.particle(id).head);
    }
    return std::pair{cells, runner.tallies().events()};
  };
  const auto four = runWith(4);
  EXPECT_GT(four.second, 100u);
  EXPECT_TRUE(four == runWith(1));
}

/// Per block, particle by particle: its particles, and how many of their
/// six ports the block path would skip (crossing) or run non-Idle
/// (candidates) — the executor kernel's boundary rule and Algorithm A's
/// conditions, read off the particle records.
struct BlockReference {
  std::uint64_t particles = 0;
  std::uint64_t candidates = 0;
  std::uint64_t crossing = 0;
};

std::map<std::pair<std::int64_t, std::int64_t>, BlockReference>
referenceBlocks(const AmoebotSystem& sys, const core::BlockEpoch& ep) {
  std::map<std::pair<std::int64_t, std::int64_t>, BlockReference> blocks;
  const auto reach = core::blockReach(1);
  for (std::size_t id = 0; id < sys.size(); ++id) {
    const Particle& p = sys.particle(id);
    const std::int64_t bx = (p.tail.x - ep.offsetX) >> core::BlockEpoch::kBlockShift;
    const std::int64_t by = (p.tail.y - ep.offsetY) >> core::BlockEpoch::kBlockShift;
    BlockReference& block = blocks[{by, bx}];
    ++block.particles;
    bool anyEmpty = false;
    for (const Direction d : lattice::kAllDirections) {
      anyEmpty = anyEmpty || !sys.occupied(lattice::neighbor(p.tail, d));
    }
    for (int port = 0; port < lattice::kNumDirections; ++port) {
      const Direction d = sys.globalDirection(id, port);
      const int box = p.expanded    ? p.expandDir
                      : p.byzantine ? core::kReachRing
                                    : lattice::index(d);
      if (!ep.inside(p.tail, reach[static_cast<std::size_t>(box)])) {
        ++block.crossing;
        continue;
      }
      bool acts = false;
      if (p.crashed) {
        acts = false;
      } else if (p.byzantine) {
        acts = !p.expanded && anyEmpty;
      } else if (p.expanded) {
        acts = true;
      } else {
        acts = !sys.occupied(lattice::neighbor(p.tail, d)) &&
               !sys.expandedParticleAdjacent(p.tail, id);
      }
      block.candidates += acts ? 1 : 0;
    }
  }
  return blocks;
}

TEST(AmoebotRejectionFreeIndex, BandCountMatchesParticleCount) {
  // A 10⁵ spiral after a few block epochs (so expanded particles exist),
  // with crash and Byzantine faults, cut by block lines in both axes under
  // every offset: each block's word-parallel rebuild must count exactly
  // the candidates and the crossing pairs of the block-line bands that
  // the per-particle definition does.
  rng::Random ctor(23);
  AmoebotSystem sys(system::spiralConfiguration(100000), ctor);
  applyTestFaults(sys, 0.1, 29);
  const LocalCompressionAlgorithm algo({4.0});
  ShardedOptions options;
  options.threads = 2;
  ShardedPoissonRunner runner(sys, algo, 31, options);
  runner.forceBlockPathForTest();
  runner.runAtLeast(3 * 200000);
  ASSERT_GT(sys.expandedCount(), 0u);
  Sampler sampler(RejectionFreeRule(algo), RejectionFreeRule::kRadius);
  sys.freezeIdIndex();
  for (std::uint64_t e = 0; e < 48; ++e) {
    const core::BlockEpoch ep = core::BlockEpoch::draw(77, e);
    // L far above n: every occupied block draws activations.
    sampler.placeBlocks(sys, ep, 1000 * 100000);
    const auto reference = referenceBlocks(sys, ep);
    ASSERT_EQ(sampler.blocks().size(), reference.size()) << "epoch " << e;
    std::uint64_t crossing = 0;
    for (const RejectionFreeBlock& placed : sampler.blocks()) {
      RejectionFreeBlock block = placed;
      block.rebuild(sys, sampler.rule());
      const auto it = reference.find({block.blockY(), block.blockX()});
      ASSERT_NE(it, reference.end());
      EXPECT_EQ(block.particles(), it->second.particles) << "epoch " << e;
      EXPECT_EQ(block.candidateMass(), it->second.candidates) << "epoch " << e;
      EXPECT_EQ(block.crossing(), it->second.crossing) << "epoch " << e;
      EXPECT_TRUE(block.matchesRebuild(sys, sampler.rule()));
      crossing += block.crossing();
    }
    EXPECT_GT(crossing, 10000u);
  }
  sys.thawIdIndex(0);
}

/// The particle whose tail is at `cell`, by a scan of the records.
const Particle& tailOwner(const AmoebotSystem& sys, TriPoint cell) {
  for (std::size_t id = 0; id < sys.size(); ++id) {
    if (sys.particle(id).tail == cell) return sys.particle(id);
  }
  ADD_FAILURE() << "no tail at (" << cell.x << ", " << cell.y << ")";
  return sys.particle(0);
}

/// The crossing pairs of `p` with its tail at block-local (x, y): the
/// boxes its ports test — (tail, head), the ring, or (ℓ, ℓ + dir).
int crossingPairs(const Particle& p, const RejectionFreeRule& rule,
                  std::int64_t x, std::int64_t y) {
  const std::uint8_t nonCrossing = rule.nonCrossingMask(x, y);
  if (p.expanded) return ((nonCrossing >> p.expandDir) & 1u) != 0 ? 0 : 6;
  if (p.byzantine) return nonCrossing == 0x3F ? 0 : 6;
  return 6 - std::popcount(nonCrossing);
}

/// The code of block-local cell (x, y) read off the planes by definition —
/// bits 0–5 a protocol-following tail's legal expansions, bit 6 the six
/// ports of an expanded or a contracted Byzantine tail — with the records
/// found by a scan: the plane-side code the block's refresh must give.
RejectionFreeBlock::Code codeAt(const AmoebotSystem& sys,
                                const RejectionFreeRule& rule,
                                const RejectionFreeBlock& block,
                                std::int64_t x, std::int64_t y) {
  const TriPoint cell{static_cast<std::int32_t>(block.originX() + x),
                      static_cast<std::int32_t>(block.originY() + y)};
  const system::BitGrid& occ = sys.occupancyGrid();
  if (!occ.test(cell)) return 0;
  const bool expanded = sys.expandedGrid().test(cell);
  if (expanded && sys.headGrid().test(cell)) return 0;
  const std::uint8_t nonCrossing = rule.nonCrossingMask(x, y);
  if (!expanded && !sys.faultyGrid().test(cell)) {
    if (nonCrossing == 0) return 0;
    const auto legal = static_cast<RejectionFreeBlock::Code>(
        nonCrossing & ~occ.neighborMaskUnchecked(cell));
    if (legal == 0 || sys.expandedGrid().neighborMaskUnchecked(cell) != 0) {
      return 0;
    }
    return legal;
  }
  const Particle& p = tailOwner(sys, cell);
  if (p.crashed || crossingPairs(p, rule, x, y) != 0) return 0;
  if (expanded) return p.byzantine ? 0 : 1u << 6;
  return occ.neighborMaskUnchecked(cell) != 0x3F ? 1u << 6 : 0;
}

TEST(AmoebotRejectionFreeIndex, RefreshMatchesThePlanesAroundEveryEvent) {
  // ℓ at every distance 0–7 from each block line and mid-block, each event
  // kind — a protocol expansion, a contraction back, one to the head, a
  // Byzantine probe — among random neighbours within 4 cells of ℓ (on both
  // sides of a block line; some expanded, crashed or Byzantine), on flat
  // and tiled planes.  After event(): the block's rows equal the planes'
  // words (rowsMatch()), and the cells it lists, in kRefreshCells order,
  // carry the plane-side codes before and after the event (codeAt()
  // above); every unlisted refresh cell's code is unchanged.
  const LocalCompressionAlgorithm algo({4.0});
  const RejectionFreeRule rule(algo);
  core::BlockEpoch ep;
  ep.offsetX = 64;
  ep.offsetY = 37;
  constexpr std::int64_t kBlockX = 3;
  constexpr std::int64_t kBlockY = -2;
  constexpr std::int64_t kSize = core::BlockEpoch::kBlockSize;
  std::vector<std::int64_t> coords;
  for (std::int64_t v = 0; v < 8; ++v) {
    coords.push_back(v);
    coords.push_back(kSize - 1 - v);
  }
  coords.push_back(kSize / 2);
  enum Kind { kExpand, kBack, kToHead, kByzantine };
  std::map<std::pair<int, ActivationResult>, int> seen;
  std::uint64_t stream = 0;
  std::uint64_t listed = 0;
  for (const bool tiled : {false, true}) {
    for (const std::int64_t x : coords) {
      for (const std::int64_t y : coords) {
        const std::uint8_t nonCrossing = rule.nonCrossingMask(x, y);
        for (const int kind : {kExpand, kBack, kToHead, kByzantine}) {
          if (nonCrossing == 0) continue;
          if (kind == kByzantine && nonCrossing != 0x3F) continue;
          for (const double density : {0.5, 0.8}) {
            rng::CounterStream draw(0x726566726573, stream++);
            RejectionFreeBlock block;
            block.reset(ep, kBlockX, kBlockY, 0, {}, 1);
            const TriPoint l{static_cast<std::int32_t>(block.originX() + x),
                             static_cast<std::int32_t>(block.originY() + y)};
            // The actor's pair (ℓ, ℓ + d), d non-crossing, its target empty.
            int d = static_cast<int>(draw.below(6));
            while (((nonCrossing >> d) & 1u) == 0) d = (d + 1) % 6;
            const Direction dir = lattice::directionFromIndex(d);
            const TriPoint target = lattice::neighbor(l, dir);
            std::vector<TriPoint> cells = {l};
            for (std::int32_t dy = -4; dy <= 4; ++dy) {
              for (std::int32_t dx = -4; dx <= 4; ++dx) {
                const TriPoint c = l + TriPoint{dx, dy};
                if (c == l || c == target || !draw.bernoulli(density)) continue;
                cells.push_back(c);
              }
            }
            if (tiled) cells.push_back({60000, 20000});
            rng::Random ctor(stream);
            AmoebotSystem sys(ParticleSystem(cells), ctor);
            ASSERT_EQ(sys.occupancyGrid().tiled(), tiled);
            const auto actor = static_cast<std::uint32_t>(sys.at(l).particle);
            // Decorations, away from the actor's pair: expanded particles
            // (none next to ℓ when it expands), crashed and Byzantine ones.
            for (std::size_t id = 0; id < sys.size(); ++id) {
              if (id == actor) continue;
              const TriPoint tail = sys.particle(id).tail;
              const bool nearActor =
                  lattice::latticeDistance(tail, l) <= 1 ||
                  lattice::latticeDistance(tail, target) <= 1;
              if (draw.bernoulli(0.2) && !(kind == kExpand && nearActor)) {
                const Direction e = lattice::directionFromIndex(
                    static_cast<int>(draw.below(6)));
                const TriPoint head = lattice::neighbor(tail, e);
                if (!sys.occupancyGrid().test(head) && head != target &&
                    lattice::latticeDistance(head, l) > 1) {
                  sys.expand(id, e);
                }
              }
              const double fault = draw.uniform();
              if (fault < 0.08) {
                sys.markCrashed(id);
              } else if (fault < 0.16) {
                sys.markByzantine(id);
              }
            }
            int port = static_cast<int>(draw.below(6));
            if (kind == kExpand) {
              while (sys.globalDirection(actor, port) != dir) {
                port = (port + 1) % 6;
              }
            } else if (kind == kByzantine) {
              sys.markByzantine(actor);
            } else {
              sys.expand(actor, dir);
              sys.setFlag(actor, kind == kToHead);
            }
            // The block's tails, as the coordinator counts them.
            std::uint32_t particles = 0;
            core::RowSet rows{};
            for (std::size_t id = 0; id < sys.size(); ++id) {
              const std::int64_t lx = sys.particle(id).tail.x - block.originX();
              const std::int64_t ly = sys.particle(id).tail.y - block.originY();
              if (lx < 0 || lx >= kSize || ly < 0 || ly >= kSize) continue;
              ++particles;
              rows[static_cast<std::size_t>(ly >> 6)] |= std::uint64_t{1}
                                                         << (ly & 63);
            }
            block.reset(ep, kBlockX, kBlockY, particles, rows, 1);
            sys.freezeIdIndex();
            block.rebuild(sys, rule);
            ASSERT_TRUE(block.rowsMatch(sys));
            // The plane-side codes of every refresh cell in the block.
            const auto codes = [&](int refreshDir) {
              std::vector<std::tuple<std::int64_t, std::int64_t,
                                     RejectionFreeBlock::Code>>
                  out;
              for (std::size_t k = 0; k < core::kRefreshNear; ++k) {
                const TriPoint c = core::kRefreshCells
                    [static_cast<std::size_t>(refreshDir)][k];
                const std::int64_t cx = x + c.x;
                const std::int64_t cy = y + c.y;
                if (cx < 0 || cx >= kSize || cy < 0 || cy >= kSize) continue;
                out.emplace_back(cx, cy, codeAt(sys, rule, block, cx, cy));
              }
              return out;
            };
            // A Byzantine probe's direction is known only afterwards: take
            // the codes before for every direction.
            std::array<decltype(codes(0)), 6> before;
            for (int e = 0; e < 6; ++e) {
              before[static_cast<std::size_t>(e)] = codes(e);
            }
            const RejectionFreeBlock::Event event =
                block.event(sys, rule, actor, port, draw);
            const Particle& after = sys.particle(actor);
            ASSERT_NE(event.result, ActivationResult::Idle);
            ++seen[{kind, event.result}];
            const std::string where = "ℓ (" + std::to_string(x) + ", " +
                                      std::to_string(y) + "), kind " +
                                      std::to_string(kind) +
                                      (tiled ? ", tiled" : ", flat");
            ASSERT_TRUE(block.rowsMatch(sys)) << where;
            const int refreshDir = after.expanded ? after.expandDir : d;
            const auto now = codes(refreshDir);
            const auto& was = before[static_cast<std::size_t>(refreshDir)];
            ASSERT_EQ(was.size(), now.size());
            std::size_t next = 0;
            for (std::size_t k = 0; k < now.size(); ++k) {
              const auto [cx, cy, code] = now[k];
              const RejectionFreeBlock::Code codeWas = std::get<2>(was[k]);
              const bool isListed = next < event.cells &&
                                    event.recodes[next].x == cx &&
                                    event.recodes[next].y == cy;
              if (!isListed) {
                ASSERT_EQ(codeWas, code) << "unlisted cell (" << cx << ", "
                                         << cy << ") changed; " << where;
                continue;
              }
              ASSERT_EQ(event.recodes[next].before, codeWas)
                  << "cell (" << cx << ", " << cy << "); " << where;
              ASSERT_EQ(event.recodes[next].after, code)
                  << "cell (" << cx << ", " << cy << "); " << where;
              ++next;
            }
            ASSERT_EQ(next, event.cells)
                << "a listed cell out of kRefreshCells order; " << where;
            listed += event.cells;
          }
        }
      }
    }
  }
  const auto count = [&](int kind, ActivationResult result) {
    return seen[std::pair{kind, result}];
  };
  std::printf("to the head %d of %d, Byzantine probes %d, listed %llu\n",
              count(kToHead, ActivationResult::MovedToHead),
              count(kToHead, ActivationResult::MovedToHead) +
                  count(kToHead, ActivationResult::ContractedBack),
              count(kByzantine, ActivationResult::Expanded),
              static_cast<unsigned long long>(listed));
  EXPECT_GT(count(kExpand, ActivationResult::Expanded), 800);
  EXPECT_GT(count(kBack, ActivationResult::ContractedBack), 800);
  EXPECT_GT(count(kToHead, ActivationResult::MovedToHead), 200);
  EXPECT_GT(count(kByzantine, ActivationResult::Expanded), 200);
  EXPECT_GT(listed, 10000u);
}

TEST(AmoebotRejectionFreeIndex, FitsTheMemoryBudgetAtN1e5) {
  // The per-block structures of a 10⁵ spiral at λ = 4 after twenty
  // epochs — lists, logs and a byte of candidate bits per cell of each
  // block — stay within 256 KiB.
  rng::Random ctor(37);
  AmoebotSystem sys(system::spiralConfiguration(100000), ctor);
  const LocalCompressionAlgorithm algo({4.0});
  Sampler sampler(RejectionFreeRule(algo), RejectionFreeRule::kRadius);
  ActivationTallies tallies;
  std::uint64_t skipped = 0;
  for (std::uint64_t e = 0; e < 20; ++e) {
    skipped += runRejectionFreeEpoch(sampler, sys, core::BlockEpoch::draw(5, e),
                                     200000, inOrder, tallies);
  }
  EXPECT_LE(sampler.memoryBytes(), std::size_t{256} << 10);
  EXPECT_EQ(tallies.idle + tallies.events() + skipped, 20u * 200000u);
  EXPECT_GT(tallies.events(), 0u);
  expectIdIndexConsistent(sys, "after the epochs");
  // Every pair of every block is a candidate, crossing, or Idle.
  std::uint64_t particles = 0;
  for (const RejectionFreeBlock& block : sampler.blocks()) {
    EXPECT_LE(block.candidateMass() + block.crossing(),
              6u * block.particles());
    particles += block.particles();
  }
  EXPECT_LE(particles, 100000u);
}

}  // namespace
}  // namespace sops::amoebot

// --- 2. the law -------------------------------------------------------------

namespace sops::amoebot {
namespace {

constexpr int kBurnIn = 50000;
constexpr int kStride = 48;
constexpr double kAcceptP = 0.01;

/// Chi-square of the quiescent configurations a forced-rejection-free
/// runner visits against the exact π(σ) = λ^e/Z over Ω*.
void expectRejectionFreeMatchesPi(int n, int instants, std::uint64_t seed,
                                  std::uint64_t epochLength) {
  const enumeration::ExactEnsemble ensemble(n);
  const double lambda = 2.0;
  std::unordered_map<std::string, std::size_t> indexOf;
  for (std::size_t i = 0; i < ensemble.configs().size(); ++i) {
    indexOf.emplace(
        system::canonicalKeyFromPoints(ensemble.configs()[i].points), i);
  }
  rng::Random ctor(seed);
  AmoebotSystem sys(system::lineConfiguration(n), ctor);
  const LocalCompressionAlgorithm algo({lambda});
  ShardedOptions options;
  options.threads = 1;
  options.targetEventsPerEpoch = epochLength;
  ShardedPoissonRunner runner(sys, algo, seed + 1, options);
  runner.forceRejectionFreeForTest();
  runner.runAtLeast(kBurnIn);
  std::vector<double> counts(ensemble.configs().size(), 0.0);
  int skipBursts = 0;
  for (int s = 0; s < instants; ++s) {
    const std::uint64_t skipsBefore = runner.sweepActivations();
    runner.runAtLeast(kStride);
    if (runner.sweepActivations() != skipsBefore) ++skipBursts;
    if (sys.expandedCount() != 0) continue;  // quiescent instants only
    const auto it = indexOf.find(system::canonicalKey(sys.tailConfiguration()));
    ASSERT_NE(it, indexOf.end()) << "rejection-free runner left Ω*";
    counts[it->second] += 1.0;
  }
  EXPECT_EQ(runner.rejectionFreeEpochs() * epochLength, runner.activations());
  const double share = static_cast<double>(skipBursts) / instants;
  std::printf("bursts with a skip: %.2f%%\n", 100.0 * share);
  EXPECT_GE(share, 0.03);
  double total = 0.0;
  for (const double c : counts) total += c;
  ASSERT_GT(total, 1000.0) << "not enough quiescent samples";
  const analysis::ChiSquareResult gof =
      analysis::chiSquareGoodnessOfFit(counts, ensemble.stationary(lambda));
  std::printf("chi-square p = %.3f (%.0f samples)\n", gof.pValue, total);
  EXPECT_GT(gof.pValue, kAcceptP)
      << "chi2 = " << gof.statistic << ", dof = " << gof.dof
      << ", samples = " << total;
}

TEST(AmoebotRejectionFreeDistribution, MatchesExactPiN4) {
  expectRejectionFreeMatchesPi(4, 120000, 2203, 6);
}

TEST(AmoebotRejectionFreeDistribution, MatchesExactPiN5) {
  expectRejectionFreeMatchesPi(5, 200000, 2303, 6);
}

TEST(AmoebotRejectionFreeDistribution, TruncatedEpochsMatchExactPi) {
  // Three activations per epoch: a geometric run rarely fits, so nearly
  // every epoch ends by cutting one — the memorylessness the truncation
  // relies on is what this weighs.
  expectRejectionFreeMatchesPi(5, 200000, 2503, 3);
}

/// Two-sample KS of the perimeter, the skip count and every outcome tally
/// between `replicas` rejection-free runs and as many runs of the
/// list-order oracle (the block path's law, bit for bit) from `start`,
/// `epochs` epochs of `length` activations each at λ = 4.
void expectRejectionFreeMatchesListOrderKS(const ParticleSystem& start,
                                           std::uint64_t length, int epochs,
                                           int replicas,
                                           std::uint64_t seedBase) {
  const LocalCompressionAlgorithm algo({4.0});
  constexpr int kObservables = 6;
  const char* const names[kObservables] = {
      "perimeter", "skipped",       "idle",
      "expanded",  "moved to head", "contracted back"};
  std::vector<double> samples[kObservables][2];
  for (int side = 0; side < 2; ++side) {
    for (int r = 0; r < replicas; ++r) {
      const std::uint64_t seed =
          seedBase + static_cast<std::uint64_t>(r) * 31 + 100000 * side;
      rng::Random ctor(seed);
      AmoebotSystem sys(start, ctor);
      ShardedOptions options;
      options.threads = 1;
      options.targetEventsPerEpoch = length;
      ShardedPoissonRunner runner(sys, algo, seed + 1, options);
      if (side == 0) {
        runner.forceRejectionFreeForTest();
      } else {
        runner.forceBlockPathForTest();
      }
      runner.runAtLeast(static_cast<std::uint64_t>(epochs) * length);
      ASSERT_EQ(runner.rejectionFreeEpochs(),
                static_cast<std::uint64_t>(side == 0 ? epochs : 0));
      const ActivationTallies& t = runner.tallies();
      ASSERT_EQ(t.idle + t.events() + runner.sweepActivations(),
                runner.activations());
      const double values[kObservables] = {
          static_cast<double>(system::perimeter(sys.tailConfiguration())),
          static_cast<double>(runner.sweepActivations()),
          static_cast<double>(t.idle),
          static_cast<double>(t.expanded),
          static_cast<double>(t.movedToHead),
          static_cast<double>(t.contractedBack)};
      for (int k = 0; k < kObservables; ++k) {
        samples[k][side].push_back(values[k]);
      }
    }
  }
  for (int k = 0; k < kObservables; ++k) {
    const analysis::KsResult ks =
        analysis::ksTwoSample(samples[k][0], samples[k][1]);
    std::printf("%s: KS p = %.3f\n", names[k], ks.pValue);
    EXPECT_GT(ks.pValue, 0.001) << names[k] << ": D = " << ks.statistic;
  }
}

TEST(AmoebotRejectionFreeDistribution, MatchesListOrderOracleKS) {
  // The compressed regime at n = 10⁴: 48 replicas per side from the same
  // spiral, six epochs each.
  expectRejectionFreeMatchesListOrderKS(system::spiralConfiguration(10000),
                                        20000, 6, 48, 7000);
}

TEST(AmoebotRejectionFreeDistribution, MatchesListOrderOracleAcrossABlockLine) {
  // A 130-particle line spans more than a block, so every epoch cuts it
  // at an x block line and a few of its candidates cross: the skip count
  // and the outcome tallies then weigh the thinning, which the π tests
  // cannot see (executing a crossing candidate instead of skipping it
  // still samples π).
  expectRejectionFreeMatchesListOrderKS(system::lineConfiguration(130), 260,
                                        4, 300, 9000);
}

TEST(AmoebotRejectionFreeDistribution, BlocksDrawIndependently) {
  // Two copies of one 3-particle line at the same place in two blocks,
  // two activations per epoch.  Each block runs from its own (seed, e,
  // block) streams, so when both blocks get one activation and both
  // expand, their expansions coincide only as often as two independent
  // draws among the line's 14 legal expansions do; blocks sharing one
  // stream would repeat each other.
  std::vector<TriPoint> points;
  for (const std::int32_t shift : {0, 256}) {
    for (std::int32_t x = 20; x < 23; ++x) points.push_back({shift + x, 20});
  }
  const LocalCompressionAlgorithm algo({4.0});
  Sampler sampler(RejectionFreeRule(algo), RejectionFreeRule::kRadius);
  int both = 0;
  int same = 0;
  for (std::uint64_t e = 0; e < 4000; ++e) {
    rng::Random ctor(e);
    AmoebotSystem sys(ParticleSystem(points), ctor);
    core::BlockEpoch ep = core::BlockEpoch::draw(1401, e);
    ep.offsetX = 0;
    ep.offsetY = 0;
    ActivationTallies tallies;
    runRejectionFreeEpoch(sampler, sys, ep, 2, inOrder, tallies);
    const auto blocks = sampler.blocks();
    if (blocks.size() != 2 || blocks[0].tallies().expanded != 1 ||
        blocks[1].tallies().expanded != 1) {
      continue;
    }
    ++both;
    bool coincide = true;
    for (std::size_t i = 0; i < 3; ++i) {
      const Particle& a = sys.particle(i);
      const Particle& b = sys.particle(i + 3);
      coincide = coincide && a.expanded == b.expanded &&
                 a.head - a.tail == b.head - b.tail;
    }
    same += coincide ? 1 : 0;
  }
  ASSERT_GT(both, 500);
  EXPECT_LT(static_cast<double>(same) / both, 0.5)
      << same << " of " << both << " expansions coincide";
}

TEST(AmoebotRejectionFreeDistribution, BlockProposalCountsMatchTheMultinomial) {
  // A 10-particle line at x ∈ [60, 69] under an x-offset of 64, its right
  // end expanded across x = 70: 4 tails left of the block line, 6 right
  // of it (and one head, which is no particle of its block).  Over many
  // epoch keys, the left block's share of L = 8 activations must be
  // Binomial(8, 4/10) — the factorisation's (m_b) ~ Multinomial(L, n_b/n).
  std::vector<TriPoint> points;
  for (std::int32_t x = 60; x < 70; ++x) points.push_back({x, 5});
  rng::Random ctor(7);
  AmoebotSystem sys(ParticleSystem(points), ctor);
  sys.expand(9, Direction::East);
  const LocalCompressionAlgorithm algo({4.0});
  Sampler sampler(RejectionFreeRule(algo), RejectionFreeRule::kRadius);
  constexpr std::uint64_t kLength = 8;
  std::vector<double> counts(kLength + 1, 0.0);
  for (std::uint64_t e = 0; e < 40000; ++e) {
    core::BlockEpoch ep = core::BlockEpoch::draw(1301, e);
    ep.offsetX = 64;
    ep.offsetY = 0;
    sampler.placeBlocks(sys, ep, kLength);
    std::uint64_t left = 0;
    std::uint64_t total = 0;
    for (const RejectionFreeBlock& block : sampler.blocks()) {
      if (block.blockX() == -1) left = block.proposals();
      total += block.proposals();
      EXPECT_EQ(block.particles(), block.blockX() == -1 ? 4u : 6u);
    }
    ASSERT_EQ(total, kLength);
    counts[left] += 1.0;
  }
  std::vector<double> pmf(kLength + 1, 0.0);
  for (std::uint64_t k = 0; k <= kLength; ++k) {
    pmf[k] = std::tgamma(kLength + 1.0) /
             (std::tgamma(k + 1.0) * std::tgamma(kLength - k + 1.0)) *
             std::pow(0.4, static_cast<double>(k)) *
             std::pow(0.6, static_cast<double>(kLength - k));
  }
  const analysis::ChiSquareResult gof =
      analysis::chiSquareGoodnessOfFit(counts, pmf);
  EXPECT_GT(gof.pValue, kAcceptP)
      << "chi2 = " << gof.statistic << ", dof = " << gof.dof;
}

}  // namespace
}  // namespace sops::amoebot

// --- 3. routing -------------------------------------------------------------

namespace sops::amoebot {
namespace {

/// Everything two runs can disagree on, the routing count included.
struct Signature {
  std::vector<TriPoint> tails;
  std::vector<TriPoint> heads;
  std::vector<bool> flags;
  ActivationTallies tallies;
  std::uint64_t activations = 0;
  std::uint64_t sweepActivations = 0;
  std::uint64_t rejectionFreeEpochs = 0;
  double now = 0.0;

  bool operator==(const Signature& other) const {
    return tails == other.tails && heads == other.heads &&
           flags == other.flags && tallies.idle == other.tallies.idle &&
           tallies.expanded == other.tallies.expanded &&
           tallies.movedToHead == other.tallies.movedToHead &&
           tallies.contractedBack == other.tallies.contractedBack &&
           activations == other.activations &&
           sweepActivations == other.sweepActivations &&
           rejectionFreeEpochs == other.rejectionFreeEpochs &&
           now == other.now;
  }
};

Signature signatureOf(const AmoebotSystem& sys,
                      const ShardedPoissonRunner& runner) {
  Signature sig;
  for (std::size_t id = 0; id < sys.size(); ++id) {
    sig.tails.push_back(sys.particle(id).tail);
    sig.heads.push_back(sys.particle(id).head);
    sig.flags.push_back(sys.particle(id).flag);
  }
  sig.tallies = runner.tallies();
  sig.activations = runner.activations();
  sig.sweepActivations = runner.sweepActivations();
  sig.rejectionFreeEpochs = runner.rejectionFreeEpochs();
  sig.now = runner.now();
  return sig;
}

ShardedOptions withThreads(unsigned threads) {
  ShardedOptions options;
  options.threads = threads;
  return options;
}

TEST(AmoebotRejectionFreeRouting, DefaultRunnerRoutesCompressedEpochs) {
  // A 10⁴ spiral at λ = 4: the first epoch runs on the block path, every
  // later one rejection-free, in spans of four (so six epochs round up to
  // nine); the test-only hook keeps all on the block path.
  const LocalCompressionAlgorithm algo({4.0});
  const ParticleSystem spiral = system::spiralConfiguration(10000);
  rng::Random ctor(41);
  AmoebotSystem sys(spiral, ctor);
  ShardedPoissonRunner routed(sys, algo, 1213, withThreads(4));
  routed.runAtLeast(6 * 20000);
  EXPECT_EQ(routed.rejectionFreeEpochs(), 8u);
  rng::Random ctor2(41);
  AmoebotSystem blockSys(spiral, ctor2);
  ShardedPoissonRunner block(blockSys, algo, 1213, withThreads(4));
  block.forceBlockPathForTest();
  block.runAtLeast(9 * 20000);
  EXPECT_EQ(block.rejectionFreeEpochs(), 0u);
  EXPECT_EQ(block.activations(), routed.activations());
}

TEST(AmoebotRejectionFreeRouting, TrajectoryIndependentOfThreadCountAndResume) {
  // A 2·10⁴ spiral at λ = 4 has far fewer than L/64 non-Idle activations
  // per epoch, so every epoch after the first routes rejection-free, in
  // spans of four.  Each thread count runs six epochs (nine, rounded up to
  // spans), snapshots, resumes at another count and runs six more
  // (eight); every run must end on the list-order run's state.
  const LocalCompressionAlgorithm algo({4.0});
  const ParticleSystem spiral = system::spiralConfiguration(20000);
  const auto runWith = [&](unsigned threads, unsigned resumeThreads) {
    rng::Random ctor(43);
    AmoebotSystem sys(spiral, ctor);
    ShardedPoissonRunner runner(sys, algo, 3301, withThreads(threads));
    runner.runAtLeast(6 * 40000);
    system::SnapshotWriter w;
    sys.saveState(w);
    runner.saveState(w);
    rng::Random other(47);  // restore overwrites its draws
    AmoebotSystem resumedSys(spiral, other);
    ShardedPoissonRunner resumed(resumedSys, algo, 3301,
                                 withThreads(resumeThreads));
    system::SnapshotReader r(w.payload());
    resumedSys.restoreState(r);
    resumed.restoreState(r);
    r.finish();
    resumed.runAtLeast(6 * 40000);
    EXPECT_TRUE(system::isConnected(resumedSys.tailConfiguration()));
    return signatureOf(resumedSys, resumed);
  };
  const Signature oracle = runWith(1, 1);
  EXPECT_EQ(oracle.rejectionFreeEpochs, 16u);
  EXPECT_GT(oracle.sweepActivations, 0u);
  EXPECT_GT(oracle.tallies.events(), 0u);
  EXPECT_TRUE(runWith(2, 4) == oracle);
  EXPECT_TRUE(runWith(4, 3) == oracle);
  EXPECT_TRUE(runWith(3, 2) == oracle);
}

TEST(AmoebotRejectionFreeRouting, BusyEpochsStayOnTheBlockPath) {
  // A 2000-particle line at λ = 4 is far from compressed: more than L/64
  // of its activations move something, so the route never leaves the
  // block path and runs the trajectory of the runner pinned to it.
  const LocalCompressionAlgorithm algo({4.0});
  const ParticleSystem line = system::lineConfiguration(2000);
  rng::Random ctor(53);
  AmoebotSystem sys(line, ctor);
  ShardedPoissonRunner routed(sys, algo, 3401, withThreads(2));
  rng::Random ctor2(53);
  AmoebotSystem plainSys(line, ctor2);
  ShardedPoissonRunner plain(plainSys, algo, 3401, withThreads(2));
  plain.forceBlockPathForTest();
  routed.runAtLeast(8 * 4000);
  plain.runAtLeast(8 * 4000);
  EXPECT_EQ(routed.rejectionFreeEpochs(), 0u);
  EXPECT_GT(routed.tallies().events() * kAmoebotRejectionFreeDivisor,
            routed.activations());
  EXPECT_TRUE(signatureOf(sys, routed) == signatureOf(plainSys, plain));
}

TEST(AmoebotRejectionFreeRouting, OlderPayloadsRestoreOnTheBlockPath) {
  // A v5/v6 amoebot payload is a v7 payload without the six words of
  // tallies and routing state: it restores with the tallies at zero and
  // the first epoch on the block path.
  const LocalCompressionAlgorithm algo({4.0});
  const ParticleSystem spiral = system::spiralConfiguration(20000);
  constexpr std::uint64_t kLength = 40000;  // L = 2n
  rng::Random ctor(59);
  AmoebotSystem sys(spiral, ctor);
  ShardedPoissonRunner runner(sys, algo, 3501, withThreads(2));
  runner.runAtLeast(4 * kLength);
  ASSERT_GT(runner.rejectionFreeEpochs(), 0u);
  system::SnapshotWriter w;
  sys.saveState(w);
  runner.saveState(w);
  const std::vector<std::uint8_t> old(w.payload().begin(),
                                      w.payload().end() - 6 * 8);
  for (const std::uint32_t version : {5u, 6u}) {
    rng::Random other(61);
    AmoebotSystem resumedSys(spiral, other);
    ShardedPoissonRunner resumed(resumedSys, algo, 3501, withThreads(2));
    system::SnapshotReader r(old, version);
    resumedSys.restoreState(r);
    resumed.restoreState(r);
    r.finish();
    EXPECT_EQ(resumed.rejectionFreeEpochs(), 0u) << version;
    EXPECT_EQ(resumed.tallies().events() + resumed.tallies().idle, 0u);
    EXPECT_EQ(resumed.activations(), runner.activations()) << version;
    EXPECT_EQ(resumed.sweepActivations(), runner.sweepActivations());
    resumed.runAtLeast(kLength);  // the first epoch after the resume: block
    EXPECT_EQ(resumed.rejectionFreeEpochs(), 0u) << version;
    resumed.runAtLeast(kLength);  // then a rejection-free span
    EXPECT_EQ(resumed.rejectionFreeEpochs(), 4u) << version;
    EXPECT_TRUE(system::isConnected(resumedSys.tailConfiguration()));
  }
}

}  // namespace
}  // namespace sops::amoebot

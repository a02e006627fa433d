// Rejection-free epochs (core/rejection_free.hpp) and the sharded runner's
// epoch routing (core/sharded_chain_runner.hpp).
//
//  1. The per-block structures: after every accepted move each block's
//     counts and candidate lists equal a from-scratch rebuild — on flat
//     and tiled systems, for the paper's chain and its ablations, and at
//     four threads while the other blocks run; the refresh's codes from
//     the block's words and the flip tables equal the grid's, before and
//     after a move, at every position relative to the block lines; each
//     block's word rebuild equals the particle-by-particle count; the
//     memory budget.
//  2. The law: a rejection-free epoch samples the block-path epoch's law.
//     Chi-square of visited configurations against exact π at n = 4, 5, 6
//     (and at 3-proposal epochs, where nearly every geometric run is cut
//     at a block's end); two-sample KS of e(σ), the perimeter, the
//     boundary-reject count and every stage tally against the list-order
//     oracle at n = 10⁴ and on configurations a block line cuts in every
//     epoch; chi-square of the blocks' proposal counts against the
//     multinomial; two identical blocks draw independently.
//  3. Routing: the default runner never leaves the block path; with
//     routing on, the trajectory — and the rejection-free epoch count — is
//     identical at every thread count and across a snapshot at a different
//     thread count; v5 payloads restore.
//
// Pre-registered design of the distributional tests (as in
// tests/sharded_chain_test.cpp): burn-in 50,000 proposals; one sample per
// 96 proposals (eight 12-proposal epochs); chi-square p > 0.01 with cells
// below 5 expected pooled; KS p > 0.001 per observable; fixed seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/stats.hpp"
#include "core/block_executor.hpp"
#include "core/rejection_free.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "enumeration/exact_distribution.hpp"
#include "system/canonical.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "system/snapshot.hpp"

namespace sops::core {
namespace {

using Runner = ShardedChainRunner<CompressionModel>;
using Sampler = RejectionFreeSampler<RejectionFreeRules>;

/// One epoch of `sampler` in order on this thread, committed as the runner
/// commits it: each block's moves into the system, its tallies into
/// `stats` and `edges`.  Returns the boundary rejects.
std::uint64_t runInOrder(Sampler& sampler, system::ParticleSystem& sys,
                         const BlockEpoch& ep, std::uint64_t length,
                         EngineStats& stats, std::int64_t& edges) {
  return sampler.runEpoch(
      sys, ep, length,
      [](std::size_t count, const std::function<void(std::size_t)>& fn) {
        for (std::size_t j = 0; j < count; ++j) fn(j);
      },
      [&](const RejectionFreeBlock& block) {
        for (const RejectionFreeBlock::Move& m : block.moves()) {
          sys.commitMove(m.from, m.to);
        }
        stats.merge(block.stats());
        edges += block.edgeDelta();
      });
}

Runner makeRunner(system::ParticleSystem initial, const ChainOptions& options,
                  std::uint64_t seed, unsigned threads,
                  std::uint64_t epochLength = 0) {
  ShardedChainOptions sharded;
  sharded.threads = threads;
  sharded.targetEventsPerEpoch = epochLength;
  return Runner(std::move(initial), CompressionModel(options), seed, sharded);
}

// --- 1. the per-block structures -------------------------------------------

TEST(RejectionFreeIndex, MatchesRebuildAfterEveryAcceptedMove) {
  enum class Backend { Flat, Tiled };
  struct Ablation {
    const char* name;
    ChainOptions options;
  };
  std::vector<Ablation> ablations(4);
  ablations[0].name = "paper";
  ablations[1].name = "greedy";
  ablations[1].options.greedy = true;
  ablations[2].name = "properties=false";
  ablations[2].options.enforceProperties = false;
  ablations[3].name = "property2=false";
  ablations[3].options.allowProperty2 = false;
  for (const Ablation& ablation : ablations) {
    std::vector<std::uint64_t> acceptedByBackend;
    for (const Backend backend : {Backend::Flat, Backend::Tiled}) {
      // A 150-particle line at λ = 4 in 1500-proposal epochs: dozens of
      // accepted moves (a handful under greedy), each followed by a full
      // comparison (verifyEachMove throws on the first drift).
      system::ParticleSystem line = system::lineConfiguration(150);
      if (backend == Backend::Tiled) line.forceTiledForTest();
      Runner runner =
          makeRunner(std::move(line), ablation.options, 4001, 1, 1500);
      runner.forceRejectionFreeForTest(/*verifyEachMove=*/true);
      ASSERT_NO_THROW(runner.runAtLeast(16 * 1500)) << ablation.name;
      EXPECT_EQ(runner.rejectionFreeEpochs(), 16u) << ablation.name;
      EXPECT_EQ(runner.stats().steps, 16u * 1500u) << ablation.name;
      EXPECT_EQ(runner.edges(), system::countEdges(runner.system()))
          << ablation.name;
      acceptedByBackend.push_back(runner.stats().movement.accepted);
    }
    EXPECT_GT(acceptedByBackend[0], 5u) << ablation.name;
    // The crossing counts are exact on every backend, so the draws — and
    // the trajectory — do not depend on it.
    EXPECT_EQ(acceptedByBackend[1], acceptedByBackend[0]) << ablation.name;
  }
}

TEST(RejectionFreeIndex, MatchesRebuildAfterEveryMoveAtFourThreads) {
  // A 10⁴ spiral at λ = 4 on four workers: every accepted move of every
  // block is checked against a rebuild of its block while the other
  // blocks run, and the run must match the single-thread one.
  ChainOptions options;
  const system::ParticleSystem spiral = system::spiralConfiguration(10000);
  const auto runWith = [&](unsigned threads) {
    Runner runner = makeRunner(spiral, options, 4101, threads);
    runner.forceRejectionFreeForTest(/*verifyEachMove=*/true);
    runner.runAtLeast(8 * 20000);
    EXPECT_EQ(runner.edges(), system::countEdges(runner.system()));
    EXPECT_TRUE(system::isConnected(runner.system()));
    return std::pair{runner.system().positions(),
                     runner.stats().movement.accepted};
  };
  const auto four = runWith(4);
  EXPECT_GT(four.second, 100u);
  EXPECT_TRUE(four == runWith(1));
}

/// Block b's counts, crossing pairs and particles, particle by particle.
struct BlockReference {
  PairCounts counts{};
  std::uint64_t crossing = 0;
  std::uint64_t particles = 0;
};

std::map<std::pair<std::int64_t, std::int64_t>, BlockReference>
referenceBlocks(const system::ParticleSystem& sys, const BlockEpoch& ep,
                const RejectionFreeRules& rules) {
  std::map<std::pair<std::int64_t, std::int64_t>, BlockReference> blocks;
  const auto reach = blockReach(1);
  for (const TriPoint p : sys.positions()) {
    const std::int64_t bx = (p.x - ep.offsetX) >> BlockEpoch::kBlockShift;
    const std::int64_t by = (p.y - ep.offsetY) >> BlockEpoch::kBlockShift;
    BlockReference& block = blocks[{by, bx}];
    ++block.particles;
    for (int d = 0; d < lattice::kNumDirections; ++d) {
      const lattice::Direction dir = lattice::directionFromIndex(d);
      if (!ep.inside(p, reach[static_cast<std::size_t>(d)])) {
        ++block.crossing;
      } else if (sys.occupied(lattice::neighbor(p, dir))) {
        ++block.counts[kPairOccupied];
      } else {
        ++block.counts[rules.maskCode[sys.ringMask(p, dir)]];
      }
    }
  }
  return blocks;
}

TEST(RejectionFreeIndex, BandScanMatchesParticleScan) {
  // A 10⁵ spiral on a flat grid (and on a tiled one) crosses several
  // block lines in both axes under every offset; each block's word-
  // parallel rebuild must count exactly the pairs the per-particle
  // definition does, code by code, and list every filter pair once.
  for (const bool tiled : {false, true}) {
    system::ParticleSystem spiral = system::spiralConfiguration(100000);
    if (tiled) spiral.forceTiledForTest();
    ASSERT_EQ(spiral.grid().tiled(), tiled);
    Sampler sampler(
        RejectionFreeRules(buildDecisionTable(ChainOptions{}), false, 1), 2);
    for (std::uint64_t e = 0; e < 24; ++e) {
      const BlockEpoch ep = BlockEpoch::draw(77, e);
      // L far above n: every occupied block draws proposals.
      sampler.placeBlocks(spiral, ep, 1000 * 100000);
      const auto reference =
          referenceBlocks(spiral, ep, sampler.rule());
      ASSERT_EQ(sampler.blocks().size(), reference.size()) << "epoch " << e;
      std::uint64_t crossing = 0;
      for (const RejectionFreeBlock& placed : sampler.blocks()) {
        RejectionFreeBlock block = placed;
        block.rebuild(spiral.grid(), sampler.rule());
        const auto it = reference.find({block.blockY(), block.blockX()});
        ASSERT_NE(it, reference.end());
        EXPECT_EQ(block.particles(), it->second.particles);
        EXPECT_EQ(block.counts(), it->second.counts) << "epoch " << e;
        EXPECT_EQ(block.crossing(), it->second.crossing) << "epoch " << e;
        EXPECT_TRUE(block.matchesRebuild(spiral.grid(), sampler.rule()));
        crossing += block.crossing();
      }
      EXPECT_GT(crossing, 1000u);
    }
  }
}

/// The packed codes of block-local cell (x, y), read from the grid by
/// definition: kEmptyCodes for an empty cell, else per direction
/// kPairCrossing, kPairOccupied for a full target, or its ring mask's code.
std::uint32_t codesAt(const system::ParticleSystem& sys,
                      const RejectionFreeRules& rules,
                      const RejectionFreeBlock& block, std::int64_t x,
                      std::int64_t y) {
  const TriPoint cell{static_cast<std::int32_t>(block.originX() + x),
                      static_cast<std::int32_t>(block.originY() + y)};
  if (!sys.occupied(cell)) return RejectionFreeBlock::kEmptyCodes;
  const std::uint8_t nonCrossing = rules.nonCrossingMask(x, y);
  std::uint32_t codes = 0;
  for (int d = 0; d < lattice::kNumDirections; ++d) {
    const lattice::Direction dir = lattice::directionFromIndex(d);
    std::uint32_t code = kPairCrossing;
    if (((nonCrossing >> d) & 1u) != 0) {
      code = sys.occupied(lattice::neighbor(cell, dir))
                 ? kPairOccupied
                 : rules.maskCode[sys.ringMask(cell, dir)];
    }
    codes |= code << (4 * d);
  }
  return codes;
}

TEST(RejectionFreeIndex, RecodeTablesMatchTheGridAroundEveryMove) {
  // ℓ at every distance 0–7 from each block line and mid-block, every
  // non-crossing move direction, random occupancy of four densities within
  // 5 cells of ℓ (on both sides of a block line), flat and tiled grids:
  // refresh() — the block's words and the flip tables, no grid read — must
  // give, for each cell it lists, the codes the grid gives before and after
  // the move (codesAt() above), list the cells in kRefreshCells order, and
  // leave out only cells whose codes the move does not change.
  const RejectionFreeRules rules(buildDecisionTable(ChainOptions{}), false, 1);
  BlockEpoch ep;
  ep.offsetX = 64;
  ep.offsetY = 37;
  constexpr std::int64_t kBlockX = 3;
  constexpr std::int64_t kBlockY = -2;
  std::vector<std::int64_t> coords;
  for (std::int64_t v = 0; v < 8; ++v) {
    coords.push_back(v);
    coords.push_back(BlockEpoch::kBlockSize - 1 - v);
  }
  coords.push_back(BlockEpoch::kBlockSize / 2);
  std::uint64_t stream = 0;
  std::uint64_t listed = 0;
  for (const bool tiled : {false, true}) {
    for (const std::int64_t x : coords) {
      for (const std::int64_t y : coords) {
        for (int d = 0; d < lattice::kNumDirections; ++d) {
          if (((rules.nonCrossingMask(x, y) >> d) & 1u) == 0) continue;
          for (const double density : {0.3, 0.5, 0.7, 0.85}) {
            RejectionFreeBlock block;
            block.reset(ep, kBlockX, kBlockY, 0, {}, 1);
            const TriPoint from{static_cast<std::int32_t>(block.originX() + x),
                                static_cast<std::int32_t>(block.originY() + y)};
            const TriPoint to =
                lattice::neighbor(from, lattice::directionFromIndex(d));
            rng::CounterStream draw(0x7461626c65, stream++);
            std::vector<TriPoint> cells = {from};
            for (std::int32_t dy = -5; dy <= 5; ++dy) {
              for (std::int32_t dx = -5; dx <= 5; ++dx) {
                const TriPoint c = from + TriPoint{dx, dy};
                if (c == from || c == to || !draw.bernoulli(density)) continue;
                cells.push_back(c);
              }
            }
            system::ParticleSystem sys(cells);
            if (tiled) sys.forceTiledForTest();
            ASSERT_EQ(sys.grid().tiled(), tiled);
            // The block's particles and rows, as the coordinator counts them.
            std::uint32_t particles = 0;
            RowSet rows{};
            for (const TriPoint c : cells) {
              const std::int64_t lx = c.x - block.originX();
              const std::int64_t ly = c.y - block.originY();
              if (lx < 0 || lx >= BlockEpoch::kBlockSize || ly < 0 ||
                  ly >= BlockEpoch::kBlockSize) {
                continue;
              }
              ++particles;
              rows[static_cast<std::size_t>(ly >> 6)] |= std::uint64_t{1}
                                                         << (ly & 63);
            }
            block.reset(ep, kBlockX, kBlockY, particles, rows, 1);
            block.rebuild(sys.grid(), rules);
            // The grid's codes of every refresh cell in the block, before.
            const auto& refresh = kRefreshCells[static_cast<std::size_t>(d)];
            std::vector<std::pair<std::int64_t, std::int64_t>> inBlock;
            std::vector<std::uint32_t> before;
            for (const TriPoint c : refresh) {
              const std::int64_t cx = x + c.x;
              const std::int64_t cy = y + c.y;
              if (cx < 0 || cx >= BlockEpoch::kBlockSize || cy < 0 ||
                  cy >= BlockEpoch::kBlockSize) {
                continue;
              }
              inBlock.emplace_back(cx, cy);
              before.push_back(codesAt(sys, rules, block, cx, cy));
            }
            struct Listed {
              std::int64_t x, y;
              std::uint32_t before, after;
            };
            std::vector<Listed> out;
            block.refresh(rules,
                          static_cast<std::uint32_t>(
                              ((y * BlockEpoch::kBlockSize + x) << 3) | d),
                          [&](std::int64_t cx, std::int64_t cy,
                              std::uint32_t was, std::uint32_t now) {
                            out.push_back({cx, cy, was, now});
                          });
            sys.moveOccupancy(from, to);
            std::size_t next = 0;
            for (std::size_t k = 0; k < inBlock.size(); ++k) {
              const auto [cx, cy] = inBlock[k];
              const std::uint32_t after = codesAt(sys, rules, block, cx, cy);
              const bool isListed = next < out.size() && out[next].x == cx &&
                                    out[next].y == cy;
              if (!isListed) {
                ASSERT_EQ(before[k], after)
                    << "unlisted cell (" << cx << ", " << cy << ") changed; ℓ ("
                    << x << ", " << y << "), d " << d << ", tiled " << tiled;
                continue;
              }
              ASSERT_EQ(out[next].before, before[k])
                  << "cell (" << cx << ", " << cy << "); ℓ (" << x << ", " << y
                  << "), d " << d << ", tiled " << tiled;
              ASSERT_EQ(out[next].after, after)
                  << "cell (" << cx << ", " << cy << "); ℓ (" << x << ", " << y
                  << "), d " << d << ", tiled " << tiled;
              ++next;
            }
            ASSERT_EQ(next, out.size())
                << "a listed cell out of kRefreshCells order";
            listed += out.size();
          }
        }
      }
    }
  }
  EXPECT_GT(listed, 50000u);
}

TEST(RejectionFreeIndex, FitsTheMemoryBudgetAtN1e5) {
  // The per-block structures of a 10⁵ spiral at λ = 4, after twenty
  // epochs, against the 0.5 MiB the persistent index they replace held.
  system::ParticleSystem spiral = system::spiralConfiguration(100000);
  const std::int64_t edgesBefore = system::countEdges(spiral);
  Sampler sampler(
      RejectionFreeRules(buildDecisionTable(ChainOptions{}), false, 1), 2);
  EngineStats stats;
  std::int64_t edges = edgesBefore;
  std::uint64_t rejects = 0;
  for (std::uint64_t e = 0; e < 20; ++e) {
    rejects += runInOrder(sampler, spiral, BlockEpoch::draw(5, e), 200000,
                          stats, edges);
  }
  EXPECT_LE(sampler.memoryBytes(), std::size_t{1} << 19);
  EXPECT_EQ(stats.steps, 20u * 200000u);
  EXPECT_EQ(stats.steps, stats.movement.steps + rejects);
  EXPECT_GT(stats.movement.accepted, 0u);
  EXPECT_EQ(edges, system::countEdges(spiral));
  // Every pair of every particle is counted once: coded or crossing.
  std::uint64_t pairs = 0;
  std::uint64_t particles = 0;
  for (const RejectionFreeBlock& block : sampler.blocks()) {
    for (const std::uint64_t c : block.counts()) pairs += c;
    pairs += block.crossing();
    particles += block.particles();
  }
  EXPECT_EQ(pairs, 6 * particles);
  EXPECT_LE(particles, 100000u);
}

}  // namespace
}  // namespace sops::core

// --- 2. the law -------------------------------------------------------------

namespace sops::core {
namespace {

constexpr int kBurnIn = 50000;
constexpr int kStride = 96;
constexpr double kAcceptP = 0.01;

/// Chi-square of the configurations a forced-rejection-free runner visits
/// against the exact π(σ) = λ^e/Z over Ω*.
void expectRejectionFreeMatchesPi(int n, int instants, std::uint64_t seed,
                                  std::uint64_t epochLength) {
  const enumeration::ExactEnsemble ensemble(n);
  const double lambda = 2.0;
  std::unordered_map<std::string, std::size_t> indexOf;
  for (std::size_t i = 0; i < ensemble.configs().size(); ++i) {
    indexOf.emplace(
        system::canonicalKeyFromPoints(ensemble.configs()[i].points), i);
  }
  ChainOptions options;
  options.lambda = lambda;
  Runner runner =
      makeRunner(system::lineConfiguration(n), options, seed, 1, epochLength);
  runner.forceRejectionFreeForTest();
  runner.runAtLeast(kBurnIn);
  std::vector<double> counts(ensemble.configs().size(), 0.0);
  int boundaryBursts = 0;
  for (int s = 0; s < instants; ++s) {
    const std::uint64_t rejectsBefore = runner.sweepEvents();
    runner.runAtLeast(kStride);
    if (runner.sweepEvents() != rejectsBefore) ++boundaryBursts;
    const auto it = indexOf.find(system::canonicalKey(runner.system()));
    ASSERT_NE(it, indexOf.end()) << "rejection-free runner left Ω*";
    counts[it->second] += 1.0;
  }
  EXPECT_EQ(runner.rejectionFreeEpochs(), runner.epochs());
  const double share = static_cast<double>(boundaryBursts) / instants;
  std::printf("bursts with a boundary rejection: %.2f%%\n", 100.0 * share);
  EXPECT_GE(share, 0.03);
  const analysis::ChiSquareResult gof =
      analysis::chiSquareGoodnessOfFit(counts, ensemble.stationary(lambda));
  EXPECT_GT(gof.pValue, kAcceptP)
      << "chi2 = " << gof.statistic << ", dof = " << gof.dof;
}

TEST(RejectionFreeDistribution, MatchesExactPiN4) {
  expectRejectionFreeMatchesPi(4, 150000, 2201, 12);
}

TEST(RejectionFreeDistribution, MatchesExactPiN5) {
  expectRejectionFreeMatchesPi(5, 200000, 2301, 12);
}

TEST(RejectionFreeDistribution, MatchesExactPiN6) {
  expectRejectionFreeMatchesPi(6, 400000, 2401, 12);
}

TEST(RejectionFreeDistribution, TruncatedEpochsMatchExactPi) {
  // Three proposals per epoch: a geometric run rarely fits, so nearly
  // every epoch ends by cutting one — the memorylessness the truncation
  // relies on is what this weighs.
  expectRejectionFreeMatchesPi(5, 200000, 2501, 3);
}

/// Two-sample KS of e(σ), the perimeter, the boundary-reject count and
/// every stage tally of EngineStats after `epochs` epochs of `length`
/// proposals from `start`: R replicas with rejection-free epochs forced
/// against R on the list-order oracle (the block path's law, bit for
/// bit).
void expectRejectionFreeMatchesListOrder(const system::ParticleSystem& start,
                                         int replicas, int epochs,
                                         std::uint64_t length,
                                         std::uint64_t seed) {
  ChainOptions options;
  options.lambda = 4.0;
  constexpr int kObservables = 8;
  const char* const names[kObservables] = {
      "e(sigma)", "perimeter",    "boundary rejects",  "accepted",
      "occupied", "rejected gap", "rejected property", "rejected filter"};
  std::vector<double> samples[kObservables][2];
  for (int side = 0; side < 2; ++side) {
    for (int r = 0; r < replicas; ++r) {
      Runner runner =
          makeRunner(start, options,
                     seed + static_cast<std::uint64_t>(r) * 31 + 100000 * side,
                     1, length);
      if (side == 0) {
        runner.forceRejectionFreeForTest();
      } else {
        runner.forceBlockPathForTest();
      }
      runner.runAtLeast(static_cast<std::uint64_t>(epochs) * length);
      ASSERT_EQ(runner.rejectionFreeEpochs(),
                static_cast<std::uint64_t>(side == 0 ? epochs : 0));
      const ChainStats& m = runner.stats().movement;
      ASSERT_EQ(runner.stats().steps, m.steps + runner.sweepEvents());
      const double values[kObservables] = {
          static_cast<double>(runner.edges()),
          static_cast<double>(system::perimeter(runner.system())),
          static_cast<double>(runner.sweepEvents()),
          static_cast<double>(m.accepted),
          static_cast<double>(m.targetOccupied),
          static_cast<double>(m.rejectedGap),
          static_cast<double>(m.rejectedProperty),
          static_cast<double>(m.rejectedFilter)};
      for (int k = 0; k < kObservables; ++k) {
        samples[k][side].push_back(values[k]);
      }
    }
  }
  for (int k = 0; k < kObservables; ++k) {
    const analysis::KsResult ks =
        analysis::ksTwoSample(samples[k][0], samples[k][1]);
    EXPECT_GT(ks.pValue, 0.001) << names[k] << ": D = " << ks.statistic;
  }
}

TEST(RejectionFreeDistribution, MatchesListOrderOracleKS) {
  // The compressed regime at n = 10⁴: many blocks, few accepted moves.
  expectRejectionFreeMatchesListOrder(system::spiralConfiguration(10000), 48,
                                      6, 20000, 7000);
}

TEST(RejectionFreeDistribution, MatchesListOrderOracleOnCutLineKS) {
  // A hexagon of 37 with a tail along x ∈ [34, 140]: a vertical block line
  // (x = 64 or x = 128, by the epoch's x-offset) cuts the tail in every
  // epoch, so the blocks differ in size and composition — one holds the
  // hexagon, which accepts little, the other the loose tail, which
  // accepts much.
  std::vector<TriPoint> points;
  for (std::int32_t y = -3; y <= 3; ++y) {
    for (std::int32_t x = -3; x <= 3; ++x) {
      if (lattice::latticeDistance({0, 0}, {x, y}) <= 3) {
        points.push_back({30 + x, y});
      }
    }
  }
  for (std::int32_t x = 34; x <= 140; ++x) points.push_back({x, 0});
  const system::ParticleSystem start(points);
  expectRejectionFreeMatchesListOrder(start, 300, 4, 2 * start.size(), 9100);
  // An 8-particle line at x ∈ [60, 67]: cut 4 | 4 under an x-offset of
  // 64, whole under 0.  Blocks this small weigh every per-block
  // quantity — n_b in the candidate rate, the block's own streams.
  std::vector<TriPoint> line;
  for (std::int32_t x = 60; x < 68; ++x) line.push_back({x, 0});
  expectRejectionFreeMatchesListOrder(system::ParticleSystem(line), 300, 20,
                                      16, 9200);
}

TEST(RejectionFreeDistribution, BlocksDrawIndependently) {
  // Two copies of one 3-particle line at the same place in two blocks (the
  // sampler alone: it needs no connected configuration).  Each block runs
  // from its own (seed, e, block) streams, so their first moves coincide
  // only as often as two independent draws do; blocks sharing one stream
  // would repeat each other's moves.
  std::vector<TriPoint> points;
  for (const std::int32_t shift : {0, 256}) {
    for (std::int32_t x = 20; x < 23; ++x) points.push_back({shift + x, 20});
  }
  Sampler sampler(
      RejectionFreeRules(buildDecisionTable(ChainOptions{}), false, 1), 2);
  int both = 0;
  int same = 0;
  for (std::uint64_t e = 0; e < 4000; ++e) {
    system::ParticleSystem sys(points);
    BlockEpoch ep = BlockEpoch::draw(1401, e);
    ep.offsetX = 0;
    ep.offsetY = 0;
    EngineStats stats;
    std::int64_t edges = 4;
    runInOrder(sampler, sys, ep, 40, stats, edges);
    const auto blocks = sampler.blocks();
    if (blocks.size() != 2 || blocks[0].moves().empty() ||
        blocks[1].moves().empty()) {
      continue;
    }
    ++both;
    const RejectionFreeBlock::Move a = blocks[0].moves()[0];
    const RejectionFreeBlock::Move b = blocks[1].moves()[0];
    const TriPoint shift{256, 0};
    same += (a.from + shift == b.from && a.to + shift == b.to) ? 1 : 0;
  }
  ASSERT_GT(both, 1000);
  // Independent first moves coincide with probability Σ p² over the few
  // candidate moves of the line — well under one half.
  EXPECT_LT(static_cast<double>(same) / both, 0.5)
      << same << " of " << both << " first moves coincide";
}

TEST(RejectionFreeDistribution, BlockProposalCountsMatchTheMultinomial) {
  // A 10-particle line at x ∈ [60, 69] under an x-offset of 64: 4
  // particles left of the block line, 6 right of it.  Over many epoch
  // keys, the left block's share of L = 8 proposals must be Binomial(8,
  // 4/10) — the factorisation's (m_b) ~ Multinomial(L, n_b / n).
  std::vector<TriPoint> points;
  for (std::int32_t x = 60; x < 70; ++x) points.push_back({x, 5});
  const system::ParticleSystem line(points);
  Sampler sampler(
      RejectionFreeRules(buildDecisionTable(ChainOptions{}), false, 1), 2);
  constexpr std::uint64_t kLength = 8;
  std::vector<double> counts(kLength + 1, 0.0);
  for (std::uint64_t e = 0; e < 40000; ++e) {
    BlockEpoch ep = BlockEpoch::draw(1301, e);
    ep.offsetX = 64;
    ep.offsetY = 0;
    sampler.placeBlocks(line, ep, kLength);
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
}  // namespace sops::core

// --- 3. routing -------------------------------------------------------------

namespace sops::core {
namespace {

/// Everything two runs can disagree on, including the routing count.
struct Signature {
  std::vector<TriPoint> positions;
  std::int64_t edges = 0;
  EngineStats stats;
  std::uint64_t sweepEvents = 0;
  std::uint64_t rejectionFreeEpochs = 0;

  bool operator==(const Signature& other) const {
    return positions == other.positions && edges == other.edges &&
           std::memcmp(&stats, &other.stats, sizeof(EngineStats)) == 0 &&
           sweepEvents == other.sweepEvents &&
           rejectionFreeEpochs == other.rejectionFreeEpochs;
  }
};

Signature signatureOf(const Runner& runner) {
  return {runner.system().positions(), runner.edges(), runner.stats(),
          runner.sweepEvents(), runner.rejectionFreeEpochs()};
}

TEST(RejectionFreeRouting, DefaultRunnerRoutesCompressedEpochs) {
  // A 10⁴ spiral at λ = 4: the first epoch runs on the block path, every
  // later one rejection-free, in spans of four (so six epochs round up to
  // nine); the test-only hook keeps all on the block path.
  ChainOptions options;
  const system::ParticleSystem spiral = system::spiralConfiguration(10000);
  Runner routed = makeRunner(spiral, options, 1213, 4);
  routed.runAtLeast(6 * 20000);
  EXPECT_EQ(routed.epochs(), 9u);
  EXPECT_EQ(routed.rejectionFreeEpochs(), 8u);
  Runner block = makeRunner(spiral, options, 1213, 4);
  block.forceBlockPathForTest();
  block.runAtLeast(6 * 20000);
  EXPECT_EQ(block.epochs(), 6u);
  EXPECT_EQ(block.rejectionFreeEpochs(), 0u);
}

TEST(RejectionFreeRouting, TrajectoryIndependentOfThreadCountAndResume) {
  // A 2·10⁴ spiral at λ = 4 accepts far fewer than L/256 moves per epoch,
  // so every epoch after the first routes rejection-free, in spans of
  // four.  Each thread count runs six epochs (nine, rounded up to spans),
  // snapshots, resumes at another count and runs six more (eight); every
  // run must end on the list-order run's state.
  ChainOptions options;
  const system::ParticleSystem spiral = system::spiralConfiguration(20000);
  const auto runWith = [&](unsigned threads, unsigned resumeThreads) {
    Runner runner = makeRunner(spiral, options, 3301, threads);
    runner.runAtLeast(6 * 40000);
    system::SnapshotWriter w;
    runner.saveState(w);
    Runner resumed = makeRunner(spiral, options, 3301, resumeThreads);
    system::SnapshotReader r(w.payload());
    resumed.restoreState(r);
    r.finish();
    resumed.runAtLeast(6 * 40000);
    EXPECT_EQ(resumed.edges(), system::countEdges(resumed.system()));
    EXPECT_TRUE(system::isConnected(resumed.system()));
    return signatureOf(resumed);
  };
  const Signature oracle = runWith(1, 1);
  EXPECT_EQ(oracle.rejectionFreeEpochs, 16u);
  EXPECT_GT(oracle.sweepEvents, 0u);
  EXPECT_TRUE(runWith(2, 4) == oracle);
  EXPECT_TRUE(runWith(4, 3) == oracle);
  EXPECT_TRUE(runWith(3, 2) == oracle);
}

TEST(RejectionFreeRouting, HighAcceptanceEpochsStayOnTheBlockPath) {
  // A spiral at λ = 1 accepts about 2.5% of its proposals, more than
  // L/256 per epoch: the route never leaves the block path, so it runs
  // the trajectory of the runner pinned to the block path.
  ChainOptions options;
  options.lambda = 1.0;
  Runner routed =
      makeRunner(system::spiralConfiguration(3000), options, 3401, 2);
  Runner plain =
      makeRunner(system::spiralConfiguration(3000), options, 3401, 2);
  plain.forceBlockPathForTest();
  routed.runAtLeast(8 * 6000);
  plain.runAtLeast(8 * 6000);
  EXPECT_EQ(routed.rejectionFreeEpochs(), 0u);
  EXPECT_TRUE(signatureOf(routed) == signatureOf(plain));
}

TEST(RejectionFreeRouting, VersionFivePayloadRestoresOnTheBlockPath) {
  // A v5 payload is a v6 payload without the two routing words.
  ChainOptions options;
  const system::ParticleSystem spiral = system::spiralConfiguration(20000);
  constexpr std::uint64_t kLength = 40000;  // L = 2n
  Runner runner = makeRunner(spiral, options, 3501, 2);
  runner.runAtLeast(4 * kLength);
  ASSERT_GT(runner.rejectionFreeEpochs(), 0u);
  system::SnapshotWriter w;
  runner.saveState(w);
  std::vector<std::uint8_t> v5(w.payload().begin(), w.payload().end() - 16);
  Runner resumed = makeRunner(spiral, options, 3501, 2);
  system::SnapshotReader r(v5, 5);
  resumed.restoreState(r);
  r.finish();
  EXPECT_EQ(resumed.rejectionFreeEpochs(), 0u);
  EXPECT_EQ(resumed.epochs(), runner.epochs());
  resumed.runAtLeast(kLength);  // the first epoch after a v5 resume: block
  EXPECT_EQ(resumed.rejectionFreeEpochs(), 0u);
  resumed.runAtLeast(kLength);  // then a rejection-free span
  EXPECT_EQ(resumed.rejectionFreeEpochs(), 4u);
  EXPECT_EQ(resumed.edges(), system::countEdges(resumed.system()));
}

}  // namespace
}  // namespace sops::core

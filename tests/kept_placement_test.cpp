// The rejection-free sampler's kept anchor populations
// (core::AnchorPopulation in core/rejection_free.hpp): every epoch's block
// placement — each block's (bx, by, n_b, rows, m_b) — equals one from
// scratch, for both block rules on flat grids, across the events that make
// the kept counts stale.
//
//  1. The sampler alone: before each epoch a second sampler places the
//     blocks from scratch (placeBlocks()); after it, the kept placement's
//     blocks must match it, their rows being the scratch rows plus those
//     the epoch's moves entered.  Between epochs particles move behind the
//     sampler — reported through invalidatePlacement() for chain M, as the
//     router does after a block-path epoch, and noticed through the
//     system's mutations() count for Algorithm A — and the window regrows
//     (noticed through the grid's geometry version).
//  2. The runners: the route alternates between the block path and
//     rejection-free epochs that check their placement against a particle
//     pass and their kept counts against a recount
//     (forceRejectionFreeForTest(verify) throws on a difference), at
//     threads 1, 2 and 4, with a window regrow mid-run, a snapshot restored
//     into the same runner (which must then repeat its trajectory) and,
//     for Algorithm A, direct mutations of the system between calls.  The
//     runs must agree across thread counts.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "core/block_executor.hpp"
#include "core/rejection_free.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "system/snapshot.hpp"

namespace sops {
namespace {

using lattice::TriPoint;
using ChainRunner = core::ShardedChainRunner<core::CompressionModel>;
using ChainSampler = core::RejectionFreeSampler<core::RejectionFreeRules>;
using AmoebotSampler = core::RejectionFreeSampler<amoebot::RejectionFreeRule>;

/// Runs fn(j) for every j in order on this thread.
void inOrder(std::size_t count, const std::function<void(std::size_t)>& fn) {
  for (std::size_t j = 0; j < count; ++j) fn(j);
}

/// The blocks a sampler ran (`kept`, as its epoch left them) were placed as
/// the from-scratch placement `fresh` of the same epoch: same blocks in
/// the same order, same n_b and m_b, and the scratch rows plus the rows
/// the block's moves entered.
template <typename Block>
void expectPlacedAsFromScratch(std::span<const Block> fresh,
                               std::span<const Block> kept,
                               const std::string& label) {
  ASSERT_EQ(kept.size(), fresh.size()) << label;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].blockX(), fresh[i].blockX()) << label;
    EXPECT_EQ(kept[i].blockY(), fresh[i].blockY()) << label;
    EXPECT_EQ(kept[i].particles(), fresh[i].particles()) << label;
    EXPECT_EQ(kept[i].proposals(), fresh[i].proposals()) << label;
    core::RowSet rows = fresh[i].rows();
    for (const auto& m : kept[i].moves()) {
      const std::int64_t y = m.to.y - kept[i].originY();
      rows[static_cast<std::size_t>(y >> 6)] |= std::uint64_t{1} << (y & 63);
    }
    EXPECT_EQ(kept[i].rows(), rows) << label;
  }
}

/// A cell just past the window's lower-left corner: reserving it regrows a
/// flat window.
TriPoint pastTheWindow(const system::BitGrid& grid) {
  return {static_cast<std::int32_t>(grid.originX() - 40),
          static_cast<std::int32_t>(grid.originY() - 40)};
}

// --- 1. the sampler alone ---------------------------------------------------

TEST(KeptPlacement, ChainSamplerPlacesAsFromScratch) {
  // A 3000-particle spiral at λ = 4 in 6000-proposal epochs.  Every fifth
  // epoch is followed by a particle moved three rows out behind the
  // sampler's back and reported, every seventh by a regrow.
  constexpr std::uint64_t kLength = 6000;
  system::ParticleSystem sys = system::spiralConfiguration(3000);
  const core::RejectionFreeRules rules(
      core::buildDecisionTable(core::ChainOptions{}), false, 1);
  ChainSampler sampler(rules, 2);
  ChainSampler fresh(rules, 2);
  std::uint64_t moves = 0;
  for (std::uint64_t e = 0; e < 40; ++e) {
    const core::BlockEpoch ep = core::BlockEpoch::draw(909, e);
    fresh.placeBlocks(sys, ep, kLength);
    sampler.runEpoch(sys, ep, kLength, inOrder,
                     [&](const core::RejectionFreeBlock& block) {
                       for (const core::RejectionFreeBlock::Move& m :
                            block.moves()) {
                         sys.commitMove(m.from, m.to);
                       }
                       moves += block.moves().size();
                     });
    const std::string label = "epoch " + std::to_string(e);
    expectPlacedAsFromScratch(fresh.blocks(), sampler.blocks(), label);
    ASSERT_FALSE(sys.grid().tiled()) << label;
    if (e % 5 == 2) {
      const std::size_t last = sys.size() - 1;
      TriPoint to = sys.position(last) + TriPoint{0, 3};
      while (sys.occupied(to)) to = to + TriPoint{0, 1};
      sys.moveParticle(last, to);
      sampler.invalidatePlacement();
    }
    if (e % 7 == 3) {
      const TriPoint far = pastTheWindow(sys.grid());
      sys.reserveInterior({&far, 1}, 4);
    }
  }
  EXPECT_GT(moves, 20u);
}

/// Moves the tail of the contracted protocol-following particle with the
/// highest id that has an empty neighbour there: an expansion and a
/// contraction to the head, outside any runner.
void moveOneTail(amoebot::AmoebotSystem& sys) {
  for (std::size_t id = sys.size(); id-- > 0;) {
    const amoebot::Particle& p = sys.particle(id);
    if (p.expanded || p.crashed || p.byzantine) continue;
    for (const lattice::Direction d : lattice::kAllDirections) {
      if (sys.occupied(lattice::neighbor(p.tail, d))) continue;
      sys.expand(id, d);
      sys.contractToHead(id);
      return;
    }
  }
  FAIL() << "no particle can move";
}

TEST(KeptPlacement, AmoebotSamplerPlacesAsFromScratch) {
  // A 3000-particle spiral under Algorithm A at λ = 4 in 6000-activation
  // epochs.  Every fifth epoch is followed by a tail moved directly on the
  // system (not reported: mutations() shows it), every seventh by a
  // regrow.
  constexpr std::uint64_t kLength = 6000;
  rng::Random ctor(67);
  amoebot::AmoebotSystem sys(system::spiralConfiguration(3000), ctor);
  const amoebot::LocalCompressionAlgorithm algo({4.0});
  const amoebot::RejectionFreeRule rule(algo);
  AmoebotSampler sampler(rule, amoebot::RejectionFreeRule::kRadius);
  AmoebotSampler fresh(rule, amoebot::RejectionFreeRule::kRadius);
  amoebot::ActivationTallies tallies;
  for (std::uint64_t e = 0; e < 40; ++e) {
    const core::BlockEpoch ep = core::BlockEpoch::draw(919, e);
    fresh.placeBlocks(sys, ep, kLength);
    amoebot::runRejectionFreeEpoch(sampler, sys, ep, kLength, inOrder,
                                   tallies);
    const std::string label = "epoch " + std::to_string(e);
    expectPlacedAsFromScratch(fresh.blocks(), sampler.blocks(), label);
    ASSERT_FALSE(sys.occupancyGrid().tiled()) << label;
    if (e % 5 == 2) moveOneTail(sys);
    if (e % 7 == 3) {
      const TriPoint far = pastTheWindow(sys.occupancyGrid());
      sys.reserveInterior({&far, 1}, 4);
    }
  }
  EXPECT_GT(tallies.movedToHead, 10u);
}

// --- 2. the runners ---------------------------------------------------------

/// Everything two chain runs can disagree on.
struct ChainSignature {
  std::vector<TriPoint> positions;
  std::int64_t edges = 0;
  core::EngineStats stats;
  std::uint64_t sweepEvents = 0;
  std::uint64_t rejectionFreeEpochs = 0;

  bool operator==(const ChainSignature& other) const {
    return positions == other.positions && edges == other.edges &&
           std::memcmp(&stats, &other.stats, sizeof(core::EngineStats)) ==
               0 &&
           sweepEvents == other.sweepEvents &&
           rejectionFreeEpochs == other.rejectionFreeEpochs;
  }
};

ChainSignature signatureOf(const ChainRunner& runner) {
  return {runner.system().positions(), runner.edges(), runner.stats(),
          runner.sweepEvents(), runner.rejectionFreeEpochs()};
}

TEST(KeptPlacement, ChainRunnerAcrossRoutesRegrowsAndRestore) {
  // A 300-particle line at λ = 4 in 3000-proposal epochs, two
  // rejection-free epochs to each block-path one.  The line's window is
  // lower than a block: the storage rule regrows it inside the first
  // epoch, after that epoch's placement, so the second must recount.
  constexpr std::uint64_t kLength = 3000;
  core::ChainOptions options;
  const auto runWith = [&](unsigned threads) {
    core::ShardedChainOptions sharded;
    sharded.threads = threads;
    sharded.targetEventsPerEpoch = kLength;
    ChainRunner runner(system::lineConfiguration(300),
                       core::CompressionModel(options), 5150, sharded);
    std::uint64_t regrows = 0;
    const auto epoch = [&](bool rejectionFree) {
      if (rejectionFree) {
        runner.forceRejectionFreeForTest(/*verifyEachMove=*/true);
      } else {
        runner.forceBlockPathForTest();
      }
      const std::uint64_t version = runner.system().grid().geometryVersion();
      EXPECT_NO_THROW(runner.runAtLeast(kLength)) << "threads " << threads;
      if (runner.system().grid().geometryVersion() != version) ++regrows;
    };
    epoch(true);
    EXPECT_EQ(regrows, 1u) << "threads " << threads;
    for (int i = 1; i < 12; ++i) epoch(i % 3 != 2);
    system::SnapshotWriter w;
    runner.saveState(w);
    for (int i = 0; i < 4; ++i) epoch(true);
    const ChainSignature ahead = signatureOf(runner);
    system::SnapshotReader r(w.payload());
    runner.restoreState(r);
    r.finish();
    for (int i = 0; i < 4; ++i) epoch(true);
    EXPECT_TRUE(signatureOf(runner) == ahead) << "threads " << threads;
    EXPECT_EQ(runner.rejectionFreeEpochs(), 12u);
    EXPECT_EQ(runner.edges(), system::countEdges(runner.system()));
    return signatureOf(runner);
  };
  const ChainSignature one = runWith(1);
  EXPECT_GT(one.stats.movement.accepted, 100u);
  EXPECT_TRUE(runWith(2) == one);
  EXPECT_TRUE(runWith(4) == one);
}

/// Everything two Algorithm A runs can disagree on.
struct AmoebotSignature {
  std::vector<TriPoint> tails;
  std::vector<TriPoint> heads;
  std::array<std::uint64_t, 4> tallies{};
  std::uint64_t activations = 0;
  std::uint64_t sweepActivations = 0;
  std::uint64_t rejectionFreeEpochs = 0;

  bool operator==(const AmoebotSignature&) const = default;
};

AmoebotSignature signatureOf(const amoebot::AmoebotSystem& sys,
                             const amoebot::ShardedPoissonRunner& runner) {
  AmoebotSignature sig;
  for (std::size_t id = 0; id < sys.size(); ++id) {
    sig.tails.push_back(sys.particle(id).tail);
    sig.heads.push_back(sys.particle(id).head);
  }
  const amoebot::ActivationTallies& t = runner.tallies();
  sig.tallies = {t.idle, t.expanded, t.movedToHead, t.contractedBack};
  sig.activations = runner.activations();
  sig.sweepActivations = runner.sweepActivations();
  sig.rejectionFreeEpochs = runner.rejectionFreeEpochs();
  return sig;
}

TEST(KeptPlacement, AmoebotRunnerAcrossRoutesRegrowsMutationsAndRestore) {
  // A 2000-particle spiral under Algorithm A at λ = 4 in 4000-activation
  // epochs; between calls, tails moved directly on the system and a regrow
  // of its planes.
  constexpr std::uint64_t kLength = 4000;
  const amoebot::LocalCompressionAlgorithm algo({4.0});
  const auto runWith = [&](unsigned threads) {
    rng::Random ctor(71);
    amoebot::AmoebotSystem sys(system::spiralConfiguration(2000), ctor);
    amoebot::ShardedOptions options;
    options.threads = threads;
    options.targetEventsPerEpoch = kLength;
    amoebot::ShardedPoissonRunner runner(sys, algo, 6161, options);
    const auto epoch = [&](bool rejectionFree) {
      if (rejectionFree) {
        runner.forceRejectionFreeForTest(/*verifyEachEvent=*/true);
      } else {
        runner.forceBlockPathForTest();
      }
      EXPECT_NO_THROW(runner.runAtLeast(kLength)) << "threads " << threads;
    };
    for (int i = 0; i < 9; ++i) epoch(i % 3 != 1);
    moveOneTail(sys);
    epoch(true);
    moveOneTail(sys);
    moveOneTail(sys);
    epoch(true);
    const std::uint64_t version = sys.occupancyGrid().geometryVersion();
    const TriPoint far = pastTheWindow(sys.occupancyGrid());
    sys.reserveInterior({&far, 1}, 4);
    EXPECT_NE(sys.occupancyGrid().geometryVersion(), version);
    epoch(true);
    system::SnapshotWriter w;
    sys.saveState(w);
    runner.saveState(w);
    for (int i = 0; i < 4; ++i) epoch(true);
    const AmoebotSignature ahead = signatureOf(sys, runner);
    system::SnapshotReader r(w.payload());
    sys.restoreState(r);
    runner.restoreState(r);
    r.finish();
    for (int i = 0; i < 4; ++i) epoch(true);
    EXPECT_TRUE(signatureOf(sys, runner) == ahead) << "threads " << threads;
    EXPECT_EQ(runner.rejectionFreeEpochs(), 13u);
    return signatureOf(sys, runner);
  };
  const AmoebotSignature one = runWith(1);
  EXPECT_GT(one.tallies[2], 10u);  // contractions to the head
  EXPECT_TRUE(runWith(2) == one);
  EXPECT_TRUE(runWith(4) == one);
}

}  // namespace
}  // namespace sops

// core::EpochRouter, the route and run loop both block runners share, at
// both runners' divisors: the first epoch, and the first after a restore
// without routing words, take the block path; an epoch with exactly
// L/divisor events keeps the next on the block path and one fewer routes
// it rejection-free; the test modes pin one path; the loop counts epochs
// and boundary rejects, polls the cancel token between epochs and restores
// the index on every exit.  tests/rejection_free_test.cpp and
// tests/amoebot_rejection_free_test.cpp hold the runners to it end to end.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "amoebot/parallel_scheduler.hpp"
#include "core/block_executor.hpp"
#include "core/cancel.hpp"
#include "core/epoch_router.hpp"
#include "core/rejection_free.hpp"
#include "core/sharded_chain_runner.hpp"
#include "system/bit_grid.hpp"
#include "system/snapshot.hpp"
#include "util/assert.hpp"

namespace sops::core {
namespace {

using Router = EpochRouter<RejectionFreeRules>;

/// A router whose last epoch had `events` events, restored from routing
/// words.
Router after(std::uint64_t divisor, std::uint64_t events) {
  Router router(divisor, true);
  system::SnapshotWriter w;
  w.u64(events);
  w.u64(7);
  system::SnapshotReader r(w.payload());
  router.restore(r, true);
  r.finish();
  return router;
}

/// Parameterized by the runners' divisors.
class EpochRouting : public ::testing::TestWithParam<std::uint64_t> {};

constexpr std::uint64_t kChain = kRejectionFreeAcceptDivisor;
constexpr std::uint64_t kAmoebot = amoebot::kAmoebotRejectionFreeDivisor;

INSTANTIATE_TEST_SUITE_P(BothRunners, EpochRouting,
                         ::testing::Values(kChain, kAmoebot));

TEST(EpochRoutingDivisors, AreTheRunnersConstants) {
  EXPECT_EQ(kChain, 256u);
  EXPECT_EQ(kAmoebot, 64u);
}

TEST_P(EpochRouting, FirstEpochTakesTheBlockPath) {
  const Router router(GetParam(), true);
  EXPECT_EQ(router.lastEpochEvents(), kNoEpoch);
  EXPECT_EQ(router.rejectionFreeEpochs(), 0u);
  const std::array<std::uint64_t, 3> lengths = {1, 20000, kMaxEventsPerEpoch};
  for (const std::uint64_t length : lengths) {
    EXPECT_FALSE(router.routesRejectionFree(length)) << length;
  }
}

TEST_P(EpochRouting, RouteIsStrict) {
  const std::uint64_t divisor = GetParam();
  // L a multiple of the divisor: L/divisor events stay on the block path.
  for (const std::uint64_t quota : {1u, 78u, 1000u}) {
    const std::uint64_t length = quota * divisor;
    EXPECT_FALSE(after(divisor, quota).routesRejectionFree(length)) << length;
    EXPECT_TRUE(after(divisor, quota - 1).routesRejectionFree(length))
        << length;
  }
  // Otherwise the threshold is ⌈L/divisor⌉.
  for (const std::uint64_t length : {std::uint64_t{20000}, divisor + 1}) {
    const std::uint64_t ceiling = (length + divisor - 1) / divisor;
    EXPECT_FALSE(after(divisor, ceiling).routesRejectionFree(length)) << length;
    EXPECT_TRUE(after(divisor, ceiling - 1).routesRejectionFree(length))
        << length;
  }
  EXPECT_TRUE(after(divisor, 0).routesRejectionFree(1));
  EXPECT_FALSE(after(divisor, 1).routesRejectionFree(divisor));
}

TEST_P(EpochRouting, TestModesPinOnePath) {
  const std::uint64_t divisor = GetParam();
  const std::uint64_t length = 1000 * divisor;
  Router block = after(divisor, 0);
  ASSERT_TRUE(block.routesRejectionFree(length));
  block.forceBlockPath();
  EXPECT_FALSE(block.routesRejectionFree(length));

  Router rejectionFree(divisor, true);
  rejectionFree.forceRejectionFree(true, false);
  EXPECT_TRUE(rejectionFree.routesRejectionFree(length));  // from the first
  Router busy = after(divisor, length);
  busy.forceRejectionFree(true, false);
  EXPECT_TRUE(busy.routesRejectionFree(length));

  // Without the capability the route stays on the block path, and the
  // rejection-free mode is refused.
  Router incapable(divisor, false);
  EXPECT_THROW(incapable.forceRejectionFree(false, false), ContractViolation);
  system::SnapshotWriter w;
  w.u64(0);
  w.u64(0);
  system::SnapshotReader r(w.payload());
  incapable.restore(r, true);
  EXPECT_FALSE(incapable.routesRejectionFree(length));
}

TEST_P(EpochRouting, RoutingWordsRoundTrip) {
  const std::uint64_t divisor = GetParam();
  const Router router = after(divisor, 12);
  system::SnapshotWriter w;
  router.save(w);
  ASSERT_EQ(w.payload().size(), 16u);
  Router restored(divisor, true);
  system::SnapshotReader r(w.payload());
  restored.restore(r, true);
  r.finish();
  EXPECT_EQ(restored.lastEpochEvents(), 12u);
  EXPECT_EQ(restored.rejectionFreeEpochs(), 7u);
}

TEST_P(EpochRouting, RestoreWithoutRoutingWordsStartsOnTheBlockPath) {
  const std::uint64_t divisor = GetParam();
  Router router = after(divisor, 0);
  ASSERT_TRUE(router.routesRejectionFree(divisor));
  const std::vector<std::uint8_t> old;  // an older payload: no words
  system::SnapshotReader r(old, 5);
  router.restore(r, false);
  r.finish();
  EXPECT_EQ(router.lastEpochEvents(), kNoEpoch);
  EXPECT_EQ(router.rejectionFreeEpochs(), 0u);
  EXPECT_FALSE(router.routesRejectionFree(divisor));
}

// -- the run loop, on a scripted runner ---------------------------------------

/// A block kernel that executes every proposal and touches nothing.
struct NullKernel {
  struct Tallies {
    void merge(const Tallies&) noexcept {}
  };
  static constexpr std::int64_t kRadius = 1;

  [[nodiscard]] TriPoint position(std::uint32_t) const noexcept { return {}; }
  [[nodiscard]] const system::BitGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] bool covers(TriPoint, std::int64_t) const noexcept {
    return true;
  }
  void reserve(std::span<const TriPoint>, std::int64_t) {}
  bool runProposal(const BlockEpoch&, std::uint32_t, rng::CounterStream&,
                   Tallies&) {
    return true;
  }

  system::BitGrid grid_;
};

/// Epoch length of the scripted runs.
constexpr std::uint64_t kLength = 1024;

/// The router's hooks, with each epoch's event count taken from a script
/// and a log of the path each epoch took ('B' block, 'R' rejection-free).
struct ScriptedRunner {
  static constexpr std::uint64_t kRejects = 3;

  explicit ScriptedRunner(std::vector<std::uint64_t> script)
      : script(std::move(script)), executor(1, 16, options()) {}

  static BlockExecutorOptions options() {
    BlockExecutorOptions options;
    options.threads = 1;
    options.targetEventsPerEpoch = kLength;
    return options;
  }

  [[nodiscard]] std::uint64_t routedEvents() const noexcept { return events; }
  void runBlockEpoch() {
    executor.runEpoch(kernel, tallies);
    step('B');
  }
  [[nodiscard]] RejectionFreeRules rejectionFreeRule() const {
    ++rulesBuilt;
    return RejectionFreeRules(std::array<MoveDecision, 256>{}, false, 0);
  }
  std::uint64_t runRejectionFreeEpoch(Router::Sampler&, const BlockEpoch& ep,
                                      std::uint64_t length,
                                      const BlockForEach& forEach,
                                      bool verify) {
    EXPECT_EQ(ep.moveKey, BlockEpoch::draw(1, executor.epochs()).moveKey);
    EXPECT_EQ(length, kLength);
    std::size_t ran = 0;
    forEach(3, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 3u);
    verified = verified || verify;
    step('R');
    return kRejects;
  }
  void restoreIndex() { ++restores; }

  void step(char path) {
    if (log.size() == throwAt) throw std::runtime_error("epoch failed");
    events += script.at(log.size());
    log.push_back(path);
    if (log.size() == cancelAfter) cancel.requestCancel();
  }

  std::vector<std::uint64_t> script;
  NullKernel kernel;
  NullKernel::Tallies tallies;
  BlockExecutor<NullKernel> executor;
  CancelToken cancel;
  std::uint64_t events = 0;
  std::string log;
  std::size_t throwAt = ~std::size_t{0};
  std::size_t cancelAfter = ~std::size_t{0};
  mutable int rulesBuilt = 0;
  int restores = 0;
  bool verified = false;
};

TEST_P(EpochRouting, LoopRoutesByTheLastEpochsEvents) {
  // L = 1024: the quota is 4 events at 256, 16 at 64.
  const std::uint64_t quota = kLength / GetParam();
  ScriptedRunner runner({0, quota - 1, quota, 0, 5 * quota, quota - 1, 0});
  Router router(GetParam(), true);
  EXPECT_EQ(router.runAtLeast(7 * kLength - 1, runner.executor, runner),
            7 * kLength);
  EXPECT_EQ(runner.log, "BRRBRBR");
  EXPECT_EQ(router.rejectionFreeEpochs(), 4u);
  EXPECT_EQ(router.lastEpochEvents(), 0u);
  EXPECT_EQ(runner.executor.epochs(), 7u);
  EXPECT_EQ(runner.executor.boundaryRejects(), 4 * ScriptedRunner::kRejects);
  EXPECT_EQ(runner.rulesBuilt, 1);  // the sampler is built once, lazily
  EXPECT_EQ(runner.restores, 1);
  EXPECT_FALSE(runner.verified);
}

TEST_P(EpochRouting, LoopRunsWholeEpochsOnThePinnedPath) {
  ScriptedRunner block({0, 0, 0});
  Router blockRouter(GetParam(), true);
  blockRouter.forceBlockPath();
  EXPECT_EQ(blockRouter.runAtLeast(1, block.executor, block), kLength);
  blockRouter.runAtLeast(kLength + 1, block.executor, block);
  EXPECT_EQ(block.log, "BBB");
  EXPECT_EQ(block.rulesBuilt, 0);

  ScriptedRunner free({1000, 1000});
  Router freeRouter(GetParam(), true);
  freeRouter.forceRejectionFree(true, true);
  freeRouter.runAtLeast(2 * kLength, free.executor, free);
  EXPECT_EQ(free.log, "RR");
  EXPECT_TRUE(free.verified);
  EXPECT_EQ(freeRouter.lastEpochEvents(), 1000u);
}

TEST_P(EpochRouting, LoopPollsTheCancelTokenBetweenEpochs) {
  ScriptedRunner runner({0, 0, 0, 0});
  runner.cancelAfter = 2;
  Router router(GetParam(), true);
  router.setCancelToken(&runner.cancel);
  EXPECT_EQ(router.runAtLeast(4 * kLength, runner.executor, runner),
            2 * kLength);
  EXPECT_EQ(runner.log, "BR");
  EXPECT_EQ(router.runAtLeast(1, runner.executor, runner), 0u);
  EXPECT_EQ(runner.restores, 2);
}

TEST_P(EpochRouting, LoopRestoresTheIndexWhenAnEpochThrows) {
  for (const std::size_t throwAt : {0u, 1u}) {  // a block, a rejection-free
    ScriptedRunner runner({0, 0});
    runner.throwAt = throwAt;
    Router router(GetParam(), true);
    EXPECT_THROW(router.runAtLeast(4 * kLength, runner.executor, runner),
                 std::runtime_error);
    EXPECT_EQ(runner.restores, 1) << throwAt;
    EXPECT_EQ(router.rejectionFreeEpochs(), 0u) << throwAt;
  }
}

}  // namespace
}  // namespace sops::core

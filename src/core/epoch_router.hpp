#ifndef SOPS_CORE_EPOCH_ROUTER_HPP
#define SOPS_CORE_EPOCH_ROUTER_HPP

/// \file epoch_router.hpp
/// The run loop of both block runners (core::ShardedChainRunner,
/// amoebot::ShardedPoissonRunner; DESIGN.md §Epoch routing).  Each epoch
/// runs on the block path — core::BlockExecutor with the runner's kernel —
/// or through core::RejectionFreeSampler<Rule>, which samples the same
/// epoch law: rejection-free when the previous epoch had
/// events · divisor < L, strictly, the events and the divisor being the
/// runner's.  The first epoch, and the first after a restore without
/// routing words, take the block path (kNoEpoch).  The route reads only
/// seed-determined counts, so trajectories are identical at every thread
/// count and across resume.

#include <cstdint>
#include <memory>

#include "core/block_executor.hpp"
#include "core/cancel.hpp"
#include "core/rejection_free.hpp"
#include "system/snapshot.hpp"
#include "util/assert.hpp"

namespace sops::core {

/// The last epoch's event count before any epoch.
inline constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

/// The route, or one path pinned (test-only: the law is the same).
enum class EpochRoute : std::uint8_t { Auto, BlockOnly, RejectionFreeOnly };

template <typename Rule>
  requires RejectionFreeRule<Rule>
class EpochRouter {
 public:
  using Sampler = RejectionFreeSampler<Rule>;

  /// Without `rejectionFreeCapable` every epoch runs on the block path.
  EpochRouter(std::uint64_t divisor, bool rejectionFreeCapable) noexcept
      : divisor_(divisor),
        route_(rejectionFreeCapable ? EpochRoute::Auto
                                    : EpochRoute::BlockOnly) {}

  void forceBlockPath() noexcept { route_ = EpochRoute::BlockOnly; }
  /// With `verify`, every event is followed by a comparison of its block
  /// against a from-scratch rebuild, which must agree.
  void forceRejectionFree(bool capable, bool verify) {
    SOPS_REQUIRE(capable,
                 "rejection-free epochs need a uniform-weight rule without "
                 "aux moves and uniform selection");
    route_ = EpochRoute::RejectionFreeOnly;
    verify_ = verify;
  }
  /// A cooperative cancel token polled between epochs: once it trips,
  /// runAtLeast returns early (possibly with zero progress) with the system
  /// fully consistent — epoch boundaries are the only preemption points,
  /// and exactly the states a runner's saveState() serializes.  nullptr
  /// uninstalls.
  void setCancelToken(const CancelToken* cancel) noexcept { cancel_ = cancel; }

  /// The route of the next epoch, of `length` proposals.
  [[nodiscard]] bool routesRejectionFree(std::uint64_t length) const noexcept {
    if (route_ != EpochRoute::Auto) {
      return route_ == EpochRoute::RejectionFreeOnly;
    }
    return lastEpochEvents_ != kNoEpoch && lastEpochEvents_ * divisor_ < length;
  }

  /// Runs whole epochs until at least `minEvents` proposals have run in
  /// this call or the cancel token trips (polled between epochs); returns
  /// the number run.  The runner supplies routedEvents(), its cumulative
  /// event count; runBlockEpoch(); rejectionFreeRule(), read once;
  /// runRejectionFreeEpoch(sampler, ep, length, forEach, verify), which
  /// commits the blocks and returns their boundary rejects; and
  /// restoreIndex(), run on every exit, a throw included.
  template <typename Kernel, typename Runner>
  std::uint64_t runAtLeast(std::uint64_t minEvents,
                           BlockExecutor<Kernel>& executor, Runner& runner) {
    class IndexRestore {
     public:
      explicit IndexRestore(Runner& runner) noexcept : runner_(runner) {}
      ~IndexRestore() { runner_.restoreIndex(); }
      IndexRestore(const IndexRestore&) = delete;
      IndexRestore& operator=(const IndexRestore&) = delete;

     private:
      Runner& runner_;
    };
    const IndexRestore restore(runner);
    std::uint64_t executed = 0;
    while (executed < minEvents && !isCancelled(cancel_)) {
      const std::uint64_t eventsBefore = runner.routedEvents();
      if (routesRejectionFree(executor.epochLength())) {
        if (!sampler_) {
          sampler_ = std::make_unique<Sampler>(runner.rejectionFreeRule(),
                                               Kernel::kRadius);
        }
        const auto sample = [&](const BlockEpoch& ep, std::uint64_t length,
                                const BlockForEach& forEach) {
          return runner.runRejectionFreeEpoch(*sampler_, ep, length, forEach,
                                              verify_);
        };
        executor.runEpochWith(sample);
        ++rejectionFreeEpochs_;
      } else {
        // The block path moves particles behind the sampler's kept
        // populations.
        if (sampler_) sampler_->invalidatePlacement();
        runner.runBlockEpoch();
      }
      lastEpochEvents_ = runner.routedEvents() - eventsBefore;
      executed += executor.epochLength();
    }
    return executed;
  }

  [[nodiscard]] std::uint64_t rejectionFreeEpochs() const noexcept {
    return rejectionFreeEpochs_;
  }
  [[nodiscard]] std::uint64_t lastEpochEvents() const noexcept {
    return lastEpochEvents_;
  }

  /// The payload's two routing words: the last epoch's event count, then
  /// the rejection-free epoch count.
  void save(system::SnapshotWriter& w) const {
    w.u64(lastEpochEvents_);
    w.u64(rejectionFreeEpochs_);
  }
  /// Reads them if the payload has them (`present`); else starts over.
  /// The restored system's anchors are recounted at the next
  /// rejection-free epoch.
  void restore(system::SnapshotReader& r, bool present) {
    lastEpochEvents_ = present ? r.u64() : kNoEpoch;
    rejectionFreeEpochs_ = present ? r.u64() : 0;
    if (sampler_) sampler_->invalidatePlacement();
  }

 private:
  std::uint64_t divisor_;
  EpochRoute route_;
  bool verify_ = false;
  const CancelToken* cancel_ = nullptr;
  std::uint64_t lastEpochEvents_ = kNoEpoch;
  std::uint64_t rejectionFreeEpochs_ = 0;
  /// Built at the first rejection-free epoch; across epochs it holds
  /// reused buffers and the anchor populations it keeps (never
  /// serialized: a restore recounts them).
  std::unique_ptr<Sampler> sampler_;
};

}  // namespace sops::core

#endif  // SOPS_CORE_EPOCH_ROUTER_HPP

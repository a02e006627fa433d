#include "amoebot/parallel_scheduler.hpp"

#include <memory>
#include <string>

namespace sops::amoebot {

namespace {

/// RAII id-index restoration for one run (suspension itself is per
/// block-path epoch): restore must happen even when an epoch throws
/// (ContractViolation, bad_alloc), or the system would be left with
/// at()/expandedCount() permanently invalid.  restoreIdIndex() is
/// idempotent, and leaves a live index live.
class IdIndexRestore {
 public:
  explicit IdIndexRestore(AmoebotSystem& sys) : sys_(sys) {}
  ~IdIndexRestore() { sys_.restoreIdIndex(); }
  IdIndexRestore(const IdIndexRestore&) = delete;
  IdIndexRestore& operator=(const IdIndexRestore&) = delete;

 private:
  AmoebotSystem& sys_;
};

[[nodiscard]] double rateSumOf(const ShardedOptions& options,
                               std::size_t particles) {
  if (options.rates.empty()) return static_cast<double>(particles);
  double sum = 0.0;
  for (const double rate : options.rates) sum += rate;
  return sum;
}

}  // namespace

ShardedPoissonRunner::ShardedPoissonRunner(
    AmoebotSystem& sys, const LocalCompressionAlgorithm& algo,
    std::uint64_t seed, ShardedOptions options)
    : sys_(sys),
      algo_(algo),
      rateSum_(rateSumOf(options, sys.size())),
      executor_(seed, sys.size(), options),
      uniformRates_(options.rates.empty()),
      rejectionFree_(uniformRates_) {}

void ShardedPoissonRunner::forceRejectionFreeForTest(bool verifyEachEvent) {
  SOPS_REQUIRE(uniformRates_, "rejection-free epochs need uniform rates");
  rejectionFree_ = true;
  forceRejectionFree_ = true;
  verifyEachEvent_ = verifyEachEvent;
}

bool ShardedPoissonRunner::routeRejectionFree() const noexcept {
  if (!rejectionFree_) return false;
  if (forceRejectionFree_) return true;
  return lastEpochEvents_ != kNoEpoch &&
         lastEpochEvents_ * kAmoebotRejectionFreeDivisor <
             executor_.epochLength();
}

void ShardedPoissonRunner::runRejectionFreeEpoch() {
  sys_.keepIdIndexLive();
  if (!index_) index_ = std::make_unique<RejectionFreeIndex>(algo_);
  if (!indexCurrent_) {
    index_->rebuild(sys_);
    indexCurrent_ = true;
  }
  const std::uint64_t skipped =
      index_->runEpoch(sys_, executor_.nextEpoch(), executor_.epochLength(),
                       tallies_, verifyEachEvent_);
  executor_.completeEpoch(skipped);
  ++rejectionFreeEpochs_;
}

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

std::uint64_t ShardedPoissonRunner::runAtLeast(std::uint64_t minActivations) {
  const IdIndexRestore restore(sys_);
  Kernel kernel(sys_, algo_);
  std::uint64_t executed = 0;
  while (executed < minActivations && !core::isCancelled(cancel_)) {
    const std::uint64_t eventsBefore = tallies_.events();
    if (routeRejectionFree()) {
      runRejectionFreeEpoch();
    } else {
      sys_.suspendIdIndex();
      executor_.runEpoch(kernel, tallies_);
      indexCurrent_ = false;
    }
    lastEpochEvents_ = tallies_.events() - eventsBefore;
    executed += executor_.epochLength();
  }
  return executed;
}

void ShardedPoissonRunner::saveState(system::SnapshotWriter& w) const {
  w.u64(executor_.epochLength());
  w.u64(executor_.epochs());
  w.u64(executor_.boundaryRejects());
  w.u64(tallies_.idle);
  w.u64(tallies_.expanded);
  w.u64(tallies_.movedToHead);
  w.u64(tallies_.contractedBack);
  w.u64(lastEpochEvents_);
  w.u64(rejectionFreeEpochs_);
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
  lastEpochEvents_ = kNoEpoch;
  rejectionFreeEpochs_ = 0;
  if (r.version() >= 7) {
    tallies_.idle = r.u64();
    tallies_.expanded = r.u64();
    tallies_.movedToHead = r.u64();
    tallies_.contractedBack = r.u64();
    lastEpochEvents_ = r.u64();
    rejectionFreeEpochs_ = r.u64();
  }
  indexCurrent_ = false;
}

}  // namespace sops::amoebot

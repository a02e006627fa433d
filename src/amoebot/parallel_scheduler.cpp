#include "amoebot/parallel_scheduler.hpp"

#include <string>

namespace sops::amoebot {

namespace {

/// RAII id-index suspension for one run: restore must happen even when an
/// epoch throws (ContractViolation, bad_alloc), or the system would be
/// left with at()/expandedCount() permanently invalid.  restoreIdIndex()
/// is idempotent.
class IdIndexSuspension {
 public:
  explicit IdIndexSuspension(AmoebotSystem& sys) : sys_(sys) {
    if (sys_.fastPathEnabled()) sys_.suspendIdIndex();
  }
  ~IdIndexSuspension() { sys_.restoreIdIndex(); }
  IdIndexSuspension(const IdIndexSuspension&) = delete;
  IdIndexSuspension& operator=(const IdIndexSuspension&) = delete;

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
      executor_(seed, sys.size(), options) {}

bool ShardedPoissonRunner::Kernel::runProposal(const core::BlockEpoch& ep,
                                               std::uint32_t particle,
                                               rng::CounterStream& stream,
                                               Tallies& /*tallies*/) {
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
  algo_.activate(sys_, particle, port, stream);
  return true;
}

std::uint64_t ShardedPoissonRunner::runAtLeast(std::uint64_t minActivations) {
  const IdIndexSuspension suspension(sys_);
  Kernel kernel(sys_, algo_);
  Kernel::Tallies tallies;
  std::uint64_t executed = 0;
  while (executed < minActivations && !core::isCancelled(cancel_)) {
    executor_.runEpoch(kernel, tallies);
    executed += executor_.epochLength();
  }
  return executed;
}

void ShardedPoissonRunner::saveState(system::SnapshotWriter& w) const {
  w.u64(executor_.epochLength());
  w.u64(executor_.epochs());
  w.u64(executor_.boundaryRejects());
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
}

}  // namespace sops::amoebot

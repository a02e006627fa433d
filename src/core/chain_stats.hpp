#ifndef SOPS_CORE_CHAIN_STATS_HPP
#define SOPS_CORE_CHAIN_STATS_HPP

/// \file chain_stats.hpp
/// Outcome classification and counters for iterations of the Markov chain
/// M.  The outcomes mirror the order of checks in Algorithm M (§3.1): the
/// proposal's target may be occupied, then conditions (1) gap, (2)
/// properties, (3) the Metropolis filter are applied in sequence.

#include <cstdint>
#include <string>

namespace sops::core {

enum class StepOutcome : std::uint8_t {
  Accepted,          ///< particle moved to ℓ'
  TargetOccupied,    ///< ℓ' was occupied: no movement possible
  RejectedGap,       ///< condition (1) failed: e = 5
  RejectedProperty,  ///< condition (2) failed: neither Property 1 nor 2
  RejectedFilter,    ///< condition (3) failed: q ≥ λ^{e'−e}
};

struct ChainStats {
  std::uint64_t steps = 0;
  std::uint64_t accepted = 0;
  std::uint64_t targetOccupied = 0;
  std::uint64_t rejectedGap = 0;
  std::uint64_t rejectedProperty = 0;
  std::uint64_t rejectedFilter = 0;

  void record(StepOutcome outcome) noexcept {
    ++steps;
    switch (outcome) {
      case StepOutcome::Accepted: ++accepted; break;
      case StepOutcome::TargetOccupied: ++targetOccupied; break;
      case StepOutcome::RejectedGap: ++rejectedGap; break;
      case StepOutcome::RejectedProperty: ++rejectedProperty; break;
      case StepOutcome::RejectedFilter: ++rejectedFilter; break;
    }
  }

  /// Adds another tally in (outcome counts are order-independent, so
  /// per-block tallies merged in any fixed order give the same totals).
  void merge(const ChainStats& other) noexcept {
    steps += other.steps;
    accepted += other.accepted;
    targetOccupied += other.targetOccupied;
    rejectedGap += other.rejectedGap;
    rejectedProperty += other.rejectedProperty;
    rejectedFilter += other.rejectedFilter;
  }

  [[nodiscard]] double acceptanceRate() const noexcept {
    return steps == 0 ? 0.0
                      : static_cast<double>(accepted) /
                          static_cast<double>(steps);
  }

  [[nodiscard]] std::string toString() const;
};

[[nodiscard]] std::string toString(StepOutcome outcome);

}  // namespace sops::core

#endif  // SOPS_CORE_CHAIN_STATS_HPP

#ifndef SOPS_CORE_EPOCH_CONTROL_HPP
#define SOPS_CORE_EPOCH_CONTROL_HPP

/// \file epoch_control.hpp
/// Epoch sizing of the sharded runners.  The chain runner uses the
/// derived default and the cap for its fixed proposal-list length; the
/// adaptive controller serves the amoebot runner only.
///
/// An amoebot epoch is the unit of parallel work: the runner draws every
/// clock firing in [now, now + Δ), executes stripe-interior events in
/// parallel, and sweeps the deferred halo/edge events sequentially.  Δ
/// trades two overheads off against each other: short epochs pay the
/// per-epoch scan and barrier repeatedly (ruinous at small n), long epochs
/// grow the deferred sweep and its memory footprint (ruinous at large n).
/// The runner derives Δ from a target number of events per epoch.

#include <algorithm>
#include <cstdint>

#include "util/assert.hpp"

namespace sops::core {

/// Hard cap on events scheduled per epoch — bounds the in-memory epoch
/// schedule (times + events) to a few GiB even for huge-n systems.
/// Explicit user targets are validated against it, and the derived default
/// is clamped to it (an unclamped derived 2n once let a legal huge-n
/// system build a multi-GiB schedule).
inline constexpr std::uint64_t kMaxEventsPerEpoch = std::uint64_t{1} << 28;

/// Default epoch target for an n-particle system: 2n events (each clock
/// fires about twice per epoch), floored so tiny systems do not pay a
/// barrier every handful of events, and clamped to kMaxEventsPerEpoch.
[[nodiscard]] inline constexpr std::uint64_t derivedEpochTarget(
    std::uint64_t particles) noexcept {
  return std::min(std::max(2 * particles, std::uint64_t{1024}),
                  kMaxEventsPerEpoch);
}

/// Deterministic feedback controller on the epoch target.
///
/// Signal: the fraction of an epoch's events deferred to the sequential
/// sweep.  That fraction depends only on stripe geometry and the seeded
/// event positions — never on the thread count — so adapting from it keeps
/// the trajectory a pure function of the seed (the thread-count-invariance
/// goldens pin this).  Rule: if more than 1/4 of events deferred, halve the
/// target (the serial fraction is winning — tighten epochs so positions
/// refresh); if fewer than 1/10 deferred, double it (barriers are winning —
/// amortize them).  Bounds: [max(n/2, 1024), min(16n, cap)], so the target
/// stays within a small factor of the 2n default.
class AdaptiveEpochController {
 public:
  explicit AdaptiveEpochController(std::uint64_t particles) noexcept
      : minTarget_(std::max(particles / 2, std::uint64_t{1024})),
        maxTarget_(std::max(
            std::min(16 * particles, kMaxEventsPerEpoch), std::uint64_t{1024})),
        target_(derivedEpochTarget(particles)) {
    minTarget_ = std::min(minTarget_, target_);
    maxTarget_ = std::max(maxTarget_, target_);
  }

  [[nodiscard]] std::uint64_t target() const noexcept { return target_; }

  /// Feeds one epoch's (deferred, total) event counts; returns the target
  /// for the next epoch.  Integer arithmetic only, so every thread count
  /// computes the identical schedule.
  std::uint64_t update(std::uint64_t deferred, std::uint64_t total) noexcept {
    if (total == 0) return target_;
    if (deferred * 4 > total) {
      target_ = std::max(target_ / 2, minTarget_);
    } else if (deferred * 10 < total) {
      target_ = std::min(target_ * 2, maxTarget_);
    }
    return target_;
  }

  /// Snapshot restore: the target is history-dependent state.
  void setTarget(std::uint64_t target) {
    SOPS_REQUIRE(target >= minTarget_ && target <= maxTarget_,
                 "AdaptiveEpochController: restored target out of range");
    target_ = target;
  }

 private:
  std::uint64_t minTarget_;
  std::uint64_t maxTarget_;
  std::uint64_t target_;
};

}  // namespace sops::core

#endif  // SOPS_CORE_EPOCH_CONTROL_HPP

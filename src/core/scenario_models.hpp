#ifndef SOPS_CORE_SCENARIO_MODELS_HPP
#define SOPS_CORE_SCENARIO_MODELS_HPP

/// \file scenario_models.hpp
/// The three shipped weight models for BiasedChainEngine.
///
///   CompressionModel  w(σ) = λ^{e(σ)}            (the paper's chain M)
///   SeparationModel   w(σ) = λ^{e(σ)} γ^{hom(σ)}  (two colors, [9])
///   AlignmentModel    w(σ) = λ^{e(σ)} κ^{ali(σ)}  (6-state orientations,
///                                                  à la Kedia–Oh–Randall)
///
/// hom(σ) counts monochromatic induced edges, ali(σ) counts induced edges
/// whose endpoints carry the same lattice orientation.  Both extra terms
/// are *local*: a movement move changes them only through the 8-cell ring
/// of the move, and an auxiliary move (color swap / orientation rotation)
/// only through the 6-cell neighborhoods of the touched particles.  The
/// models therefore keep **shadow bit planes** — one BitGrid per color /
/// orientation class, allocated with the exact geometry of the system's
/// occupancy window (BitGrid::allocateLike) — so every Δhom / Δali is one
/// or two word gathers, and every Metropolis threshold is a load from an
/// 11/13/21-entry power table built with the shared core::lambdaPower.
/// No std::pow and no hash probe runs on the accept path.
/// tests/biased_engine_test.cpp pins the separation model to the
/// hash-index reference chain (extensions::SeparationChain) on flat and
/// tiled grids.

#include <cstdint>
#include <span>
#include <vector>

#include "core/biased_chain_engine.hpp"
#include "core/properties.hpp"
#include "system/bit_grid.hpp"
#include "system/particle_system.hpp"
#include "system/snapshot.hpp"
#include "util/popcount.hpp"

namespace sops::core {

/// K shadow bit planes kept geometry-aligned with a ParticleSystem's
/// occupancy grid.  sync() detects geometry changes by fingerprinting the
/// grid — origin/size plus the grid's geometryVersion().  A flat-window
/// change rebuilds the planes from scratch — O(n), amortized by the
/// system's own O(log drift) rebuild schedule.  A *tiled* grid never
/// rebuilds, it only allocates tiles, and plane bits key absolute
/// coordinates — so a fingerprint mismatch while both sides are tiled
/// means "new tiles only": the planes grow their directories to match
/// (ensureTilesOf) and keep their content.
template <std::size_t K>
class ShadowPlanes {
 public:
  /// True when the dense planes mirror `grid` exactly (same geometry, no
  /// rebuild pending) — the licence for the unchecked gathers below.
  [[nodiscard]] bool syncedWith(const system::BitGrid& grid) const noexcept {
    return built_ && grid.geometryVersion() == gridVersion_ &&
           grid.originX() == originX_ && grid.originY() == originY_ &&
           grid.width() == width_ && grid.height() == height_;
  }

  /// Ensures the planes mirror sys.grid(); classOf(particle) ∈ [0, K) maps
  /// each particle to its plane.
  template <typename ClassOf>
  void sync(const system::ParticleSystem& sys, ClassOf&& classOf) {
    const system::BitGrid& grid = sys.grid();
    if (syncedWith(grid)) return;
    if (built_ && grid.tiled() && planes_[0].tiled()) {
      // Tiled growth: the directory gained tiles but no bit moved (tiles
      // are absolutely anchored), so the planes just follow the directory.
      for (auto& plane : planes_) plane.ensureTilesOf(grid);
      fingerprint(grid);
      return;
    }
    for (auto& plane : planes_) plane.allocateLike(grid);
    for (std::size_t i = 0; i < sys.size(); ++i) {
      planes_[static_cast<std::size_t>(classOf(i))].set(sys.position(i));
    }
    fingerprint(grid);
    built_ = true;
  }

  /// Forces the next sync() to rebuild from scratch — used after a model
  /// deserialize replaces the per-particle classes wholesale (the grid
  /// geometry alone cannot detect that).
  void invalidate() noexcept { built_ = false; }

  [[nodiscard]] system::BitGrid& plane(std::size_t k) noexcept {
    return planes_[k];
  }
  [[nodiscard]] const system::BitGrid& plane(std::size_t k) const noexcept {
    return planes_[k];
  }

 private:
  void fingerprint(const system::BitGrid& grid) noexcept {
    originX_ = grid.originX();
    originY_ = grid.originY();
    width_ = grid.width();
    height_ = grid.height();
    gridVersion_ = grid.geometryVersion();
  }

  std::array<system::BitGrid, K> planes_;
  std::int64_t originX_ = 0;
  std::int64_t originY_ = 0;
  std::uint64_t width_ = 0;
  std::uint64_t height_ = 0;
  std::uint64_t gridVersion_ = 0;
  bool built_ = false;
};

/// Induced edges whose endpoints share a class — the exact hom(σ) / ali(σ)
/// recount behind both models' observables.
[[nodiscard]] inline std::int64_t sameClassEdges(
    const system::ParticleSystem& sys, std::span<const std::uint8_t> classes) {
  constexpr Direction kPositive[3] = {Direction::East, Direction::NorthEast,
                                      Direction::SouthEast};
  std::int64_t count = 0;
  for (std::size_t id = 0; id < sys.size(); ++id) {
    const TriPoint p = sys.position(id);
    for (const Direction d : kPositive) {
      const auto other = sys.particleAt(lattice::neighbor(p, d));
      if (other.has_value() && classes[*other] == classes[id]) ++count;
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// Compression: w(σ) = λ^e.  The factor path compiles away; the engine step
// is the paper's chain M, draw-for-draw the frozen core::ReferenceKernel
// (tests/golden_trajectory_test.cpp).

class CompressionModel {
 public:
  static constexpr bool kUniformWeight = true;
  static constexpr bool kHasAuxMove = false;
  /// A movement move reads the 8-cell ring (|Δx| ≤ 2) and writes ℓ, ℓ'
  /// (|Δx| ≤ 1): everything lies within 1 of the cells ℓ, ℓ'.
  static constexpr int kInteractionRadius = 2;

  explicit CompressionModel(ChainOptions options) : options_(options) {}

  [[nodiscard]] const ChainOptions& chainOptions() const noexcept {
    return options_;
  }
  void attach(const system::ParticleSystem&) {}
  double movementFactor(const system::ParticleSystem&, std::size_t, TriPoint,
                        Direction, std::uint8_t) {
    return 1.0;
  }
  void onMoved(const system::ParticleSystem&, std::size_t, TriPoint, TriPoint) {
  }

  /// Snapshot hooks (Model contract): compression carries no aux state —
  /// options come from the spec and the decision table is rebuilt.
  void serialize(system::SnapshotWriter&) const {}
  void deserialize(system::SnapshotReader&) {}

 private:
  ChainOptions options_;
};

// ---------------------------------------------------------------------------
// Separation: w(σ) = λ^e γ^hom over two colors; movement moves carry the
// particle's color, and a color swap across a heterochromatic edge is the
// auxiliary move.  Reproduces extensions::SeparationChain's kernel exactly
// (same draw order, same thresholds via lambdaPower) on the fast path.

class SeparationModel {
 public:
  struct Options {
    double lambda = 4.0;  ///< compression bias (edges)
    double gamma = 4.0;   ///< homogeneity bias (monochromatic edges)
    bool enableSwaps = true;
    double swapProbability = 0.5;  ///< mixture weight of the swap move
  };

  static constexpr bool kUniformWeight = false;
  static constexpr bool kHasAuxMove = true;
  /// The swap needs the partner's identity: have the engine maintain the
  /// cell→id plane so an accepted swap costs an array load, not a hash
  /// probe (the last hash touch the accept path had).
  static constexpr bool kNeedsPartnerIds = true;
  /// The swap acts on the pair (p, p + draw6): the sharded runner's
  /// boundary rule takes both cells.
  static constexpr bool kAuxMovePair = true;
  /// The swap touches a partner one cell away (|Δx| ≤ 1) and gathers the
  /// full ring of the shared edge around it (|Δx| ≤ 2 from the activated
  /// particle), and flips the partner's color plane bit; one column of
  /// clearance beyond the movement radius.
  static constexpr int kInteractionRadius = 3;
  /// Movement changes hom through ≤5 before-ring and ≤5 after-ring cells.
  static constexpr int kMaxMoveDelta = 5;
  /// A swap changes hom through ≤5 neighbors of each endpoint.
  static constexpr int kMaxSwapDelta = 10;

  SeparationModel(Options options, std::vector<std::uint8_t> colors)
      : options_(options), colors_(std::move(colors)) {
    SOPS_REQUIRE(options_.lambda > 0.0 && options_.gamma > 0.0,
                 "biases must be positive");
    SOPS_REQUIRE(
        options_.swapProbability >= 0.0 && options_.swapProbability < 1.0,
        "swap probability must be in [0, 1)");
    for (const std::uint8_t c : colors_) {
      SOPS_REQUIRE(c <= 1, "colors are 0 or 1");
    }
    for (int delta = -kMaxMoveDelta; delta <= kMaxMoveDelta; ++delta) {
      movePow_[static_cast<std::size_t>(delta + kMaxMoveDelta)] =
          lambdaPower(options_.gamma, delta);
    }
    for (int delta = -kMaxSwapDelta; delta <= kMaxSwapDelta; ++delta) {
      swapPow_[static_cast<std::size_t>(delta + kMaxSwapDelta)] =
          lambdaPower(options_.gamma, delta);
    }
  }

  [[nodiscard]] ChainOptions chainOptions() const noexcept {
    ChainOptions chain;
    chain.lambda = options_.lambda;
    return chain;
  }

  void attach(const system::ParticleSystem& sys) {
    SOPS_REQUIRE(colors_.size() == sys.size(), "one color per particle");
    planes_.sync(sys, [this](std::size_t i) { return colors_[i]; });
  }

  /// γ^{Δhom} for the movement (l → l+d) of `particle`: one ring gather
  /// of the particle's own color plane, two popcounts, one table load.
  double movementFactor(const system::ParticleSystem& sys, std::size_t particle,
                        TriPoint l, Direction d, std::uint8_t /*ringOcc*/) {
    planes_.sync(sys, [this](std::size_t i) { return colors_[i]; });
    const std::uint8_t ringSame = planes_.plane(colors_[particle])
                                      .ringMaskUnchecked(l, lattice::index(d));
    const int delta =
        util::popcount64(ringSame & kAfterMask) -
        util::popcount64(ringSame & kBeforeMask);
    return movePow_[static_cast<std::size_t>(delta + kMaxMoveDelta)];
  }

  void onMoved(const system::ParticleSystem& sys, std::size_t particle,
               TriPoint from, TriPoint to) {
    // sync() first: a stale fingerprint means the grid rebuilt (flat) or
    // grew tiles.  After a flat rebuild the planes were reconstructed from
    // post-move positions, so the clear/set below are no-ops; after tiled
    // growth they are the move's one real update.
    planes_.sync(sys, [this](std::size_t i) { return colors_[i]; });
    system::BitGrid& plane = planes_.plane(colors_[particle]);
    plane.clear(from);
    plane.set(to);
  }

  [[nodiscard]] bool auxEnabled() const noexcept {
    return options_.enableSwaps;
  }
  [[nodiscard]] double auxProbability() const noexcept {
    return options_.swapProbability;
  }

  /// Color swap across a heterochromatic edge, accepted with
  /// min(1, γ^{Δhom}).  The partner's color is a word load,
  /// and Δhom comes from *two edge-ring gathers* — N(p)∪N(q)\{p,q} is
  /// exactly the 8-cell ring of the edge (p, q), the two color planes
  /// partition its occupancy, and kBeforeMask/kAfterMask split it into
  /// N(p)\{q} and N(q)\{p}, so the heterochromatic p—q edge is excluded by
  /// construction.  The partner's id for an accepted swap is one load of
  /// the engine-maintained id plane (hash probe only when the plane is
  /// momentarily out of sync, e.g. right after a window regrow).
  /// (particle, draw6) are the engine's hoisted draws; draw6 is the
  /// direction of the candidate edge.
  template <typename Uniform>
  AuxOutcome auxStep(system::ParticleSystem& sys, const ParticleIdPlane& ids,
                     Uniform& rng, std::size_t particle, int draw6) {
    const Direction d = lattice::directionFromIndex(draw6);
    const TriPoint p = sys.position(particle);
    const TriPoint q = lattice::neighbor(p, d);
    const std::uint8_t colorP = colors_[particle];
    planes_.sync(sys, [this](std::size_t i) { return colors_[i]; });
    if (!sys.occupiedNear(q)) return AuxOutcome::Skipped;
    const std::uint8_t colorQ =
        planes_.plane(1).testUnchecked(q) ? std::uint8_t{1} : std::uint8_t{0};
    if (colorQ == colorP) return AuxOutcome::Skipped;
    const std::uint8_t ringP =
        planes_.plane(colorP).ringMaskUnchecked(p, lattice::index(d));
    const std::uint8_t ringQ =
        planes_.plane(colorQ).ringMaskUnchecked(p, lattice::index(d));
    const int before =
        util::popcount64(ringP & kBeforeMask) +
        util::popcount64(ringQ & kAfterMask);
    const int after =
        util::popcount64(ringQ & kBeforeMask) +
        util::popcount64(ringP & kAfterMask);
    const double threshold =
        swapPow_[static_cast<std::size_t>(after - before + kMaxSwapDelta)];
    if (threshold >= 1.0 || rng.uniform() < threshold) {
      const std::size_t other =
          ids.tracksMoves(sys.grid())
              ? static_cast<std::size_t>(ids.idAtUnchecked(q))
              : *sys.particleAt(q);
      // Position-based identity check: valid under the sharded runner's
      // index suspension, where particleAt() would read a stale index.
      SOPS_DASSERT(sys.position(other) == q);
      colors_[particle] = colorQ;
      colors_[other] = colorP;
      planes_.plane(colorP).clear(p);
      planes_.plane(colorQ).set(p);
      planes_.plane(colorQ).clear(q);
      planes_.plane(colorP).set(q);
      return AuxOutcome::Accepted;
    }
    return AuxOutcome::Rejected;
  }

  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] const std::vector<std::uint8_t>& colors() const noexcept {
    return colors_;
  }

  /// hom(σ): exact recount of monochromatic induced edges.
  [[nodiscard]] std::int64_t homogeneousEdges(
      const system::ParticleSystem& sys) const {
    return sameClassEdges(sys, colors_);
  }

  [[nodiscard]] std::size_t colorOneCount() const noexcept {
    std::size_t count = 0;
    for (const std::uint8_t c : colors_) count += c;
    return count;
  }

  /// Snapshot hooks: the colors are the model's only evolving state (the
  /// shadow planes and power tables are derived; options come from the
  /// spec).  deserialize invalidates the planes so the next sync rebuilds
  /// them from the restored colors.
  void serialize(system::SnapshotWriter& w) const { w.bytes(colors_); }
  void deserialize(system::SnapshotReader& r) {
    std::vector<std::uint8_t> colors = r.bytes();
    SOPS_REQUIRE(colors.size() == colors_.size(),
                 "snapshot: color count does not match the particle count");
    for (const std::uint8_t c : colors) {
      SOPS_REQUIRE(c <= 1, "snapshot: colors are 0 or 1");
    }
    colors_ = std::move(colors);
    planes_.invalidate();
  }

 private:
  Options options_;
  std::vector<std::uint8_t> colors_;
  ShadowPlanes<2> planes_;
  std::array<double, 2 * kMaxMoveDelta + 1> movePow_{};
  std::array<double, 2 * kMaxSwapDelta + 1> swapPow_{};
};

// ---------------------------------------------------------------------------
// Alignment: w(σ) = λ^e κ^ali over per-particle orientations in {0..5} —
// a mobile 6-state Potts/clock model (ferromagnetic for κ > 1), the
// engine's analogue of the local stochastic alignment algorithms of
// Kedia–Oh–Randall.  Movement moves carry the particle's orientation; the
// auxiliary move re-samples one particle's orientation uniformly and
// Metropolis-filters with κ^{Δali}.

class AlignmentModel {
 public:
  struct Options {
    double lambda = 4.0;  ///< compression bias (edges)
    double kappa = 4.0;   ///< alignment bias (equal-orientation edges)
    bool enableRotations = true;
    double rotationProbability = 0.5;  ///< mixture weight of the rotation move
  };

  static constexpr bool kUniformWeight = false;
  static constexpr bool kHasAuxMove = true;
  static constexpr int kOrientations = lattice::kNumDirections;
  /// The rotation acts on p alone (draw6 is an orientation, not a
  /// direction): the sharded runner's boundary rule takes p only.
  static constexpr bool kAuxMovePair = false;
  /// The rotation itself only reads p's 6-neighborhood (|Δx| ≤ 1), but it
  /// rewrites how p reads to *other* particles' alignment gathers; it
  /// keeps the swap's clearance.
  static constexpr int kInteractionRadius = 3;
  static constexpr int kMaxMoveDelta = 5;
  /// A rotation changes ali through ≤6 neighbors losing the old class and
  /// ≤6 gaining the new one.
  static constexpr int kMaxRotationDelta = 6;

  AlignmentModel(Options options, std::vector<std::uint8_t> orientations)
      : options_(options), orientations_(std::move(orientations)) {
    SOPS_REQUIRE(options_.lambda > 0.0 && options_.kappa > 0.0,
                 "biases must be positive");
    SOPS_REQUIRE(options_.rotationProbability >= 0.0 &&
                     options_.rotationProbability < 1.0,
                 "rotation probability must be in [0, 1)");
    for (const std::uint8_t o : orientations_) {
      SOPS_REQUIRE(o < kOrientations, "orientations are 0..5");
    }
    for (int delta = -kMaxMoveDelta; delta <= kMaxMoveDelta; ++delta) {
      movePow_[static_cast<std::size_t>(delta + kMaxMoveDelta)] =
          lambdaPower(options_.kappa, delta);
    }
    for (int delta = -kMaxRotationDelta; delta <= kMaxRotationDelta; ++delta) {
      rotationPow_[static_cast<std::size_t>(delta + kMaxRotationDelta)] =
          lambdaPower(options_.kappa, delta);
    }
  }

  [[nodiscard]] ChainOptions chainOptions() const noexcept {
    ChainOptions chain;
    chain.lambda = options_.lambda;
    return chain;
  }

  void attach(const system::ParticleSystem& sys) {
    SOPS_REQUIRE(orientations_.size() == sys.size(),
                 "one orientation per particle");
    planes_.sync(sys, [this](std::size_t i) { return orientations_[i]; });
  }

  /// κ^{Δali} for the movement (l → l+d) of `particle`: one ring gather of
  /// the particle's own orientation plane.
  double movementFactor(const system::ParticleSystem& sys, std::size_t particle,
                        TriPoint l, Direction d, std::uint8_t /*ringOcc*/) {
    planes_.sync(sys, [this](std::size_t i) { return orientations_[i]; });
    const std::uint8_t ringSame =
        planes_.plane(orientations_[particle])
            .ringMaskUnchecked(l, lattice::index(d));
    const int delta =
        util::popcount64(ringSame & kAfterMask) -
        util::popcount64(ringSame & kBeforeMask);
    return movePow_[static_cast<std::size_t>(delta + kMaxMoveDelta)];
  }

  void onMoved(const system::ParticleSystem& sys, std::size_t particle,
               TriPoint from, TriPoint to) {
    // See SeparationModel::onMoved: sync first, then apply (no-ops after a
    // flat rebuild, the real update after tiled growth).
    planes_.sync(sys, [this](std::size_t i) { return orientations_[i]; });
    system::BitGrid& plane = planes_.plane(orientations_[particle]);
    plane.clear(from);
    plane.set(to);
  }

  [[nodiscard]] bool auxEnabled() const noexcept {
    return options_.enableRotations;
  }
  [[nodiscard]] double auxProbability() const noexcept {
    return options_.rotationProbability;
  }

  /// Orientation re-sampling: propose a uniform orientation for a uniform
  /// particle (symmetric), accept with min(1, κ^{Δali}).  The rotation
  /// touches no second particle, so the id plane goes unused (and
  /// undeclared — the engine maintains none for this model).  (particle,
  /// draw6) are the engine's hoisted draws; draw6 is the proposed
  /// orientation.
  template <typename Uniform>
  AuxOutcome auxStep(system::ParticleSystem& sys, const ParticleIdPlane&,
                     Uniform& rng, std::size_t particle, int draw6) {
    const auto proposed = static_cast<std::uint8_t>(draw6);
    const std::uint8_t current = orientations_[particle];
    if (proposed == current) return AuxOutcome::Skipped;
    const TriPoint p = sys.position(particle);
    planes_.sync(sys, [this](std::size_t i) { return orientations_[i]; });
    const int delta =
        util::popcount64(planes_.plane(proposed).neighborMaskUnchecked(p)) -
        util::popcount64(planes_.plane(current).neighborMaskUnchecked(p));
    const double threshold =
        rotationPow_[static_cast<std::size_t>(delta + kMaxRotationDelta)];
    if (threshold >= 1.0 || rng.uniform() < threshold) {
      orientations_[particle] = proposed;
      planes_.plane(current).clear(p);
      planes_.plane(proposed).set(p);
      return AuxOutcome::Accepted;
    }
    return AuxOutcome::Rejected;
  }

  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] const std::vector<std::uint8_t>& orientations() const noexcept {
    return orientations_;
  }

  /// ali(σ): exact recount of equal-orientation induced edges.
  [[nodiscard]] std::int64_t alignedEdges(
      const system::ParticleSystem& sys) const {
    return sameClassEdges(sys, orientations_);
  }

  /// Snapshot hooks: orientations are the model's only evolving state.
  void serialize(system::SnapshotWriter& w) const { w.bytes(orientations_); }
  void deserialize(system::SnapshotReader& r) {
    std::vector<std::uint8_t> orientations = r.bytes();
    SOPS_REQUIRE(orientations.size() == orientations_.size(),
                 "snapshot: orientation count does not match the particle "
                 "count");
    for (const std::uint8_t o : orientations) {
      SOPS_REQUIRE(o < kOrientations, "snapshot: orientations are 0..5");
    }
    orientations_ = std::move(orientations);
    planes_.invalidate();
  }

 private:
  Options options_;
  std::vector<std::uint8_t> orientations_;
  ShadowPlanes<static_cast<std::size_t>(kOrientations)> planes_;
  std::array<double, 2 * kMaxMoveDelta + 1> movePow_{};
  std::array<double, 2 * kMaxRotationDelta + 1> rotationPow_{};
};

// Every shipped model satisfies the full contract — asserted here, next
// to the definitions, so a drifted member is reported against the model
// rather than at the first engine instantiation in some distant TU.
static_assert(ChainWeightModel<CompressionModel>);
static_assert(ChainWeightModel<SeparationModel>);
static_assert(ChainWeightModel<AlignmentModel>);

/// Engine aliases for the shipped scenarios.
using CompressionEngine = BiasedChainEngine<CompressionModel>;
using SeparationEngine = BiasedChainEngine<SeparationModel>;
using AlignmentEngine = BiasedChainEngine<AlignmentModel>;

}  // namespace sops::core

#endif  // SOPS_CORE_SCENARIO_MODELS_HPP

#ifndef SOPS_SYSTEM_METRICS_HPP
#define SOPS_SYSTEM_METRICS_HPP

/// \file metrics.hpp
/// Configuration measurements from paper §2.2–2.3: edges e(σ), triangles
/// t(σ), perimeter p(σ), holes, connectivity, and the extremal perimeter
/// values p_min(n), p_max(n).
///
/// Perimeter is computed in closed form as p = 3n − e − 3C + 3·holes for a
/// configuration of C components (C = 1 in the paper's chain).  For a
/// connected hole-free configuration this reduces to Lemma 2.3
/// (e = 3n − p − 3); the hole term follows from the same exterior-angle
/// count applied to each hole boundary (each hole boundary walk of length
/// k contributes 2k − 6 dual edges instead of 2k + 6), and each further
/// component adds its own −3.  An independent boundary-walk tracer lives
/// in boundary.hpp and is used by the test-suite to validate this formula
/// on every enumerated configuration.
///
/// Holes and connectivity come from one run decomposition (topology()),
/// whose cost does not depend on the bounding-box area:
///
///   - Runs: the maximal horizontal runs of occupied cells.  A particle
///     whose West cell is free starts one; walking East ends it.  Sorted
///     by (row, start): O(n) occupancy lookups plus O(R log R) for R runs.
///   - Components: cell x of row y touches cells x and x + 1 of row
///     y − 1, so run [a, b] touches [a, b + 1] below.  A two-pointer merge
///     of each pair of adjacent rows unions touching runs: C components.
///   - Holes: the finite gaps between consecutive runs of a row, merged
///     the same way (gap [g, h] touches [g, h + 1] below and [g − 1, h]
///     above).  A gap that touches a row with no particles, or reaches
///     past that row's run span, joins the exterior; the gap components
///     without the exterior are the holes.
///
/// Memory is O(R); nothing is keyed by cell.  analyzeComplement() keeps
/// the area-proportional flood of the complement: it labels every free
/// cell (hexBoundaryCycles needs the labels) and is the brute-force
/// oracle the tests check topology() against.  The Euler relation
/// holes = e − n + C − t ties the two counts together (faces of the
/// induced plane graph: t unit triangles, one face per hole, the outer
/// face).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "system/particle_system.hpp"
#include "util/flat_hash.hpp"

namespace sops::system {

/// Number of lattice edges with both endpoints occupied (e(σ)) among the
/// distinct `cells`, where `occupied(p)` is true exactly on them — a
/// configuration held outside a ParticleSystem (the amoebot tails).
template <typename Occupied>
[[nodiscard]] std::int64_t countEdges(std::span<const TriPoint> cells,
                                      const Occupied& occupied) {
  // East, NorthEast and SouthEast cover each undirected edge exactly
  // once (their opposites cover the other orientation).
  std::int64_t edges = 0;
  for (const TriPoint p : cells) {
    for (const Direction d : {Direction::East, Direction::NorthEast,
                              Direction::SouthEast}) {
      edges += occupied(lattice::neighbor(p, d)) ? 1 : 0;
    }
  }
  return edges;
}

[[nodiscard]] inline std::int64_t countEdges(const ParticleSystem& sys) {
  return countEdges(sys.positions(),
                    [&sys](TriPoint p) { return sys.occupied(p); });
}

/// Number of triangular faces of G∆ with all three corners occupied (t(σ)).
[[nodiscard]] std::int64_t countTriangles(const ParticleSystem& sys);

/// Connected components and holes of the configuration, from the run
/// decomposition described above.  The empty system has neither.
struct Topology {
  /// Components of the configuration graph (occupied vertices, induced
  /// edges).
  std::int64_t components = 0;
  /// Finite maximal connected unoccupied regions (§2.2).
  std::int64_t holes = 0;
};

/// A maximal horizontal run of occupied cells: row y, columns [a, b].
struct CellRun {
  std::int32_t y;
  std::int32_t a;
  std::int32_t b;
};

/// topology() from every maximal horizontal run of a configuration, in any
/// order.
[[nodiscard]] Topology topologyOfRuns(std::vector<CellRun> runs);

/// topology() of the distinct `cells`, where `occupied(p)` is true exactly
/// on them: a cell whose West cell is free starts a run, and the walk
/// East ends it.
template <typename Occupied>
[[nodiscard]] Topology topology(std::span<const TriPoint> cells,
                                const Occupied& occupied) {
  std::vector<CellRun> runs;
  for (const TriPoint p : cells) {
    if (occupied(lattice::neighbor(p, Direction::West))) continue;
    std::int32_t end = p.x;
    while (occupied(TriPoint{end + 1, p.y})) ++end;
    runs.push_back({p.y, p.x, end});
  }
  return topologyOfRuns(std::move(runs));
}

[[nodiscard]] inline Topology topology(const ParticleSystem& sys) {
  return topology(sys.positions(),
                  [&sys](TriPoint p) { return sys.occupied(p); });
}

/// True iff the configuration graph (occupied vertices, induced edges) is
/// connected.  The empty system counts as connected.
[[nodiscard]] bool isConnected(const ParticleSystem& sys);

/// Axis-aligned bounding box in axial coordinates.
struct BoundingBox {
  std::int32_t minX = 0;
  std::int32_t minY = 0;
  std::int32_t maxX = 0;
  std::int32_t maxY = 0;
};
[[nodiscard]] BoundingBox boundingBox(const ParticleSystem& sys);

/// Decomposition of the unoccupied complement (within a margin-1 window
/// around the configuration) into the exterior region and finite holes.
struct ComplementRegions {
  /// Number of holes (finite maximal connected unoccupied regions, §2.2).
  int holeCount = 0;
  /// Region id per unoccupied cell in the window: kExteriorRegion for the
  /// infinite region, 1..holeCount for holes.
  util::FlatMap64<std::int32_t> regionOf;
  BoundingBox window;
  static constexpr std::int32_t kExteriorRegion = 0;
};
[[nodiscard]] ComplementRegions analyzeComplement(const ParticleSystem& sys);

/// Number of holes of the configuration (topology().holes).
[[nodiscard]] int countHoles(const ParticleSystem& sys);

/// Perimeter p(σ) of a connected configuration (sum over all boundary
/// walks, cut edges counted twice — see §2.2).  Precondition: connected,
/// n ≥ 1.
[[nodiscard]] std::int64_t perimeter(const ParticleSystem& sys);

/// perimeter() of the distinct `cells`, where `occupied(p)` is true
/// exactly on them.
template <typename Occupied>
[[nodiscard]] std::int64_t perimeter(std::span<const TriPoint> cells,
                                     const Occupied& occupied);

/// Perimeter given precomputed pieces (hot-ish paths that already know
/// e/h): 3n − e − 3C + 3·holes, which for a disconnected configuration is
/// the sum of its components' perimeters.
[[nodiscard]] constexpr std::int64_t perimeterFromCounts(
    std::int64_t n, std::int64_t edges, std::int64_t holes,
    std::int64_t components = 1) noexcept {
  return 3 * n - edges - 3 * components + 3 * holes;
}

/// Minimum possible perimeter of n particles: ⌈√(12n−3)⌉ − 3 (achieved by
/// hexagonal spirals; Harary–Harborth via the hex-lattice duality of Fig 9).
[[nodiscard]] std::int64_t pMin(std::int64_t n);

template <typename Occupied>
std::int64_t perimeter(std::span<const TriPoint> cells,
                       const Occupied& occupied) {
  SOPS_REQUIRE(!cells.empty(), "perimeter of empty system");
  const Topology shape = topology(cells, occupied);
  SOPS_REQUIRE(shape.components == 1,
               "perimeter requires a connected configuration");
  return perimeterFromCounts(static_cast<std::int64_t>(cells.size()),
                             countEdges(cells, occupied), shape.holes);
}

/// The cells, edges and topology of a configuration held in bit planes:
/// the cells set in `cells` and clear in `minus`, two grids of one
/// geometry (BitGrid::allocateLike) — the amoebot tail projection is
/// occ & ~heads.  Word-parallel: edges are popcounts of shifted words and
/// the maximal runs, fed to topologyOfRuns(), come from bit transitions;
/// it reads the flat window's words, or the allocated tiles'.
struct PlaneShape {
  std::int64_t cells = 0;
  std::int64_t edges = 0;
  Topology topology;
};
[[nodiscard]] PlaneShape planeShape(const BitGrid& cells, const BitGrid& minus);
/// The same of the cells set in one grid — a ParticleSystem's grid(), the
/// chain samplers' configuration.
[[nodiscard]] PlaneShape planeShape(const BitGrid& cells);

/// perimeter() of a configuration measured by planeShape().  Precondition:
/// connected, n ≥ 1.
[[nodiscard]] std::int64_t perimeter(const PlaneShape& shape);

/// Maximum possible perimeter of a connected hole-free configuration:
/// 2n − 2 (spanning trees of G∆ with no induced triangles, §2.3).
[[nodiscard]] constexpr std::int64_t pMax(std::int64_t n) noexcept {
  return 2 * n - 2;
}

/// Graph diameter of the configuration (max hop distance between particles
/// through occupied vertices).  O(n²) — intended for small systems and
/// diagnostics only.
[[nodiscard]] int graphDiameter(const ParticleSystem& sys);

/// One-stop summary used by benches and examples.
struct ConfigSummary {
  std::int64_t particles = 0;
  std::int64_t edges = 0;
  std::int64_t triangles = 0;
  std::int64_t holes = 0;
  std::int64_t perimeter = 0;
  bool connected = false;
  /// p(σ) / p_min(n): the compression ratio α of Definition 2.2.
  double perimeterRatio = 0.0;
};
[[nodiscard]] ConfigSummary summarize(const ParticleSystem& sys);

}  // namespace sops::system

#endif  // SOPS_SYSTEM_METRICS_HPP

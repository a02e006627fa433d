#include "system/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <limits>

#include "lattice/direction.hpp"
#include "util/popcount.hpp"

namespace sops::system {

namespace {

using lattice::Direction;
using lattice::kAllDirections;
using lattice::neighbor;
using lattice::pack;

}  // namespace

std::int64_t countTriangles(const ParticleSystem& sys) {
  std::int64_t triangles = 0;
  for (const TriPoint p : sys.positions()) {
    const bool east = sys.occupied(neighbor(p, Direction::East));
    if (!east) continue;
    // Upward face {p, p+E, p+NE} and downward face {p, p+E, p+SE}: p is the
    // unique corner seeing the other two at (E, NE) resp. (E, SE), so each
    // face is counted exactly once.
    triangles += sys.occupied(neighbor(p, Direction::NorthEast)) ? 1 : 0;
    triangles += sys.occupied(neighbor(p, Direction::SouthEast)) ? 1 : 0;
  }
  return triangles;
}

namespace {

/// Union–find over dense ids with path halving.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t count) : parent_(count) {
    for (std::size_t i = 0; i < count; ++i) {
      parent_[i] = static_cast<std::uint32_t>(i);
    }
  }
  /// Merges the sets of a and b; true iff they were distinct.
  bool unite(std::size_t a, std::size_t b) {
    const std::uint32_t ra = find(static_cast<std::uint32_t>(a));
    const std::uint32_t rb = find(static_cast<std::uint32_t>(b));
    if (ra == rb) return false;
    parent_[std::max(ra, rb)] = std::min(ra, rb);
    return true;
  }

 private:
  std::uint32_t find(std::uint32_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  std::vector<std::uint32_t> parent_;
};

/// Calls touch(i, j) for every pair of sorted, disjoint intervals
/// upper[i] = [lo(i), hi(i) + 1] and lower[j] = [lo(j), hi(j)] that
/// overlap: cell x of row y is adjacent to cells x and x + 1 of row y − 1
/// (offsets SouthWest (0, −1) and SouthEast (1, −1)), so the interval
/// [lo, hi] of row y touches [lo, hi + 1] of the row below.
template <typename Lo, typename Hi, typename Touch>
void mergeAdjacentRows(std::size_t upperBegin, std::size_t upperEnd,
                       std::size_t lowerBegin, std::size_t lowerEnd, Lo lo,
                       Hi hi, Touch touch) {
  std::size_t i = upperBegin;
  std::size_t j = lowerBegin;
  while (i < upperEnd && j < lowerEnd) {
    const std::int64_t upperHi = std::int64_t{hi(i)} + 1;
    if (lo(i) <= hi(j) && lo(j) <= upperHi) touch(i, j);
    if (upperHi < hi(j)) {
      ++i;
    } else {
      ++j;
    }
  }
}

}  // namespace

Topology topologyOfRuns(std::vector<CellRun> runs) {
  if (runs.empty()) return {};
  std::sort(runs.begin(), runs.end(), [](const CellRun& l, const CellRun& r) {
    return l.y != r.y ? l.y < r.y : l.a < r.a;
  });
  // rows[k] is the index of row k's first run; rows.back() == runs.size().
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (r == 0 || runs[r].y != runs[r - 1].y) rows.push_back(r);
  }
  const std::size_t rowCount = rows.size();
  rows.push_back(runs.size());
  const auto adjacentBelow = [&](std::size_t k) {
    return k > 0 && runs[rows[k - 1]].y == runs[rows[k]].y - 1;
  };
  const auto adjacentAbove = [&](std::size_t k) {
    return k + 1 < rowCount && runs[rows[k + 1]].y == runs[rows[k]].y + 1;
  };

  // Components: runs of adjacent rows that touch.
  Topology result;
  DisjointSets runSets(runs.size());
  result.components = static_cast<std::int64_t>(runs.size());
  const auto runLo = [&](std::size_t r) { return runs[r].a; };
  const auto runHi = [&](std::size_t r) { return runs[r].b; };
  const auto uniteRuns = [&](std::size_t i, std::size_t j) {
    if (runSets.unite(i, j)) --result.components;
  };
  for (std::size_t k = 1; k < rowCount; ++k) {
    if (!adjacentBelow(k)) continue;
    mergeAdjacentRows(rows[k], rows[k + 1], rows[k - 1], rows[k], runLo, runHi,
                      uniteRuns);
  }

  // Holes: the finite gaps between consecutive runs of a row, gap r
  // following run r (r not the row's last run), so row k's gaps are ids
  // [rows[k] − k, rows[k + 1] − k − 1) and node runs.size() − rowCount is
  // the exterior.  A gap whose touch interval in an adjacent row leaves
  // that row's run span — or meets a row with no particles — reaches the
  // unbounded part of that row: the exterior.
  const std::size_t gapCount = runs.size() - rowCount;
  const std::size_t exterior = gapCount;
  DisjointSets gapSets(gapCount + 1);
  std::int64_t merges = 0;
  const auto gapLo = [&](std::size_t r) { return runs[r].b + 1; };
  const auto gapHi = [&](std::size_t r) { return runs[r + 1].a - 1; };
  for (std::size_t k = 0; k < rowCount; ++k) {
    const std::size_t gapEnd = rows[k + 1] - 1;  // run index past last gap
    const bool below = adjacentBelow(k);
    const bool above = adjacentAbove(k);
    for (std::size_t r = rows[k]; r < gapEnd; ++r) {
      // Touch intervals: [lo, hi + 1] below, [lo − 1, hi] above.
      const std::int64_t lo = gapLo(r);
      const std::int64_t hi = gapHi(r);
      const bool exitsBelow =
          !below || lo < runs[rows[k - 1]].a || hi + 1 > runs[rows[k] - 1].b;
      const bool exitsAbove = !above || lo - 1 < runs[rows[k + 1]].a ||
                              hi > runs[rows[k + 2] - 1].b;
      if ((exitsBelow || exitsAbove) && gapSets.unite(r - k, exterior)) {
        ++merges;
      }
    }
    if (!below) continue;
    const auto uniteGaps = [&](std::size_t i, std::size_t j) {
      if (gapSets.unite(i - k, j - (k - 1))) ++merges;
    };
    mergeAdjacentRows(rows[k], gapEnd, rows[k - 1], rows[k] - 1, gapLo, gapHi,
                      uniteGaps);
  }
  result.holes = static_cast<std::int64_t>(gapCount) - merges;
  return result;
}

bool isConnected(const ParticleSystem& sys) {
  return topology(sys).components <= 1;
}

BoundingBox boundingBox(const ParticleSystem& sys) {
  SOPS_REQUIRE(!sys.empty(), "boundingBox of empty system");
  BoundingBox box{std::numeric_limits<std::int32_t>::max(),
                  std::numeric_limits<std::int32_t>::max(),
                  std::numeric_limits<std::int32_t>::min(),
                  std::numeric_limits<std::int32_t>::min()};
  for (const TriPoint p : sys.positions()) {
    box.minX = std::min(box.minX, p.x);
    box.minY = std::min(box.minY, p.y);
    box.maxX = std::max(box.maxX, p.x);
    box.maxY = std::max(box.maxY, p.y);
  }
  return box;
}

ComplementRegions analyzeComplement(const ParticleSystem& sys) {
  SOPS_REQUIRE(!sys.empty(), "analyzeComplement of empty system");
  ComplementRegions result;
  const BoundingBox inner = boundingBox(sys);
  // Window expanded by one: its border ring is entirely unoccupied and
  // connected (axial rectangles are row/column connected), so the exterior
  // is exactly the component containing any border cell.
  const BoundingBox window{inner.minX - 1, inner.minY - 1, inner.maxX + 1,
                           inner.maxY + 1};
  result.window = window;

  const auto inWindow = [&window](TriPoint p) {
    return p.x >= window.minX && p.x <= window.maxX && p.y >= window.minY &&
           p.y <= window.maxY;
  };

  // Flood the exterior first, from a guaranteed-exterior corner.
  const auto flood = [&](TriPoint start, std::int32_t region) {
    std::deque<TriPoint> frontier;
    frontier.push_back(start);
    result.regionOf.insertOrAssign(pack(start), region);
    while (!frontier.empty()) {
      const TriPoint p = frontier.front();
      frontier.pop_front();
      for (const Direction d : kAllDirections) {
        const TriPoint q = neighbor(p, d);
        if (!inWindow(q) || sys.occupied(q)) continue;
        if (result.regionOf.contains(pack(q))) continue;
        result.regionOf.insertOrAssign(pack(q), region);
        frontier.push_back(q);
      }
    }
  };

  flood({window.minX, window.minY}, ComplementRegions::kExteriorRegion);

  // Remaining unflooded unoccupied cells are holes; label by component.
  std::int32_t nextRegion = 1;
  for (std::int32_t y = window.minY; y <= window.maxY; ++y) {
    for (std::int32_t x = window.minX; x <= window.maxX; ++x) {
      const TriPoint p{x, y};
      if (sys.occupied(p) || result.regionOf.contains(pack(p))) continue;
      flood(p, nextRegion);
      ++nextRegion;
    }
  }
  result.holeCount = nextRegion - 1;
  return result;
}

int countHoles(const ParticleSystem& sys) {
  return static_cast<int>(topology(sys).holes);
}

std::int64_t perimeter(const ParticleSystem& sys) {
  return perimeter(sys.positions(),
                   [&sys](TriPoint p) { return sys.occupied(p); });
}

namespace {

/// planeShape() of the cells word(x, y) gives — bit j the cell (x + j, y)
/// — over the words of `cells`' window or allocated tiles.
template <typename Word>
PlaneShape shapeOfWords(const BitGrid& cells, const Word& word) {
  PlaneShape shape;
  if (!cells.enabled()) return shape;
  // The words to scan, row by row: per band of rows, its column spans in
  // increasing x — the flat window, or each tile row's allocated tiles.
  struct Span {
    std::int64_t x0;
    std::int64_t words;
  };
  struct Band {
    std::int64_t y0, y1;
    std::vector<Span> spans;
  };
  std::vector<Band> bands;
  if (!cells.tiled()) {
    bands.push_back(
        {cells.originY(),
         cells.originY() + static_cast<std::int64_t>(cells.height()),
         {{cells.originX(),
           static_cast<std::int64_t>((cells.width() + 63) / 64)}}});
  } else {
    std::vector<std::uint64_t> keys = cells.sortedTileKeys();
    std::sort(keys.begin(), keys.end(), [](std::uint64_t a, std::uint64_t b) {
      const std::int64_t ya = BitGrid::tileYOfKey(a);
      const std::int64_t yb = BitGrid::tileYOfKey(b);
      return ya != yb ? ya < yb
                      : BitGrid::tileXOfKey(a) < BitGrid::tileXOfKey(b);
    });
    for (const std::uint64_t key : keys) {
      const std::int64_t y0 = BitGrid::tileYOfKey(key) * BitGrid::kTileHeight;
      if (bands.empty() || bands.back().y0 != y0) {
        bands.push_back({y0, y0 + BitGrid::kTileHeight, {}});
      }
      bands.back().spans.push_back(
          {BitGrid::tileXOfKey(key) * BitGrid::kTileWidth,
           static_cast<std::int64_t>(BitGrid::kTileRowWords)});
    }
  }
  std::vector<CellRun> runs;
  std::vector<std::int32_t> starts;
  std::vector<std::int32_t> ends;
  for (const Band& band : bands) {
    for (std::int64_t y = band.y0; y < band.y1; ++y) {
      starts.clear();
      ends.clear();
      for (const Span& span : band.spans) {
        for (std::int64_t k = 0; k < span.words; ++k) {
          const std::int64_t x = span.x0 + 64 * k;
          const std::uint64_t row = word(x, y);
          if (row == 0) continue;
          // Bit j of each: the cell x + j + 1 (east), x + j − 1 (west), and
          // x + j + 1 of the row below (south-east).
          const std::uint64_t right = word(x + 64, y);
          const std::uint64_t east = (row >> 1) | (right << 63);
          const std::uint64_t west = (row << 1) | (word(x - 64, y) >> 63);
          const std::uint64_t southEast =
              (word(x, y - 1) >> 1) | (word(x + 64, y - 1) << 63);
          // Each edge once, from the cell it leaves East, North-East or
          // South-East.
          shape.cells += util::popcount64(row);
          shape.edges += util::popcount64(row & east) +
                         util::popcount64(row & word(x, y + 1)) +
                         util::popcount64(row & southEast);
          for (std::uint64_t s = row & ~west; s != 0; s &= s - 1) {
            starts.push_back(
                static_cast<std::int32_t>(x + std::countr_zero(s)));
          }
          for (std::uint64_t e = row & ~east; e != 0; e &= e - 1) {
            ends.push_back(static_cast<std::int32_t>(x + std::countr_zero(e)));
          }
        }
      }
      // A row's starts and ends alternate, in increasing x.
      for (std::size_t r = 0; r < starts.size(); ++r) {
        runs.push_back({static_cast<std::int32_t>(y), starts[r], ends[r]});
      }
    }
  }
  shape.topology = topologyOfRuns(std::move(runs));
  return shape;
}

}  // namespace

PlaneShape planeShape(const BitGrid& cells, const BitGrid& minus) {
  return shapeOfWords(cells, [&](std::int64_t x, std::int64_t y) {
    return cells.rowBits(x, y) & ~minus.rowBits(x, y);
  });
}

PlaneShape planeShape(const BitGrid& cells) {
  return shapeOfWords(cells, [&](std::int64_t x, std::int64_t y) {
    return cells.rowBits(x, y);
  });
}

std::int64_t perimeter(const PlaneShape& shape) {
  SOPS_REQUIRE(shape.cells > 0, "perimeter of empty system");
  SOPS_REQUIRE(shape.topology.components == 1,
               "perimeter requires a connected configuration");
  return perimeterFromCounts(shape.cells, shape.edges, shape.topology.holes);
}

std::int64_t pMin(std::int64_t n) {
  SOPS_REQUIRE(n >= 1, "pMin requires n >= 1");
  // ceil(sqrt(12n-3)) computed exactly with an integer correction step.
  const double approx = std::sqrt(static_cast<double>(12 * n - 3));
  auto root = static_cast<std::int64_t>(approx);
  while (root * root < 12 * n - 3) ++root;
  while ((root - 1) * (root - 1) >= 12 * n - 3) --root;
  return root - 3;
}

int graphDiameter(const ParticleSystem& sys) {
  SOPS_REQUIRE(!sys.empty(), "graphDiameter of empty system");
  SOPS_REQUIRE(isConnected(sys),
               "graphDiameter requires connected configuration");
  int best = 0;
  for (const TriPoint source : sys.positions()) {
    util::FlatMap64<std::int32_t> dist(sys.size());
    std::deque<TriPoint> frontier;
    dist.insertOrAssign(pack(source), 0);
    frontier.push_back(source);
    while (!frontier.empty()) {
      const TriPoint p = frontier.front();
      frontier.pop_front();
      const std::int32_t dp = *dist.find(pack(p));
      best = std::max(best, dp);
      for (const Direction d : kAllDirections) {
        const TriPoint q = neighbor(p, d);
        if (sys.occupied(q) && !dist.contains(pack(q))) {
          dist.insertOrAssign(pack(q), dp + 1);
          frontier.push_back(q);
        }
      }
    }
  }
  return best;
}

ConfigSummary summarize(const ParticleSystem& sys) {
  ConfigSummary s;
  s.particles = static_cast<std::int64_t>(sys.size());
  if (sys.empty()) {
    s.connected = true;
    return s;
  }
  s.edges = countEdges(sys);
  s.triangles = countTriangles(sys);
  const Topology shape = topology(sys);
  s.holes = shape.holes;
  s.connected = shape.components == 1;
  if (s.connected) {
    s.perimeter = perimeterFromCounts(s.particles, s.edges, s.holes);
    const std::int64_t minimum = pMin(s.particles);
    s.perimeterRatio = minimum > 0
                           ? static_cast<double>(s.perimeter) /
                                 static_cast<double>(minimum)
                           : (s.perimeter == 0 ? 1.0 : 0.0);
  }
  return s;
}

}  // namespace sops::system

#ifndef SOPS_RNG_ALIAS_TABLE_HPP
#define SOPS_RNG_ALIAS_TABLE_HPP

/// \file alias_table.hpp
/// Walker's alias method (Vose's construction): O(1) draws of index i with
/// probability w_i / Σw from a table built once in O(n).

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/random.hpp"
#include "util/assert.hpp"

namespace sops::rng {

class AliasTable {
 public:
  AliasTable() = default;

  /// Builds the table for positive, finite weights (fewer than 2^32 of
  /// them).  The construction is a fixed sequence of floating-point
  /// operations, so the table — and every draw — is a pure function of
  /// the weights.
  explicit AliasTable(std::span<const double> weights) {
    const std::size_t n = weights.size();
    SOPS_REQUIRE(n > 0 && n < (std::uint64_t{1} << 32),
                 "alias table needs 1..2^32-1 weights");
    double total = 0.0;
    for (const double w : weights) {
      SOPS_REQUIRE(std::isfinite(w) && w > 0.0,
                   "alias weights must be positive and finite");
      total += w;
    }
    probability_.resize(n);
    alias_.resize(n);
    std::vector<double> scaled(n);
    std::vector<std::uint32_t> small;
    std::vector<std::uint32_t> large;
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * static_cast<double>(n) / total;
      (scaled[i] < 1.0 ? small : large)
          .push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t l = large.back();
      probability_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] = (scaled[l] + scaled[s]) - 1.0;
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    // Leftovers are 1 up to rounding: they keep their own column.
    for (const std::uint32_t i : large) {
      probability_[i] = 1.0;
      alias_[i] = i;
    }
    for (const std::uint32_t i : small) {
      probability_[i] = 1.0;
      alias_[i] = i;
    }
  }

  [[nodiscard]] bool empty() const noexcept { return probability_.empty(); }

  /// One draw: a uniform column, then a biased coin between the column
  /// and its alias.
  template <typename Engine>
  [[nodiscard]] std::uint32_t sample(Engine& engine) const noexcept {
    const std::uint32_t column =
        drawBelow(engine, static_cast<std::uint32_t>(probability_.size()));
    return drawUniform(engine) < probability_[column] ? column
                                                      : alias_[column];
  }

 private:
  std::vector<double> probability_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace sops::rng

#endif  // SOPS_RNG_ALIAS_TABLE_HPP

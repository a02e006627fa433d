#ifndef SOPS_UTIL_POPCOUNT_HPP
#define SOPS_UTIL_POPCOUNT_HPP

/// \file popcount.hpp
/// The one popcount of the tree.  The build targets baseline x86-64,
/// which has no popcount instruction, so std::popcount and
/// __builtin_popcount compile to a libgcc call (__popcountdi2); this SWAR
/// form inlines to a dozen ALU operations and is constexpr.

#include <cstdint>

namespace sops::util {

/// The set bits of a word.
[[nodiscard]] constexpr int popcount64(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}
static_assert(popcount64(0) == 0 && popcount64(~std::uint64_t{0}) == 64 &&
              popcount64(0x8000000000000101ULL) == 3);

}  // namespace sops::util

#endif  // SOPS_UTIL_POPCOUNT_HPP

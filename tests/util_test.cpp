// Tests for the flat hash containers and assertion macros (S3).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rng/random.hpp"
#include "util/assert.hpp"
#include "util/flat_hash.hpp"

namespace sops::util {
namespace {

TEST(Assert, RequireThrowsContractViolation) {
  EXPECT_THROW(SOPS_REQUIRE(false, "boom"), sops::ContractViolation);
  EXPECT_NO_THROW(SOPS_REQUIRE(true, "fine"));
}

TEST(Assert, MessageContainsContext) {
  try {
    SOPS_REQUIRE(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const sops::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom context"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(FlatMap, InsertFindBasics) {
  FlatMap64<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_TRUE(map.insert(42, 7));
  EXPECT_FALSE(map.insert(42, 8));  // duplicate rejected
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.find(42), nullptr);
  EXPECT_EQ(*map.find(42), 7);
  EXPECT_EQ(map.find(43), nullptr);
}

TEST(FlatMap, InsertOrAssignOverwrites) {
  FlatMap64<int> map;
  map.insertOrAssign(1, 10);
  map.insertOrAssign(1, 20);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find(1), 20);
}

TEST(FlatMap, EraseRemoves) {
  FlatMap64<int> map;
  map.insert(5, 50);
  EXPECT_TRUE(map.erase(5));
  EXPECT_FALSE(map.erase(5));
  EXPECT_FALSE(map.contains(5));
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMap, GrowsPastInitialCapacity) {
  FlatMap64<std::uint64_t> map;
  for (std::uint64_t k = 0; k < 10000; ++k) {
    ASSERT_TRUE(map.insert(k * 2654435761ULL, k));
  }
  EXPECT_EQ(map.size(), 10000u);
  for (std::uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(map.find(k * 2654435761ULL), nullptr);
    EXPECT_EQ(*map.find(k * 2654435761ULL), k);
  }
}

TEST(FlatMap, ZeroAndMaxKeysAreOrdinary) {
  FlatMap64<int> map;
  EXPECT_TRUE(map.insert(0, 1));
  EXPECT_TRUE(map.insert(~std::uint64_t{0}, 2));
  EXPECT_EQ(*map.find(0), 1);
  EXPECT_EQ(*map.find(~std::uint64_t{0}), 2);
  EXPECT_TRUE(map.erase(0));
  EXPECT_TRUE(map.contains(~std::uint64_t{0}));
}

TEST(FlatMap, ChurnMatchesReferenceImplementation) {
  // Randomized insert/erase/lookup churn, checked against
  // std::unordered_map.  Backward-shift deletion is the risky part; this
  // drives long probe chains through repeated collisions.
  FlatMap64<int> map;
  std::unordered_map<std::uint64_t, int> reference;
  rng::Random rng(12345);
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t key = rng.below(512);  // dense keyspace → collisions
    const int action = static_cast<int>(rng.below(3));
    if (action == 0) {
      const int value = static_cast<int>(rng.below(1000));
      map.insertOrAssign(key, value);
      reference[key] = value;
    } else if (action == 1) {
      EXPECT_EQ(map.erase(key), reference.erase(key) > 0);
    } else {
      const int* found = map.find(key);
      const auto it = reference.find(key);
      ASSERT_EQ(found != nullptr, it != reference.end());
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(map.size(), reference.size());
  }
}

TEST(FlatMap, ForEachVisitsEverything) {
  FlatMap64<int> map;
  for (int k = 1; k <= 100; ++k) {
    map.insert(static_cast<std::uint64_t>(k), k * k);
  }
  std::uint64_t keySum = 0;
  long valueSum = 0;
  map.forEach([&](std::uint64_t key, int value) {
    keySum += key;
    valueSum += value;
  });
  EXPECT_EQ(keySum, 5050u);
  EXPECT_EQ(valueSum, 338350);
}

TEST(FlatMap, ReserveDoesNotLoseEntries) {
  FlatMap64<int> map;
  for (int k = 0; k < 50; ++k) map.insert(static_cast<std::uint64_t>(k), k);
  map.reserve(100000);
  for (int k = 0; k < 50; ++k) {
    ASSERT_NE(map.find(static_cast<std::uint64_t>(k)), nullptr);
    EXPECT_EQ(*map.find(static_cast<std::uint64_t>(k)), k);
  }
}

TEST(FlatSet, Basics) {
  FlatSet64 set;
  EXPECT_TRUE(set.insert(9));
  EXPECT_FALSE(set.insert(9));
  EXPECT_TRUE(set.contains(9));
  EXPECT_TRUE(set.erase(9));
  EXPECT_FALSE(set.contains(9));
  EXPECT_TRUE(set.empty());
}

TEST(FlatSet, ChurnMatchesReference) {
  FlatSet64 set;
  std::unordered_set<std::uint64_t> reference;
  rng::Random rng(999);
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t key = rng.below(256);
    if (rng.bernoulli(0.5)) {
      EXPECT_EQ(set.insert(key), reference.insert(key).second);
    } else {
      EXPECT_EQ(set.erase(key), reference.erase(key) > 0);
    }
    ASSERT_EQ(set.size(), reference.size());
  }
}

TEST(Mix64, SeparatesDenseKeys) {
  std::unordered_set<std::uint64_t> lowBits;
  for (std::uint64_t k = 0; k < 4096; ++k) {
    lowBits.insert(mix64(k) & 0xFFF);
  }
  // A good mixer spreads 4096 consecutive keys over most of 4096 buckets.
  EXPECT_GT(lowBits.size(), 2400u);
}

}  // namespace
}  // namespace sops::util

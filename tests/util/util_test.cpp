// Tests for util: RNG determinism/distribution, Histogram, Table,
// string helpers, Status/Result, the flat IdMap.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "openflow/conntrack.hpp"
#include "util/id_map.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace harmless::util {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowZeroBoundReturnsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / kSamples, 100.0, 3.0);
}

// ----------------------------------------------------------- Histogram

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, MomentsAndQuantiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.p50(), 50.5, 0.6);
  EXPECT_NEAR(h.p99(), 99.0, 1.1);
  EXPECT_NEAR(h.stddev(), 29.0, 0.5);
}

TEST(Histogram, QuantileClamps) {
  Histogram h;
  h.add(5);
  EXPECT_DOUBLE_EQ(h.quantile(-1), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(2), 5.0);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.add(1);
  h.clear();
  EXPECT_TRUE(h.empty());
  h.add(7);
  EXPECT_DOUBLE_EQ(h.mean(), 7.0);
}

TEST(RateCounter, Rates) {
  RateCounter counter;
  for (int i = 0; i < 1000; ++i) counter.add(125);  // 1000 pkts, 1 kb each
  EXPECT_DOUBLE_EQ(counter.pps(1'000'000'000), 1000.0);
  EXPECT_DOUBLE_EQ(counter.bps(1'000'000'000), 1'000'000.0);
  EXPECT_DOUBLE_EQ(counter.pps(0), 0.0);
}

// -------------------------------------------------------------- strings

TEST(Strings, SplitKeepsEmptyTokens) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(Strings, ParseU64) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616", v));  // overflow
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("-1", v));
  EXPECT_FALSE(parse_u64("12x", v));
}

TEST(Strings, SiFormat) {
  EXPECT_EQ(si_format(1500000.0, "pps"), "1.50 Mpps");
  EXPECT_EQ(si_format(999.0, "bps", 0), "999 bps");
  EXPECT_EQ(si_format(2.5e9, "bps", 1), "2.5 Gbps");
}

TEST(Strings, JoinAndLower) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(to_lower("AbC-9"), "abc-9");
}

// ---------------------------------------------------------------- Table

TEST(Table, RendersAlignedAscii) {
  Table table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "22"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| name   |"), std::string::npos);
  EXPECT_NE(text.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, ArityMismatchThrows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ConfigError);
}

// -------------------------------------------------------- Status/Result

TEST(Status, OkAndError) {
  EXPECT_TRUE(Status::ok());
  const Status err = Status::error("boom");
  EXPECT_FALSE(err);
  EXPECT_EQ(err.message(), "boom");
  EXPECT_THROW(err.check(), ConfigError);
  EXPECT_NO_THROW(Status::ok().check());
}

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok);
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(7), 42);

  auto err = Result<int>::error("nope");
  EXPECT_FALSE(err);
  EXPECT_EQ(err.message(), "nope");
  EXPECT_EQ(err.value_or(7), 7);
  EXPECT_THROW(err.value(), ConfigError);
  EXPECT_FALSE(err.status().is_ok());
}

// ---------------------------------------------------------------- IdMap

/// Every key starts probing at the table's last slot: one probe chain
/// that wraps to slot 0 at once, so lookups, inserts and backward-shift
/// deletion all cross the wrap-around.
struct OneChainHash {
  template <typename Key>
  std::uint64_t operator()(const Key&) const { return ~std::uint64_t{0}; }
};

/// Drive `map` and a std::unordered_map through the same seeded
/// insert/assign/find/erase/take/clear sequence over `universe`,
/// checking every answer and, periodically, every key. `*peak` gets
/// the largest size reached.
template <typename RefHash, typename Map, typename Key>
void check_against_unordered_map(Map& map, const std::vector<Key>& universe,
                                 std::uint64_t seed, std::size_t* peak) {
  std::unordered_map<Key, std::uint32_t, RefHash> ref;
  Rng rng(seed);
  *peak = 0;
  for (int step = 0; step < 6000; ++step) {
    const Key& key = universe[rng.below(universe.size())];
    const auto value = static_cast<std::uint32_t>(rng.next());
    const std::uint64_t op = rng.below(100);
    if (step % 2500 == 2499) {
      map.clear();
      ref.clear();
    } else if (op < 50) {  // insert, or assign when present
      map.insert_or_assign(key, value);
      ref.insert_or_assign(key, value);
    } else if (op < 65) {
      const std::uint32_t* found = map.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end()) << "step " << step;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second) << "step " << step;
      }
    } else if (op < 80) {
      map.erase(key);
      ref.erase(key);
    } else {
      std::uint32_t taken = 0;
      const auto it = ref.find(key);
      ASSERT_EQ(map.take(key, &taken), it != ref.end()) << "step " << step;
      if (it != ref.end()) {
        EXPECT_EQ(taken, it->second) << "step " << step;
        ref.erase(it);
      }
    }
    ASSERT_EQ(map.size(), ref.size()) << "step " << step;
    ASSERT_EQ(map.empty(), ref.empty()) << "step " << step;
    *peak = std::max(*peak, ref.size());
    if (step % 97 == 0) {
      for (const Key& probe : universe) {
        const auto it = ref.find(probe);
        ASSERT_EQ(map.contains(probe), it != ref.end()) << "step " << step;
        const std::uint32_t* found = map.find(probe);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "step " << step;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << "step " << step;
        }
      }
    }
  }
}

std::vector<std::uint64_t> id_universe(std::size_t count) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < count; ++k) keys.push_back(k);  // key 0 included
  keys.push_back(~std::uint64_t{0});
  return keys;
}

std::vector<openflow::CtTuple> tuple_universe(std::size_t count, std::uint64_t seed) {
  // The all-zero tuple (the empty-slot marker's value) is a legal key.
  std::vector<openflow::CtTuple> tuples{openflow::CtTuple{}};
  Rng rng(seed);
  while (tuples.size() < count) {
    const openflow::CtTuple t{static_cast<std::uint32_t>(rng.below(4)),
                              static_cast<std::uint32_t>(rng.below(4)),
                              static_cast<std::uint16_t>(rng.below(8)),
                              static_cast<std::uint16_t>(rng.below(8)),
                              static_cast<std::uint8_t>(rng.below(2) == 0 ? 6 : 17)};
    if (std::find(tuples.begin(), tuples.end(), t) == tuples.end()) tuples.push_back(t);
  }
  return tuples;
}

// The table starts at 64 slots and doubles past 7/8 load, so a peak
// above 112 live keys means it grew at least twice (64 -> 128 -> 256).
constexpr std::size_t kTwoGrowths = 113;

TEST(IdMap, U64KeysAgreeWithUnorderedMap) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    IdMap<std::uint64_t, std::uint32_t> map;
    std::size_t peak = 0;
    check_against_unordered_map<std::hash<std::uint64_t>>(map, id_universe(400), seed, &peak);
    EXPECT_GE(peak, kTwoGrowths);
  }
}

TEST(IdMap, TupleKeysAgreeWithUnorderedMap) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    IdMap<openflow::CtTuple, std::uint32_t, openflow::CtTupleHash> map;
    std::size_t peak = 0;
    check_against_unordered_map<openflow::CtTupleHash>(map, tuple_universe(400, seed), seed,
                                                       &peak);
    EXPECT_GE(peak, kTwoGrowths);
  }
}

TEST(IdMap, OneProbeChainWrapsAndBackShifts) {
  for (const std::uint64_t seed : {1u, 2u}) {
    std::size_t peak = 0;
    IdMap<std::uint64_t, std::uint32_t, OneChainHash> ids;
    check_against_unordered_map<std::hash<std::uint64_t>>(ids, id_universe(180), seed, &peak);
    EXPECT_GE(peak, kTwoGrowths);
    IdMap<openflow::CtTuple, std::uint32_t, OneChainHash> tuples;
    check_against_unordered_map<openflow::CtTupleHash>(tuples, tuple_universe(180, seed), seed,
                                                       &peak);
    EXPECT_GE(peak, kTwoGrowths);
  }
}

}  // namespace
}  // namespace harmless::util

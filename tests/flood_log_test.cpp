// The network-wide flood log (routing/flood_log.hpp) against the
// per-terminal history tables it replaced (tests/history_oracle.hpp): every
// seen / seen_or_insert answer must match, for every node, tag and key.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <unordered_set>
#include <vector>

#include "history_oracle.hpp"
#include "routing/flood_log.hpp"
#include "sim/random.hpp"

namespace rica::routing {
namespace {

// The HistoryTable assertions, run against one terminal's view of a log.

TEST(FloodHistory, DetectsDuplicates) {
  FloodLog log(1);
  FloodHistory h(log, 0);
  EXPECT_FALSE(h.seen_or_insert(3, 7));
  EXPECT_TRUE(h.seen_or_insert(3, 7));
  EXPECT_FALSE(h.seen_or_insert(3, 8));
  EXPECT_FALSE(h.seen_or_insert(4, 7));
}

TEST(FloodHistory, TagsSeparateNamespaces) {
  FloodLog log(1);
  FloodHistory h(log, 0);
  EXPECT_FALSE(h.seen_or_insert(3, 7, 1));
  EXPECT_FALSE(h.seen_or_insert(3, 7, 2));
  EXPECT_TRUE(h.seen_or_insert(3, 7, 1));
}

TEST(FloodHistory, SeenLooksUpWithoutRecording) {
  FloodLog log(1);
  FloodHistory h(log, 0);
  EXPECT_FALSE(h.seen(3, 7, 1));
  EXPECT_FALSE(h.seen(3, 7, 1));  // the lookup recorded nothing
  EXPECT_FALSE(h.seen_or_insert(3, 7, 1));
  EXPECT_TRUE(h.seen(3, 7, 1));
  EXPECT_FALSE(h.seen(3, 7, 2));
}

TEST(FloodLog, TerminalsOnEitherSideOfAWordBoundaryStayApart) {
  FloodLog log(130);
  EXPECT_EQ(log.bytes(), 0u);  // no index, no rows until the first flood
  const std::vector<net::NodeId> edges = {0, 63, 64, 127, 128, 129};
  for (const net::NodeId n : edges) {
    EXPECT_FALSE(log.seen_or_insert(n, 5, 9, 1)) << n;
    for (const net::NodeId m : edges) {
      EXPECT_EQ(log.seen(m, 5, 9, 1), m <= n) << n << " " << m;
    }
  }
  EXPECT_EQ(log.floods(), 1u);  // one flood, one bit per terminal
  // A second flood fits the index and adds one row of three bit words.
  const std::size_t one_flood = log.bytes();
  EXPECT_FALSE(log.seen_or_insert(0, 6, 9, 1));
  EXPECT_EQ(log.bytes() - one_flood, 3 * sizeof(std::uint64_t));
  EXPECT_FALSE(log.seen(1, 5, 9, 1));
  EXPECT_FALSE(log.seen(62, 5, 9, 1));
  EXPECT_FALSE(log.seen(65, 5, 9, 1));
}

// Random interleavings of both calls across many nodes: the shared log must
// answer exactly as one oracle table per node.  Node counts from 130 upward
// put terminals in a third bit word.  The keys come from a pool that holds
// every tag value twice, small enough that each node meets most keys again.
TEST(FloodLog, RandomizedMatchesPerTerminalOracle) {
  struct Key {
    net::NodeId origin;
    std::uint32_t bid;
    std::uint8_t tag;
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::RandomStream rng(seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(130, 260));
    const auto max_id = static_cast<std::int64_t>(n - 1);
    std::vector<Key> pool;
    for (int i = 0; i < 512; ++i) {
      pool.push_back(Key{static_cast<net::NodeId>(rng.uniform_int(0, max_id)),
                         static_cast<std::uint32_t>(rng.uniform_int(0, 40)),
                         static_cast<std::uint8_t>(i % 256)});
    }
    FloodLog log(n);
    std::vector<oracle::HistoryTable> ref(n);
    std::set<std::uint64_t> recorded;  // distinct pool keys inserted anywhere
    for (int op = 0; op < 100000; ++op) {
      const auto node = static_cast<net::NodeId>(rng.uniform_int(0, max_id));
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, 511));
      const Key& k = pool[i];
      if (rng.chance(0.5)) {
        ASSERT_EQ(log.seen(node, k.origin, k.bid, k.tag),
                  ref[node].seen(k.origin, k.bid, k.tag))
            << "seed " << seed << " op " << op;
      } else {
        ASSERT_EQ(log.seen_or_insert(node, k.origin, k.bid, k.tag),
                  ref[node].seen_or_insert(k.origin, k.bid, k.tag))
            << "seed " << seed << " op " << op;
        recorded.insert(std::uint64_t{k.tag} << 56 |
                        std::uint64_t{k.origin} << 32 | k.bid);
      }
    }
    // Every node agrees on every pool key, not only on the ones it was
    // asked about.
    for (net::NodeId node = 0; node < n; ++node) {
      for (const Key& k : pool) {
        ASSERT_EQ(log.seen(node, k.origin, k.bid, k.tag),
                  ref[node].seen(k.origin, k.bid, k.tag))
            << "seed " << seed << " node " << node;
      }
    }
    EXPECT_EQ(log.floods(), recorded.size());
    EXPECT_LE(log.load_factor(), 0.75);
  }
}

// The oracle's own set against std::unordered_set (moved here with it from
// the flat-table suite).
TEST(FlatSet64, RandomizedChurnMatchesUnorderedSetReference) {
  sim::RandomStream rng(99);
  oracle::FlatSet64 s;
  std::unordered_set<std::uint64_t> ref;
  for (int op = 0; op < 20000; ++op) {
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 5000));
    EXPECT_EQ(s.insert(key), ref.insert(key).second);
    const auto probe = static_cast<std::uint64_t>(rng.uniform_int(0, 5000));
    EXPECT_EQ(s.contains(probe), ref.contains(probe));
    ASSERT_EQ(s.size(), ref.size());
  }
  EXPECT_LE(s.load_factor(), 0.76);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.insert(1));
}

}  // namespace
}  // namespace rica::routing

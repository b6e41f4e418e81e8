// The network-wide flood log (routing/flood_log.hpp) against the
// per-terminal history and reverse-path tables it replaced
// (tests/history_oracle.hpp): every seen / seen_or_insert / upstream answer
// must match, for every node, tag and key.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
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

TEST(FloodHistory, RemembersUpstreamPerOriginAndBid) {
  FloodLog log(1);
  FloodHistory h(log, 0);
  EXPECT_FALSE(h.seen_or_insert(3, 7, 0, 4));
  EXPECT_FALSE(h.seen_or_insert(3, 8, 0, 5));
  EXPECT_FALSE(h.seen_or_insert(2, 7, 0, 6));
  EXPECT_EQ(h.upstream(3, 7), 4u);
  EXPECT_EQ(h.upstream(3, 8), 5u);
  EXPECT_EQ(h.upstream(2, 7), 6u);
  EXPECT_FALSE(h.upstream(2, 8).has_value());
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
  // A second flood fits the index and adds one row of three bit words and
  // one empty upstream list (a vector header).
  const std::size_t one_flood = log.bytes();
  EXPECT_FALSE(log.seen_or_insert(0, 6, 9, 1));
  EXPECT_EQ(log.bytes() - one_flood,
            3 * sizeof(std::uint64_t) + sizeof(std::vector<net::NodeId>));
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

// Random interleavings of a relay's insert (with the sender as upstream),
// an origin's insert (with none), duplicate copies from other senders, and
// upstream lookups by any terminal, related or not.  Every answer must
// match one history table per terminal plus one reverse-path table per
// terminal and tag, written only for a copy the history had not seen, as
// the protocols wrote them.  The pool holds every tag value twice.
TEST(FloodLog, UpstreamsMatchPerTerminalReversePaths) {
  struct Key {
    net::NodeId origin;
    std::uint32_t bid;
    std::uint8_t tag;
  };
  for (const std::size_t n : {5u, 64u, 200u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      sim::RandomStream rng(seed * 1000 + n);
      const auto max_id = static_cast<std::int64_t>(n - 1);
      const auto any_node = [&] {
        return static_cast<net::NodeId>(rng.uniform_int(0, max_id));
      };
      std::vector<Key> pool;
      for (int i = 0; i < 512; ++i) {
        pool.push_back(Key{any_node(),
                           static_cast<std::uint32_t>(rng.uniform_int(0, 40)),
                           static_cast<std::uint8_t>(i % 256)});
      }
      FloodLog log(n);
      std::vector<oracle::HistoryTable> history(n);
      std::map<std::pair<net::NodeId, std::uint8_t>, oracle::ReversePaths>
          paths;
      const auto want = [&](net::NodeId node, const Key& k) {
        const auto it = paths.find({node, k.tag});
        return it == paths.end() ? std::nullopt
                                 : it->second.find(k.origin, k.bid);
      };
      for (int op = 0; op < 60000; ++op) {
        const net::NodeId node = any_node();
        const Key& k = pool[static_cast<std::size_t>(rng.uniform_int(0, 511))];
        switch (rng.uniform_int(0, 3)) {
          case 0: {  // a relay's copy, from a random neighbour
            const net::NodeId from = any_node();
            const bool seen = history[node].seen_or_insert(k.origin, k.bid,
                                                           k.tag);
            ASSERT_EQ(log.seen_or_insert(node, k.origin, k.bid, k.tag, from),
                      seen)
                << "n " << n << " seed " << seed << " op " << op;
            if (!seen) paths[{node, k.tag}].record(k.origin, k.bid, from);
            break;
          }
          case 1:  // an origin's own flood: no upstream
            ASSERT_EQ(log.seen_or_insert(node, k.origin, k.bid, k.tag),
                      history[node].seen_or_insert(k.origin, k.bid, k.tag))
                << "n " << n << " seed " << seed << " op " << op;
            break;
          default:
            ASSERT_EQ(log.upstream(node, k.origin, k.bid, k.tag),
                      want(node, k))
                << "n " << n << " seed " << seed << " op " << op;
        }
      }
      for (net::NodeId node = 0; node < n; ++node) {
        for (const Key& k : pool) {
          ASSERT_EQ(log.upstream(node, k.origin, k.bid, k.tag), want(node, k))
              << "n " << n << " seed " << seed << " node " << node;
        }
      }
    }
  }
}

// The memory model at large-scale's size: K upstreams over F floods cost at
// most 16 B per upstream (an 8-byte pair, at up to twice the list's size in
// capacity) and 32 B per flood (the list header) on top of the bit rows and
// the index.  Each relay also hears three duplicate copies, which must add
// nothing.  An upstream row 10,000 entries wide (40 KB per flood) fails.
TEST(FloodLog, UpstreamListsCostTheirRelaysNotTheNetwork) {
  constexpr std::size_t n = 10'000;
  constexpr std::uint32_t f = 300;
  const auto max_id = static_cast<std::int64_t>(n - 1);
  sim::RandomStream rng(7);
  FloodLog log(n);
  std::size_t k = 0;
  for (std::uint32_t bid = 0; bid < f; ++bid) {
    const auto origin = static_cast<net::NodeId>(rng.uniform_int(0, max_id));
    EXPECT_FALSE(log.seen_or_insert(origin, origin, bid, 1));
    const auto copies = rng.uniform_int(0, 400);
    for (std::int64_t c = 0; c < copies; ++c) {
      const auto node = static_cast<net::NodeId>(rng.uniform_int(0, max_id));
      const auto from = static_cast<net::NodeId>(rng.uniform_int(0, max_id));
      if (!log.seen_or_insert(node, origin, bid, 1, from)) ++k;
      for (net::NodeId d = 1; d <= 3; ++d) {
        EXPECT_TRUE(log.seen_or_insert(node, origin, bid, 1, (from + d) % n));
      }
    }
  }
  ASSERT_EQ(log.floods(), f);
  std::size_t slots = 64;
  while (f * 4 > slots * 3) slots *= 2;
  const std::size_t bit_rows = f * ((n + 63) / 64) * sizeof(std::uint64_t);
  const std::size_t index = slots * 16;
  EXPECT_LE(log.bytes(), bit_rows + index + 16 * k + 32 * f);
  EXPECT_LT(16 * k + 32 * f, f * n * sizeof(net::NodeId));
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

// Property tests for the consistent-hash Layout (the elastic service's
// client-computed routing plane): deterministic mapping, bounded movement
// under split/merge, HRW weighted placement, serialization round-trips.
#include "composed/layout.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace mochi;
using namespace mochi::composed;

namespace {

std::vector<std::string> keys_upto(int n) {
    std::vector<std::string> ks;
    ks.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) ks.push_back("key" + std::to_string(i));
    return ks;
}

} // namespace

TEST(Layout, InitialPartitionIsValidEvenAndDeterministic) {
    auto l1 = Layout::initial(8, {"sim://b", "sim://a"});
    auto l2 = Layout::initial(8, {"sim://a", "sim://b"}); // order-insensitive
    ASSERT_TRUE(l1.valid());
    ASSERT_EQ(l1.num_shards(), 8u);
    EXPECT_GE(l1.epoch(), 1u);
    // Same inputs (any order) -> byte-identical layout: every process that
    // bootstraps locally agrees without communication.
    EXPECT_EQ(l1.pack(), l2.pack());
    // Ranges tile the ring: sorted begins, first at 0.
    EXPECT_EQ(l1.shards().front().range_begin, 0u);
    for (std::size_t i = 1; i < l1.shards().size(); ++i)
        EXPECT_GT(l1.shards()[i].range_begin, l1.shards()[i - 1].range_begin);
    // Round-robin: both nodes host shards.
    EXPECT_EQ(l1.nodes(), (std::vector<std::string>{"sim://a", "sim://b"}));
}

TEST(Layout, EveryKeyMapsToExactlyOneShardDeterministically) {
    auto layout = Layout::initial(16, {"sim://a", "sim://b", "sim://c"});
    for (const auto& k : keys_upto(5000)) {
        const auto& s1 = layout.shard_for_key(k);
        const auto& s2 = layout.shard_for_key(k);
        EXPECT_EQ(s1.id, s2.id);
        // The mapping is the ring definition itself.
        const auto h = key_hash(k);
        EXPECT_GE(h, s1.range_begin);
        const auto end = layout.range_end_of(s1.id);
        if (end != 0) {
            EXPECT_LT(h, end);
        }
    }
}

TEST(Layout, HashSpreadsKeysAcrossShards) {
    auto layout = Layout::initial(16, {"sim://a"});
    std::map<std::uint32_t, int> counts;
    const int n = 10000;
    for (const auto& k : keys_upto(n)) ++counts[layout.shard_for_key(k).id];
    EXPECT_EQ(counts.size(), 16u); // every shard gets traffic
    for (const auto& [id, c] : counts) {
        EXPECT_GT(c, n / 16 / 4) << "shard " << id << " starved";
        EXPECT_LT(c, n / 16 * 4) << "shard " << id << " overloaded";
    }
}

TEST(Layout, SplitMovesOnlyTheBisectedUpperHalf) {
    auto layout = Layout::initial(8, {"sim://a", "sim://b"});
    const auto keys = keys_upto(8000);
    std::map<std::string, std::uint32_t> before;
    for (const auto& k : keys) before[k] = layout.shard_for_key(k).id;
    const auto e0 = layout.epoch();
    auto plan = layout.split(3, "sim://c");
    ASSERT_TRUE(plan.has_value()) << plan.error().message;
    ASSERT_TRUE(layout.valid());
    EXPECT_EQ(layout.num_shards(), 9u);
    EXPECT_GT(layout.epoch(), e0);
    EXPECT_EQ(plan->parent, 3u);
    EXPECT_EQ(plan->child, 8u); // smallest unused id
    EXPECT_EQ(plan->child_node, "sim://c");
    int moved = 0;
    for (const auto& k : keys) {
        const auto now = layout.shard_for_key(k).id;
        if (now != before[k]) {
            ++moved;
            // Every moved key left the parent for the child, nothing else.
            EXPECT_EQ(before[k], plan->parent);
            EXPECT_EQ(now, plan->child);
            EXPECT_GE(key_hash(k), plan->mid);
        }
    }
    // ~1/(2*8) of keys expected; assert the issue's 2/N bound with margin.
    EXPECT_GT(moved, 0);
    EXPECT_LE(moved, static_cast<int>(keys.size()) * 2 / 8);
}

TEST(Layout, MergeReturnsRangeToPredecessorOnly) {
    auto layout = Layout::initial(8, {"sim://a", "sim://b"});
    auto split = layout.split(5);
    ASSERT_TRUE(split.has_value());
    const auto keys = keys_upto(4000);
    std::map<std::string, std::uint32_t> before;
    for (const auto& k : keys) before[k] = layout.shard_for_key(k).id;
    auto plan = layout.merge(split->child);
    ASSERT_TRUE(plan.has_value()) << plan.error().message;
    ASSERT_TRUE(layout.valid());
    EXPECT_EQ(layout.num_shards(), 8u);
    EXPECT_EQ(plan->survivor, split->parent); // child merges back into parent
    for (const auto& k : keys) {
        const auto now = layout.shard_for_key(k).id;
        if (before[k] == plan->victim)
            EXPECT_EQ(now, plan->survivor);
        else
            EXPECT_EQ(now, before[k]); // everyone else untouched
    }
}

TEST(Layout, FirstShardCannotMergeAndUnknownIdsError) {
    auto layout = Layout::initial(4, {"sim://a"});
    EXPECT_FALSE(layout.merge(layout.shards().front().id).has_value());
    EXPECT_FALSE(layout.merge(999).has_value());
    EXPECT_FALSE(layout.split(999).has_value());
    EXPECT_FALSE(layout.move_shard(999, "sim://a").ok());
}

TEST(Layout, RepeatedSplitsKeepRingValid) {
    auto layout = Layout::initial(2, {"sim://a"});
    for (int i = 0; i < 30; ++i) {
        // Always split the currently-widest shard (what a controller would
        // do for a hot shard) to stress range bisection.
        using u128 = unsigned __int128;
        std::uint32_t widest = 0;
        u128 best = 0;
        for (const auto& s : layout.shards()) {
            auto end = layout.range_end_of(s.id);
            u128 span = (end == 0 ? (u128{1} << 64) : u128{end}) - s.range_begin;
            if (span > best) { best = span; widest = s.id; }
        }
        ASSERT_TRUE(layout.split(widest).has_value()) << i;
        ASSERT_TRUE(layout.valid()) << i;
    }
    EXPECT_EQ(layout.num_shards(), 32u);
    // Shard ids stay unique.
    std::set<std::uint32_t> ids;
    for (const auto& s : layout.shards()) ids.insert(s.id);
    EXPECT_EQ(ids.size(), 32u);
}

TEST(Layout, WeightedRendezvousRespectsWeightsAndMinimizesMoves) {
    auto layout = Layout::initial(64, {"sim://a", "sim://b"});
    // Equal weights: both nodes host a nontrivial share.
    std::vector<WeightedNode> equal{{"sim://a", 1.0}, {"sim://b", 1.0}};
    layout.rebalance_weighted(equal);
    std::map<std::string, int> hosts;
    for (const auto& s : layout.shards()) ++hosts[s.node];
    EXPECT_GT(hosts["sim://a"], 8);
    EXPECT_GT(hosts["sim://b"], 8);
    // Re-running with identical weights moves nothing (HRW stability).
    EXPECT_TRUE(layout.rebalance_weighted(equal).empty());
    // Adding a node only *pulls* shards to it; no shard shuffles between
    // the existing nodes (the rendezvous-hash minimal-disruption property).
    std::map<std::uint32_t, std::string> before;
    for (const auto& s : layout.shards()) before[s.id] = s.node;
    auto moves = layout.rebalance_weighted(
        {{"sim://a", 1.0}, {"sim://b", 1.0}, {"sim://c", 1.0}});
    EXPECT_FALSE(moves.empty());
    for (const auto& m : moves) {
        EXPECT_EQ(m.from, before[m.shard]);
        EXPECT_EQ(m.to, "sim://c");
    }
    // Zero weight drains a node entirely.
    layout.rebalance_weighted(
        {{"sim://a", 1.0}, {"sim://b", 0.0}, {"sim://c", 1.0}});
    for (const auto& s : layout.shards()) EXPECT_NE(s.node, "sim://b");
}

TEST(Layout, WeightSkewShiftsShardShares) {
    // 3:1 weights should land node a roughly three times b's shards.
    std::vector<WeightedNode> skew{{"sim://a", 3.0}, {"sim://b", 1.0}};
    int a = 0, b = 0;
    for (std::uint32_t id = 0; id < 512; ++id)
        (Layout::place(id, skew) == "sim://a" ? a : b)++;
    EXPECT_GT(a, b * 2); // comfortably above 2:1
    EXPECT_GT(b, 32);    // but b is not starved (512/4 expected ≈ 128)
}

TEST(Layout, PackUnpackRoundTripsEverything) {
    auto layout = Layout::initial(8, {"sim://a", "sim://b"});
    ASSERT_TRUE(layout.split(2, "sim://c").has_value());
    ASSERT_TRUE(layout.move_shard(5, "sim://c").ok());
    auto blob = layout.pack();
    auto back = Layout::unpack_blob(blob);
    ASSERT_TRUE(back.has_value()) << back.error().message;
    EXPECT_EQ(back->epoch(), layout.epoch());
    ASSERT_EQ(back->num_shards(), layout.num_shards());
    for (std::size_t i = 0; i < layout.num_shards(); ++i) {
        EXPECT_EQ(back->shards()[i].id, layout.shards()[i].id);
        EXPECT_EQ(back->shards()[i].range_begin, layout.shards()[i].range_begin);
        EXPECT_EQ(back->shards()[i].node, layout.shards()[i].node);
    }
    // And the round-tripped layout routes identically.
    for (const auto& k : keys_upto(1000))
        EXPECT_EQ(back->shard_for_key(k).id, layout.shard_for_key(k).id);
}

TEST(Layout, UnpackRejectsGarbage) {
    EXPECT_FALSE(Layout::unpack_blob("").has_value());
    EXPECT_FALSE(Layout::unpack_blob("not-an-archive").has_value());
}

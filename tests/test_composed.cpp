// Integration tests for the composed dynamic services: the RAFT-replicated
// Yokan store (§2.3's design example) and the elastic/resilient sharded KV
// service (§6/§7 end-to-end).
#include "composed/elastic_kv.hpp"
#include "composed/replicated_kv.hpp"

#include <gtest/gtest.h>

#include <thread>

using namespace mochi;
using namespace mochi::composed;
using namespace std::chrono_literals;

namespace {

raft::RaftConfig fast_raft() {
    raft::RaftConfig cfg;
    cfg.election_timeout_min = 100ms;
    cfg.election_timeout_max = 200ms;
    cfg.heartbeat_period = 30ms;
    return cfg;
}

template <typename F>
bool eventually(F f, std::chrono::milliseconds limit = 8000ms) {
    auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
        if (f()) return true;
        std::this_thread::sleep_for(20ms);
    }
    return f();
}

} // namespace

// ---------------------------------------------------------------------------
// Replicated KV (Yokan + Mochi-RAFT)
// ---------------------------------------------------------------------------

struct ReplicatedKvWorld {
    std::shared_ptr<mercury::Fabric> fabric = mercury::Fabric::create();
    std::vector<std::string> addresses;
    std::vector<KvReplica> replicas;
    margo::InstancePtr client_margo;

    explicit ReplicatedKvWorld(int n) {
        for (int i = 0; i < n; ++i) {
            addresses.push_back("sim://rkv" + std::to_string(i));
            remi::SimFileStore::destroy_node(addresses.back());
        }
        for (int i = 0; i < n; ++i)
            replicas.push_back(
                KvReplica::create(fabric, addresses[i], addresses, 7, fast_raft()).value());
        client_margo = margo::Instance::create(fabric, "sim://rkv-client").value();
    }
    ~ReplicatedKvWorld() {
        client_margo->shutdown();
        for (auto& r : replicas) r.shutdown();
    }
};

TEST(ReplicatedKv, PutGetEraseLinearizable) {
    ReplicatedKvWorld w{3};
    ReplicatedKvClient kv{w.client_margo, w.addresses, 7};
    ASSERT_TRUE(kv.put("experiment", "nova").ok());
    EXPECT_EQ(*kv.get("experiment"), "nova");
    EXPECT_FALSE(kv.get("missing").has_value());
    ASSERT_TRUE(kv.erase("experiment").ok());
    EXPECT_FALSE(kv.get("experiment").has_value());
    EXPECT_FALSE(kv.erase("experiment").ok());
}

TEST(ReplicatedKv, DataReplicatedOnAllBackends) {
    ReplicatedKvWorld w{3};
    ReplicatedKvClient kv{w.client_margo, w.addresses, 7};
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(kv.put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    // Yokan instances are unaware of replication (§2.3) but all converge.
    bool ok = eventually([&] {
        for (auto& r : w.replicas)
            if (r.machine->backend().count() != 10) return false;
        return true;
    });
    EXPECT_TRUE(ok);
    EXPECT_EQ(*w.replicas[0].machine->backend().get("k3"), "v3");
}

TEST(ReplicatedKv, SurvivesLeaderCrash) {
    ReplicatedKvWorld w{3};
    ReplicatedKvClient kv{w.client_margo, w.addresses, 7};
    ASSERT_TRUE(kv.put("persistent", "value").ok());
    // Crash whoever is the leader.
    for (auto& r : w.replicas) {
        if (r.raft && r.raft->role() == raft::Role::Leader) {
            r.shutdown();
            break;
        }
    }
    // The client retries to the new leader; data survived.
    auto v = kv.get("persistent");
    ASSERT_TRUE(v.has_value()) << v.error().message;
    EXPECT_EQ(*v, "value");
    EXPECT_TRUE(kv.put("after-crash", "x").ok());
}

// ---------------------------------------------------------------------------
// Elastic sharded KV
// ---------------------------------------------------------------------------

TEST(ElasticKv, BasicOperationsRouteAcrossShards) {
    Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 8;
    cfg.enable_swim = false;
    auto svc = ElasticKvService::create(cluster, {"sim://ekv0", "sim://ekv1"}, cfg);
    ASSERT_TRUE(svc.has_value()) << svc.error().message;
    auto& kv = **svc;
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(kv.put("key" + std::to_string(i), "val" + std::to_string(i)).ok());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(*kv.get("key" + std::to_string(i)), "val" + std::to_string(i));
    EXPECT_FALSE(kv.get("missing").has_value());
    ASSERT_TRUE(kv.erase("key0").ok());
    EXPECT_FALSE(kv.get("key0").has_value());
    // Shards spread over both nodes.
    auto layout = kv.layout();
    std::set<std::string> used;
    for (const auto& s : layout.shards()) used.insert(s.node);
    EXPECT_EQ(used.size(), 2u);
}

TEST(ElasticKv, ScaleUpMovesShardsAndKeepsData) {
    Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 8;
    cfg.enable_swim = false;
    auto svc = ElasticKvService::create(cluster, {"sim://ekv0", "sim://ekv1"}, cfg);
    ASSERT_TRUE(svc.has_value());
    auto& kv = **svc;
    for (int i = 0; i < 200; ++i)
        ASSERT_TRUE(kv.put("key" + std::to_string(i), std::string(64, 'd')).ok());
    auto before = kv.layout();
    ASSERT_TRUE(kv.scale_up("sim://ekv2").ok());
    auto after = kv.layout();
    EXPECT_GT(after.epoch(), before.epoch()); // layout epoch advanced
    // Some shards now live on the new node.
    std::size_t on_new = 0;
    for (const auto& s : after.shards())
        if (s.node == "sim://ekv2") ++on_new;
    EXPECT_GT(on_new, 0u);
    EXPECT_LE(on_new, 4u); // roughly a third
    // Every key still readable after migration.
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(*kv.get("key" + std::to_string(i)), std::string(64, 'd')) << i;
}

TEST(ElasticKv, ScaleDownDrainsNode) {
    Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 8;
    cfg.enable_swim = false;
    auto svc =
        ElasticKvService::create(cluster, {"sim://ekv0", "sim://ekv1", "sim://ekv2"}, cfg);
    ASSERT_TRUE(svc.has_value());
    auto& kv = **svc;
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(kv.put("k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(kv.scale_down("sim://ekv1").ok());
    auto layout = kv.layout();
    for (const auto& s : layout.shards()) EXPECT_NE(s.node, "sim://ekv1");
    EXPECT_EQ(kv.nodes().size(), 2u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(*kv.get("k" + std::to_string(i)), "v") << i;
    // Cannot remove the last nodes below one.
    ASSERT_TRUE(kv.scale_down("sim://ekv2").ok());
    EXPECT_FALSE(kv.scale_down("sim://ekv0").ok());
}

TEST(ElasticKv, RebalanceUsesMonitoringLoad) {
    Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 8;
    cfg.enable_swim = false;
    auto svc = ElasticKvService::create(cluster, {"sim://ekv0", "sim://ekv1"}, cfg);
    ASSERT_TRUE(svc.has_value());
    auto& kv = **svc;
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(kv.put("k" + std::to_string(i), "v").ok());
    auto resources = kv.shard_resources();
    ASSERT_EQ(resources.size(), 8u);
    double total_load = 0, total_size = 0;
    for (const auto& r : resources) {
        total_load += r.load;
        total_size += r.size;
    }
    // The monitoring-derived load reflects the 100 puts (the last handler's
    // completion event may trail the client's response slightly); the sizes
    // sum to the number of keys.
    EXPECT_GE(total_load, 90.0);
    EXPECT_EQ(total_size, 100.0);
    EXPECT_TRUE(kv.rebalance().ok());
}

TEST(ElasticKv, GroupDigestTracksMembership) {
    Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 4;
    cfg.enable_swim = false;
    auto svc = ElasticKvService::create(cluster, {"sim://ekv0", "sim://ekv1"}, cfg);
    ASSERT_TRUE(svc.has_value());
    auto& kv = **svc;
    auto digest_before = kv.group_digest();
    ASSERT_TRUE(kv.scale_up("sim://ekv2").ok());
    bool changed = eventually([&] { return kv.group_digest() != digest_before; });
    EXPECT_TRUE(changed);
}

TEST(ElasticKv, ControllerRecoversShardsOfDeadNode) {
    Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 8;
    cfg.enable_resilience = true;
    cfg.swim_period = 50ms;
    auto svc =
        ElasticKvService::create(cluster, {"sim://ekv0", "sim://ekv1", "sim://ekv2"}, cfg);
    ASSERT_TRUE(svc.has_value());
    auto& kv = **svc;
    for (int i = 0; i < 120; ++i)
        ASSERT_TRUE(kv.put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    // Bottom-up protection: checkpoint all shards to the PFS (§7 Obs. 9).
    ASSERT_TRUE(kv.checkpoint_all().ok());
    // Kill a node hosting shards (hard crash).
    ASSERT_TRUE(cluster.crash_node("sim://ekv1").ok());
    // Top-down reaction: SWIM detects the death, the controller re-provisions
    // the lost shards from checkpoints on survivors (§7 Obs. 12).
    bool recovered = eventually([&] { return kv.recoveries() > 0; }, 10000ms);
    ASSERT_TRUE(recovered);
    bool all_placed = eventually([&] {
        auto layout = kv.layout();
        for (const auto& s : layout.shards())
            if (s.node == "sim://ekv1") return false;
        return true;
    });
    ASSERT_TRUE(all_placed);
    // All data is readable again (restored from the checkpoint).
    int readable = 0;
    for (int i = 0; i < 120; ++i)
        if (kv.get("k" + std::to_string(i)).has_value()) ++readable;
    EXPECT_EQ(readable, 120);
}

TEST(ElasticKv, WritesAfterCheckpointAreLostOnCrash) {
    // §7 Obs. 9: "the component at worst will lose the modifications done
    // since its last checkpoint. Depending on the use case, such a loss
    // could be acceptable." Verify the failure model is exactly that.
    Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 4;
    cfg.enable_resilience = true;
    cfg.swim_period = 50ms;
    auto svc = ElasticKvService::create(cluster, {"sim://ekv0", "sim://ekv1"}, cfg);
    ASSERT_TRUE(svc.has_value());
    auto& kv = **svc;
    ASSERT_TRUE(kv.put("early", "checkpointed").ok());
    ASSERT_TRUE(kv.checkpoint_all().ok());
    // Find which node holds "late"'s shard, write it, then crash that node.
    auto layout = kv.layout(); // pre-crash placement
    std::string victim = layout.shard_for_key("late").node;
    ASSERT_TRUE(kv.put("late", "not-checkpointed").ok());
    ASSERT_TRUE(cluster.crash_node(victim).ok());
    bool recovered = eventually([&] { return kv.recoveries() > 0; }, 10000ms);
    ASSERT_TRUE(recovered);
    std::this_thread::sleep_for(200ms);
    // "early" survived iff its shard was checkpointed (it was).
    if (layout.shard_for_key("early").node == victim) {
        EXPECT_EQ(*kv.get("early"), "checkpointed");
    }
    // "late" was written after the checkpoint on the crashed node: lost.
    if (layout.shard_for_key("late").node == victim) {
        EXPECT_FALSE(kv.get("late").has_value());
    }
}

TEST(ElasticKvClientProtocol, StaleLayoutRepairOnMigration) {
    // A detached client caches the layout; after the service rebalances its
    // first op with a stale epoch is rejected (piggybacked hint) or lands on
    // a node that lost the provider — either way it transparently repairs
    // its cache and retries.
    Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 8;
    cfg.enable_swim = false;
    auto svc = ElasticKvService::create(cluster, {"sim://ekv0", "sim://ekv1"}, cfg);
    ASSERT_TRUE(svc.has_value());
    auto& kv = **svc;
    auto app = margo::Instance::create(cluster.fabric(), "sim://app").value();
    ElasticKvClient client{app, kv.controller_address()};
    for (int i = 0; i < 64; ++i)
        ASSERT_TRUE(client.put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    auto v1 = client.cached_version();
    std::size_t refreshes_before = client.refreshes();
    // The service scales; shards move; the client's layout goes stale.
    ASSERT_TRUE(kv.scale_up("sim://ekv2").ok());
    // Every key remains reachable through transparent repair-and-retry.
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(*client.get("k" + std::to_string(i)), "v" + std::to_string(i)) << i;
    // The cache advanced — through a piggybacked stale-epoch repair (zero
    // extra RPCs) or, when the provider left the node entirely, one refresh.
    EXPECT_GT(client.cached_version(), v1);
    EXPECT_TRUE(client.stale_retries() > 0 || client.refreshes() > refreshes_before);
    // A missing key is still reported as NotFound, not retried forever.
    auto missing = client.get("never-written");
    ASSERT_FALSE(missing.has_value());
    EXPECT_EQ(missing.error().code, Error::Code::NotFound);
    app->shutdown();
}

TEST(ElasticKvClientProtocol, PiggybackedEpochRepairsWithoutDirectoryRpc) {
    // The headline property of the layout plane: after a shard *split* (the
    // parent provider stays put), a stale client is repaired entirely by the
    // layout blob riding inside the rejection — zero explicit layout RPCs.
    Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 4;
    cfg.enable_swim = false;
    auto svc = ElasticKvService::create(cluster, {"sim://ekv0", "sim://ekv1"}, cfg);
    ASSERT_TRUE(svc.has_value());
    auto& kv = **svc;
    auto app = margo::Instance::create(cluster.fabric(), "sim://app").value();
    ElasticKvClient client{app, kv.controller_address()};
    for (int i = 0; i < 64; ++i)
        ASSERT_TRUE(client.put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    std::size_t refreshes_before = client.refreshes(); // the bootstrap fetch
    auto v1 = client.cached_version();
    // Split every original shard once (children stay on the same node).
    for (std::uint32_t s = 0; s < 4; ++s)
        ASSERT_TRUE(kv.split_shard(s).has_value()) << s;
    EXPECT_EQ(kv.num_shards(), 8u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(*client.get("k" + std::to_string(i)), "v" + std::to_string(i)) << i;
    EXPECT_GT(client.cached_version(), v1);
    EXPECT_GT(client.stale_retries(), 0u);
    EXPECT_EQ(client.refreshes(), refreshes_before); // no directory round trips
    app->shutdown();
}

TEST(ElasticKv, SplitMovesBoundedFractionAndMergeRestores) {
    Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 4;
    cfg.enable_swim = false;
    auto svc = ElasticKvService::create(cluster, {"sim://ekv0", "sim://ekv1"}, cfg);
    ASSERT_TRUE(svc.has_value());
    auto& kv = **svc;
    const int n = 400;
    for (int i = 0; i < n; ++i)
        ASSERT_TRUE(kv.put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
    auto before = kv.layout();
    // Split shard 0 onto the *other* node (exercises the REMI path).
    std::uint32_t target = before.shards().front().id;
    std::string other = before.shards().front().node == "sim://ekv0" ? "sim://ekv1"
                                                                     : "sim://ekv0";
    auto plan = kv.split_shard(target, other);
    ASSERT_TRUE(plan.has_value()) << plan.error().message;
    EXPECT_EQ(kv.num_shards(), 5u);
    // Only keys in the bisected upper half moved: ≤ 2/num_shards of all keys
    // (expectation ~1/(2*4); the bound leaves room for hash variance).
    auto after = kv.layout();
    int moved = 0;
    for (int i = 0; i < n; ++i) {
        const std::string key = "key" + std::to_string(i);
        if (after.shard_for_key(key).id == plan->child) ++moved;
    }
    EXPECT_GT(moved, 0);
    EXPECT_LE(moved, 2 * n / 4);
    // Every key is still readable after the split...
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(*kv.get("key" + std::to_string(i)), "v" + std::to_string(i)) << i;
    // ...and after merging the child back into its predecessor.
    auto merge = kv.merge_shards(plan->child);
    ASSERT_TRUE(merge.has_value()) << merge.error().message;
    EXPECT_EQ(merge->survivor, plan->parent);
    EXPECT_EQ(kv.num_shards(), 4u);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(*kv.get("key" + std::to_string(i)), "v" + std::to_string(i)) << i;
}

TEST(ElasticKv, WeightedRebalanceFollowsWeights) {
    Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 8;
    cfg.enable_swim = false;
    auto svc = ElasticKvService::create(cluster, {"sim://ekv0", "sim://ekv1"}, cfg);
    ASSERT_TRUE(svc.has_value());
    auto& kv = **svc;
    for (int i = 0; i < 64; ++i)
        ASSERT_TRUE(kv.put("k" + std::to_string(i), "v").ok());
    // All weight on node 0: every shard must end up there.
    ASSERT_TRUE(kv.rebalance_weighted({{"sim://ekv0", 1.0}, {"sim://ekv1", 0.0}}).ok());
    const Layout layout = kv.layout();
    for (const auto& s : layout.shards()) EXPECT_EQ(s.node, "sim://ekv0");
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(*kv.get("k" + std::to_string(i)), "v") << i;
}

TEST(ElasticKvClientProtocol, DetachedClientFetchesLayoutFromGroupMember) {
    Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 4;
    cfg.enable_swim = false;
    auto svc = ElasticKvService::create(cluster, {"sim://ekv0", "sim://ekv1"}, cfg);
    ASSERT_TRUE(svc.has_value());
    auto& kv = **svc;
    ASSERT_TRUE(kv.put("hello", "world").ok());
    auto app = margo::Instance::create(cluster.fabric(), "sim://app2").value();
    ElasticKvClient client{app, kv.controller_address()};
    // Bootstrap from an SSG member instead of the controller: the layout
    // was published into the group as its payload.
    ASSERT_TRUE(client.refresh_from_member("sim://ekv0").ok());
    EXPECT_EQ(client.cached_version(), kv.epoch());
    EXPECT_EQ(*client.get("hello"), "world");
    app->shutdown();
}

TEST(ElasticKvClientProtocol, SurvivesNodeRemoval) {
    Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 8;
    cfg.enable_swim = false;
    auto svc =
        ElasticKvService::create(cluster, {"sim://ekv0", "sim://ekv1", "sim://ekv2"}, cfg);
    ASSERT_TRUE(svc.has_value());
    auto& kv = **svc;
    auto app = margo::Instance::create(cluster.fabric(), "sim://app").value();
    ElasticKvClient client{app, kv.controller_address()};
    for (int i = 0; i < 64; ++i)
        ASSERT_TRUE(client.put("k" + std::to_string(i), "v").ok());
    // The node the client may be caching routes to disappears entirely.
    ASSERT_TRUE(kv.scale_down("sim://ekv1").ok());
    for (int i = 0; i < 64; ++i)
        EXPECT_TRUE(client.get("k" + std::to_string(i)).has_value()) << i;
    app->shutdown();
}

// ---------------------------------------------------------------------------
// §7's top-down pattern: "a set of RAFT-replicated 'controller' providers
// apply the same commands to an underlying collection of other, nonresilient
// Mochi components."
// ---------------------------------------------------------------------------

namespace {

/// A controller state machine: RAFT replicates *orchestration commands*
/// ("start:<shard>@<node>"); an executor applies them to the underlying
/// Bedrock-managed (and themselves non-resilient) components. Execution is
/// idempotent, so any replica (here: whoever holds leadership when the
/// command commits) may act.
class ControllerSm : public raft::StateMachine {
  public:
    explicit ControllerSm(margo::InstancePtr client) : m_client(std::move(client)) {}

    std::string apply(const std::string& command) override {
        std::lock_guard lk{m_mutex};
        m_log.push_back(command);
        return std::to_string(m_log.size());
    }
    std::string snapshot() const override {
        std::lock_guard lk{m_mutex};
        return mercury::pack(m_log);
    }
    Status restore(const std::string& snap) override {
        std::lock_guard lk{m_mutex};
        if (!mercury::unpack(snap, m_log))
            return Error{Error::Code::Corruption, "bad controller snapshot"};
        return {};
    }
    std::vector<std::string> commands() const {
        std::lock_guard lk{m_mutex};
        return m_log;
    }

  private:
    margo::InstancePtr m_client;
    mutable std::mutex m_mutex;
    std::vector<std::string> m_log;
};

} // namespace

TEST(ReplicatedController, ControllersAgreeOnOrchestrationCommands) {
    yokan::register_module();
    remi::register_module();
    Cluster cluster;
    // The underlying, non-resilient worker process.
    auto worker_cfg = json::Value::parse(R"({
        "libraries": {"yokan": "libyokan.so"}
    })").value();
    auto worker = cluster.spawn_node("sim://worker", worker_cfg);
    ASSERT_TRUE(worker.has_value());

    // Three RAFT-replicated controllers.
    std::vector<std::string> ctl_addrs = {"sim://ctl0", "sim://ctl1", "sim://ctl2"};
    for (auto& a : ctl_addrs) remi::SimFileStore::destroy_node(a);
    raft::RaftConfig rcfg = fast_raft();
    std::vector<margo::InstancePtr> ctl_margo;
    std::vector<std::shared_ptr<ControllerSm>> machines;
    std::vector<std::shared_ptr<raft::Provider>> rafts;
    for (auto& a : ctl_addrs) {
        auto m = margo::Instance::create(cluster.fabric(), a).value();
        auto sm = std::make_shared<ControllerSm>(m);
        rafts.push_back(raft::Provider::create(m, 5, ctl_addrs, sm, rcfg));
        ctl_margo.push_back(m);
        machines.push_back(sm);
    }
    auto app = margo::Instance::create(cluster.fabric(), "sim://ctl-app").value();
    raft::Client ctl{app, ctl_addrs, 5};

    // Orchestration commands go through consensus...
    ASSERT_TRUE(ctl.submit("start:shardA@sim://worker").has_value());
    ASSERT_TRUE(ctl.submit("start:shardB@sim://worker").has_value());
    // ...and the (idempotent) executor applies them to the worker. Here the
    // test acts as the executor of the committed command log, exactly once.
    bool agreed = eventually([&] {
        for (auto& sm : machines)
            if (sm->commands().size() != 2) return false;
        return true;
    });
    ASSERT_TRUE(agreed);
    for (const auto& cmd : machines[0]->commands()) {
        auto colon = cmd.find(':');
        auto at = cmd.find('@');
        std::string shard = cmd.substr(colon + 1, at - colon - 1);
        auto desc = json::Value::object();
        desc["name"] = shard;
        desc["type"] = "yokan";
        desc["provider_id"] =
            static_cast<std::int64_t>(300 + (shard.back() - 'A'));
        auto st = (*worker)->start_provider(desc);
        EXPECT_TRUE(st.ok() || st.error().code == Error::Code::AlreadyExists);
    }
    EXPECT_TRUE((*worker)->has_provider("shardA"));
    EXPECT_TRUE((*worker)->has_provider("shardB"));
    // Crash a controller: the command log survives on the remaining two.
    rafts[0]->stop();
    rafts[0].reset();
    ctl_margo[0]->shutdown();
    ASSERT_TRUE(ctl.submit("start:shardC@sim://worker").has_value());
    bool survived = eventually([&] {
        return machines[1]->commands().size() == 3 && machines[2]->commands().size() == 3;
    });
    EXPECT_TRUE(survived);
    app->shutdown();
    for (std::size_t i = 1; i < rafts.size(); ++i) {
        rafts[i]->stop();
        ctl_margo[i]->shutdown();
    }
}

// ---------------------------------------------------------------------------
// Batched paths through the composed services
// ---------------------------------------------------------------------------

TEST(ReplicatedKv, PutMultiIsOneLogEntry) {
    ReplicatedKvWorld w{3};
    ReplicatedKvClient kv{w.client_margo, w.addresses, 7};
    // Warm up and find the leader's log position.
    ASSERT_TRUE(kv.put("warmup", "x").ok());
    raft::Provider* leader = nullptr;
    for (auto& r : w.replicas)
        if (r.raft && r.raft->role() == raft::Role::Leader) leader = r.raft.get();
    ASSERT_NE(leader, nullptr);
    auto before = leader->last_log_index();
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < 25; ++i)
        pairs.emplace_back("bk" + std::to_string(i), "bv" + std::to_string(i));
    ASSERT_TRUE(kv.put_multi(pairs).ok());
    // The whole batch consumed exactly ONE consensus slot.
    EXPECT_EQ(leader->last_log_index(), before + 1);
    EXPECT_EQ(*kv.get("bk24"), "bv24");
    // The 'B' entry applies atomically on every replica.
    bool ok = eventually([&] {
        for (auto& r : w.replicas)
            if (r.machine->backend().count() != 26) return false;
        return true;
    });
    EXPECT_TRUE(ok);
}

TEST(ReplicatedKv, GetMultiIsLinearizableBatch) {
    ReplicatedKvWorld w{3};
    ReplicatedKvClient kv{w.client_margo, w.addresses, 7};
    ASSERT_TRUE(kv.put_multi({{"a", "1"}, {"b", "2"}, {"c", "3"}}).ok());
    auto values = kv.get_multi({"a", "missing", "c"});
    ASSERT_TRUE(values.has_value()) << values.error().message;
    ASSERT_EQ(values->size(), 3u);
    EXPECT_EQ(*(*values)[0], "1");
    EXPECT_FALSE((*values)[1].has_value());
    EXPECT_EQ(*(*values)[2], "3");
    // Empty batches short-circuit.
    EXPECT_TRUE(kv.put_multi({}).ok());
    auto none = kv.get_multi({});
    ASSERT_TRUE(none.has_value());
    EXPECT_TRUE(none->empty());
}

TEST(ElasticKvClientProtocol, BatchedOpsFanOutByShardAndSurviveRescale) {
    Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 8;
    cfg.enable_swim = false;
    auto svc = ElasticKvService::create(cluster, {"sim://ekv0", "sim://ekv1"}, cfg);
    ASSERT_TRUE(svc.has_value());
    auto& kv = **svc;
    auto app = margo::Instance::create(cluster.fabric(), "sim://app").value();
    ElasticKvClient client{app, kv.controller_address()};
    std::vector<std::pair<std::string, std::string>> pairs;
    std::vector<std::string> keys;
    for (int i = 0; i < 64; ++i) {
        pairs.emplace_back("mk" + std::to_string(i), "mv" + std::to_string(i));
        keys.push_back("mk" + std::to_string(i));
    }
    ASSERT_TRUE(client.put_multi(pairs).ok());
    auto values = client.get_multi(keys);
    ASSERT_TRUE(values.has_value()) << values.error().message;
    ASSERT_EQ(values->size(), keys.size());
    for (int i = 0; i < 64; ++i) EXPECT_EQ(*(*values)[i], "mv" + std::to_string(i)) << i;
    // Shards move; the batched paths must notice the stale layout (via a
    // piggybacked epoch hint or a vanished provider), repair the cache, and
    // re-send only the failed shard groups.
    std::size_t refreshes_before = client.refreshes();
    ASSERT_TRUE(kv.scale_up("sim://ekv2").ok());
    ASSERT_TRUE(client.put_multi({{"post-scale", "yes"}}).ok());
    auto again = client.get_multi(keys);
    ASSERT_TRUE(again.has_value()) << again.error().message;
    for (int i = 0; i < 64; ++i) EXPECT_EQ(*(*again)[i], "mv" + std::to_string(i)) << i;
    EXPECT_GE(client.refreshes(), refreshes_before);
    // Missing keys come back empty rather than erroring the batch.
    auto mixed = client.get_multi({"mk0", "never-written"});
    ASSERT_TRUE(mixed.has_value());
    EXPECT_TRUE((*mixed)[0].has_value());
    EXPECT_FALSE((*mixed)[1].has_value());
    app->shutdown();
}

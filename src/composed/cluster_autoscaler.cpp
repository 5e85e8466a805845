#include "composed/cluster_autoscaler.hpp"
#include "bedrock/client.hpp"
#include "common/logging.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace mochi::composed {

// ---------------------------------------------------------------------------
// AutoscalePolicy
// ---------------------------------------------------------------------------

namespace {

/// A shard's load: served ops plus epoch-guard rejections (rejected work
/// still hit the provider and still signals client pressure on the range).
double shard_load(const ShardStats& s) { return s.ops + s.stale_rejections; }

} // namespace

bool AutoscalePolicy::streak(std::map<std::string, std::size_t>& streaks,
                             const std::string& key, bool active) {
    if (!active) {
        streaks.erase(key);
        return false;
    }
    return ++streaks[key] >= m_cfg.hysteresis;
}

Action AutoscalePolicy::fire(Action a) {
    // One action per window: restart damping from scratch so the *next*
    // signal has to prove itself against the post-action load distribution,
    // not against streaks accumulated before the topology changed.
    m_cooldown = m_cfg.cooldown;
    m_hot_shards.clear();
    m_cold_shards.clear();
    m_pressure.clear();
    m_cold_nodes.clear();
    return a;
}

Action AutoscalePolicy::decide(const ClusterSnapshot& snap) {
    if (m_cooldown > 0) {
        // Streaks are frozen during cooldown: the periods right after a
        // reconfiguration observe a cluster still settling (migrations,
        // rebalanced routes) and must not count toward the next action.
        --m_cooldown;
        return {};
    }
    if (snap.shards.empty() || snap.nodes.empty()) return {};

    double total = 0;
    for (const auto& s : snap.shards) total += shard_load(s);
    if (total < m_cfg.min_total_ops) {
        // Idle cluster: every shard looks "cold" relative to a near-zero
        // mean, which must not trigger merges. Decay instead of acting.
        m_hot_shards.clear();
        m_cold_shards.clear();
        m_pressure.clear();
        m_cold_nodes.clear();
        return {};
    }
    double node_total = 0;
    for (const auto& n : snap.nodes) node_total += n.ops;
    const double node_mean = node_total / static_cast<double>(snap.nodes.size());

    // A shard is judged against the mean of the *other* shards: an outlier
    // cannot hide inside a mean it dominates (with N shards, load/mean is
    // bounded by N, so a self-inclusive mean would blind the policy to the
    // hottest shard whenever hot_shard_factor >= N).
    auto mean_of_others = [&](const ShardStats& s) {
        if (snap.shards.size() <= 1) return shard_load(s);
        return (total - shard_load(s)) / static_cast<double>(snap.shards.size() - 1);
    };
    auto is_hot = [&](const ShardStats& s) {
        return snap.shards.size() > 1 &&
               shard_load(s) > m_cfg.hot_shard_factor * mean_of_others(s) &&
               shard_load(s) >= m_cfg.min_hot_ops;
    };
    const bool any_hot =
        std::any_of(snap.shards.begin(), snap.shards.end(), is_hot);

    // 1. Split the hottest shard whose load has stayed above the high
    //    watermark for the hysteresis window. The streak tracks the load
    //    signal itself; max_shards only gates the action, so a capped ring
    //    does not fall through to a merge that would worsen the imbalance.
    const ShardStats* hottest = nullptr;
    for (const auto& s : snap.shards) {
        if (streak(m_hot_shards, "shard:" + std::to_string(s.id), is_hot(s)) &&
            snap.shards.size() < m_cfg.max_shards &&
            (hottest == nullptr || shard_load(s) > shard_load(*hottest)))
            hottest = &s;
    }
    if (hottest != nullptr) {
        // Place the child half on the least-loaded *other* node so the
        // split actually sheds load instead of doubling down on the host.
        std::string child;
        double best = 0;
        for (const auto& n : snap.nodes) {
            if (n.address == hottest->node) continue;
            if (child.empty() || n.ops < best) {
                child = n.address;
                best = n.ops;
            }
        }
        return fire({ActionKind::SplitShard, hottest->id, child});
    }

    // 2. Grow the node set while any pool queue stays beyond the depth
    //    watermark (per-node utilization signal, not per-shard).
    bool pressure = std::any_of(snap.nodes.begin(), snap.nodes.end(), [&](const NodeStats& n) {
        return n.pool_depth > m_cfg.node_add_depth || n.shed >= m_cfg.shed_pressure_min;
    });
    if (streak(m_pressure, "node", pressure) &&
        (m_cfg.max_nodes == 0 || snap.nodes.size() < m_cfg.max_nodes))
        return fire({ActionKind::AddNode, 0, {}});

    // 3. Merge the coldest shard (into its ring predecessor) once it has
    //    stayed below the low watermark. Reclamation is suppressed while
    //    any shard runs hot — shrinking a stressed ring only concentrates
    //    the stress — and the wide gap between hot_shard_factor and
    //    cold_shard_factor is the anti-flap dead band: a merge's survivor
    //    cannot immediately re-qualify as hot.
    const ShardStats* coldest = nullptr;
    for (const auto& s : snap.shards) {
        bool cold = !any_hot && snap.shards.size() > m_cfg.min_shards &&
                    shard_load(s) < m_cfg.cold_shard_factor * mean_of_others(s);
        if (streak(m_cold_shards, "shard:" + std::to_string(s.id), cold) &&
            (coldest == nullptr || shard_load(s) < shard_load(*coldest)))
            coldest = &s;
    }
    if (coldest != nullptr) return fire({ActionKind::MergeShard, coldest->id, {}});

    // 4. Release a node whose share of the traffic has stayed negligible
    //    (its shards migrate away first; membership shrinks afterwards).
    //    Same suppression: never shed capacity under hot-shard or queueing
    //    pressure.
    const NodeStats* idle = nullptr;
    for (const auto& n : snap.nodes) {
        bool cold = !any_hot && !pressure && snap.nodes.size() > m_cfg.min_nodes &&
                    n.ops < m_cfg.cold_node_factor * node_mean;
        if (streak(m_cold_nodes, n.address, cold) && (idle == nullptr || n.ops < idle->ops))
            idle = &n;
    }
    if (idle != nullptr) return fire({ActionKind::RemoveNode, 0, idle->address});

    return {};
}

// ---------------------------------------------------------------------------
// ClusterAutoscaler
// ---------------------------------------------------------------------------

ClusterAutoscaler::ClusterAutoscaler(Cluster& cluster, ElasticKvService& service,
                                     ClusterAutoscalerConfig config,
                                     flux::ResourceManager* flux, flux::JobId job)
: m_cluster(cluster), m_service(service), m_config(config), m_flux(flux), m_job(job),
  m_policy(config.policy) {
    static std::atomic<std::uint64_t> g_seq{0};
    auto inst = margo::Instance::create(
        m_cluster.fabric(), "sim://autoscaler" + std::to_string(g_seq.fetch_add(1)));
    assert(inst.has_value());
    m_instance = std::move(inst).value();
}

ClusterAutoscaler::~ClusterAutoscaler() {
    stop();
    if (m_instance) m_instance->shutdown();
}

void ClusterAutoscaler::start() {
    if (m_running.exchange(true)) return;
    m_thread = std::thread([this] { control_loop(); });
}

void ClusterAutoscaler::stop() {
    m_running.store(false);
    if (m_thread.joinable()) m_thread.join();
}

void ClusterAutoscaler::control_loop() {
    while (m_running.load()) {
        (void)step();
        // Sleep in small slices so stop() never waits a full period.
        auto remaining = m_config.period;
        constexpr auto k_slice = std::chrono::milliseconds(5);
        while (m_running.load() && remaining.count() > 0) {
            auto nap = std::min<std::chrono::milliseconds>(k_slice, remaining);
            std::this_thread::sleep_for(nap);
            remaining -= nap;
        }
    }
}

ClusterSnapshot ClusterAutoscaler::scrape() {
    ClusterSnapshot snap;
    const Layout layout = m_service.layout();
    const std::vector<std::string> nodes = m_service.nodes();
    bedrock::Client client{m_instance};

    // Fresh cumulative counter values per node; deltas against m_prev are
    // this period's load. Gauges (pool depth, in-flight) are instantaneous.
    std::map<std::string, std::map<std::string, double>> current;
    for (const auto& address : nodes) {
        auto metrics = client.makeServiceHandle(address).getMetrics();
        if (!metrics) {
            // Unreachable (crashed/leaving) node: the resilience layer owns
            // it; the policy simply doesn't see it this period.
            std::lock_guard lk{m_stats_mutex};
            ++m_stats.failed_scrapes;
            continue;
        }
        NodeStats ns;
        ns.address = address;
        for (const auto& [name, value] : (*metrics)["gauges"].as_object()) {
            if (name.rfind("margo_pool_size_", 0) == 0)
                ns.pool_depth = std::max(ns.pool_depth, value.as_real());
            else if (name == "margo_in_flight_rpcs")
                ns.in_flight = value.as_real();
        }
        auto& cur = current[address];
        for (const auto& [name, value] : (*metrics)["counters"].as_object()) {
            const bool shard_counter = name.rfind("yokan_provider_", 0) == 0;
            // Tenant backpressure: tenant_<id>_shed_total deltas feed the
            // policy's pressure signal (see PolicyConfig::shed_pressure_min).
            const bool shed_counter =
                name.rfind("tenant_", 0) == 0 && name.size() >= 11 &&
                name.compare(name.size() - 11, 11, "_shed_total") == 0;
            if (shard_counter || shed_counter) cur[name] = value.as_real();
        }
        snap.nodes.push_back(std::move(ns));
    }

    auto delta = [&](const std::string& node, const std::string& name) -> double {
        auto nit = current.find(node);
        if (nit == current.end()) return 0;
        auto cit = nit->second.find(name);
        if (cit == nit->second.end()) return 0;
        auto pnode = m_prev.find(node);
        if (pnode == m_prev.end()) return 0; // first sight: lifetime != burst
        auto pit = pnode->second.find(name);
        double prev = pit == pnode->second.end() ? 0 : pit->second;
        return std::max(0.0, cit->second - prev);
    };

    for (auto& ns : snap.nodes) {
        auto nit = current.find(ns.address);
        if (nit == current.end()) continue;
        for (const auto& [name, value] : nit->second) {
            if (name.rfind("tenant_", 0) == 0) ns.shed += delta(ns.address, name);
        }
    }

    for (const auto& shard : layout.shards()) {
        const std::string prefix =
            "yokan_provider_" +
            std::to_string(ElasticKvService::shard_provider_id(shard.id));
        ShardStats ss;
        ss.id = shard.id;
        ss.node = shard.node;
        ss.ops = delta(shard.node, prefix + "_ops_total");
        ss.stale_rejections = delta(shard.node, prefix + "_stale_rejections_total");
        for (auto& ns : snap.nodes) {
            if (ns.address == shard.node) {
                ns.ops += ss.ops;
                ++ns.shards;
                break;
            }
        }
        snap.shards.push_back(std::move(ss));
    }

    for (auto& [node, counters] : current) m_prev[node] = std::move(counters);
    return snap;
}

Status ClusterAutoscaler::apply(const Action& action, const ClusterSnapshot& snapshot) {
    (void)snapshot;
    switch (action.kind) {
    case ActionKind::SplitShard: {
        auto plan = m_service.split_shard(action.shard, action.node);
        if (!plan) return plan.error();
        std::lock_guard lk{m_stats_mutex};
        ++m_stats.splits;
        return {};
    }
    case ActionKind::MergeShard: {
        auto plan = m_service.merge_shards(action.shard);
        if (!plan) return plan.error();
        std::lock_guard lk{m_stats_mutex};
        ++m_stats.merges;
        return {};
    }
    case ActionKind::AddNode: {
        std::string address;
        if (m_flux != nullptr) {
            auto granted = m_flux->grow(m_job, 1, m_config.grow_timeout);
            if (!granted) return granted.error();
            address = granted->front();
        } else {
            address = "sim://auto" + std::to_string(m_auto_names++);
        }
        if (auto st = m_service.scale_up(address); !st.ok()) {
            // Hand an unusable grant straight back so the inventory never
            // leaks nodes the service failed to occupy.
            if (m_flux != nullptr) (void)m_flux->shrink(m_job, {address});
            return st;
        }
        std::lock_guard lk{m_stats_mutex};
        ++m_stats.node_adds;
        return {};
    }
    case ActionKind::RemoveNode: {
        if (auto st = m_service.scale_down(action.node); !st.ok()) return st;
        if (m_flux != nullptr) (void)m_flux->shrink(m_job, {action.node});
        std::lock_guard lk{m_stats_mutex};
        ++m_stats.node_removes;
        return {};
    }
    case ActionKind::None: return {};
    }
    return {};
}

Action ClusterAutoscaler::step() {
    ClusterSnapshot snap = scrape();
    Action action = m_policy.decide(snap);
    {
        std::lock_guard lk{m_stats_mutex};
        ++m_stats.periods;
    }
    if (action.kind != ActionKind::None) {
        if (auto st = apply(action, snap); !st.ok()) {
            log::warn("autoscaler", "action failed: %s", st.error().message.c_str());
            std::lock_guard lk{m_stats_mutex};
            ++m_stats.failed_actions;
        }
    }
    return action;
}

ClusterAutoscaler::Stats ClusterAutoscaler::stats() const {
    std::lock_guard lk{m_stats_mutex};
    return m_stats;
}

} // namespace mochi::composed

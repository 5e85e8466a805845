// Tests for the Margo runtime: RPC round trips, provider routing (Figure 2),
// monitoring (Listing 1), online reconfiguration (Listing 2 / §5).
#include "margo/instance.hpp"
#include "margo/provider.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

using namespace mochi;
using namespace std::chrono_literals;

namespace {

json::Value parse(const char* text) {
    auto v = json::Value::parse(text);
    EXPECT_TRUE(v.has_value()) << text;
    return std::move(v).value();
}

struct TwoNodes {
    std::shared_ptr<mercury::Fabric> fabric = mercury::Fabric::create();
    margo::InstancePtr server;
    margo::InstancePtr client;

    TwoNodes(const json::Value& server_cfg = {}, const json::Value& client_cfg = {}) {
        server = margo::Instance::create(fabric, "sim://server", server_cfg).value();
        client = margo::Instance::create(fabric, "sim://client", client_cfg).value();
    }
    ~TwoNodes() {
        client->shutdown();
        server->shutdown();
    }
};

} // namespace

TEST(Margo, EchoRoundTrip) {
    TwoNodes nodes;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("echo", margo::k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(req.payload()); })
                    .has_value());
    auto resp = nodes.client->forward("sim://server", "echo", "hello margo");
    ASSERT_TRUE(resp.has_value()) << resp.error().message;
    EXPECT_EQ(*resp, "hello margo");
}

TEST(Margo, TypedCall) {
    TwoNodes nodes;
    auto ok = nodes.server->register_rpc(
        "math/add", margo::k_default_provider_id, [](const margo::Request& req) {
            std::int64_t a = 0, b = 0;
            ASSERT_TRUE(req.unpack(a, b));
            req.respond_values(a + b);
        });
    ASSERT_TRUE(ok.has_value());
    auto result = nodes.client->call<std::int64_t>("sim://server", "math/add", {},
                                                   std::int64_t{2}, std::int64_t{40});
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(std::get<0>(*result), 42);
}

TEST(Margo, UnknownRpcReturnsTypedNoSuchRpc) {
    TwoNodes nodes;
    auto resp = nodes.client->forward("sim://server", "nope", "");
    ASSERT_FALSE(resp.has_value());
    // Typed code: clients (e.g. elastic_kv routing) branch on it without
    // string matching, and it is distinct from a provider-level NotFound.
    EXPECT_EQ(resp.error().code, Error::Code::NoSuchRpc);
}

TEST(Margo, ProviderIdsRouteIndependently) {
    TwoNodes nodes;
    for (std::uint16_t pid : {1, 2}) {
        ASSERT_TRUE(nodes.server
                        ->register_rpc("which", pid,
                                       [pid](const margo::Request& req) {
                                           req.respond("provider " + std::to_string(pid));
                                       })
                        .has_value());
    }
    margo::ForwardOptions opts;
    opts.provider_id = 2;
    EXPECT_EQ(*nodes.client->forward("sim://server", "which", "", opts), "provider 2");
    opts.provider_id = 1;
    EXPECT_EQ(*nodes.client->forward("sim://server", "which", "", opts), "provider 1");
    opts.provider_id = 3; // not registered
    auto missing = nodes.client->forward("sim://server", "which", "", opts);
    EXPECT_FALSE(missing.has_value());
}

TEST(Margo, RemoteErrorPropagates) {
    TwoNodes nodes;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("fail", margo::k_default_provider_id,
                                   [](const margo::Request& req) {
                                       req.respond_error(
                                           Error{Error::Code::PermissionDenied, "nope"});
                                   })
                    .has_value());
    auto resp = nodes.client->forward("sim://server", "fail", "");
    ASSERT_FALSE(resp.has_value());
    EXPECT_EQ(resp.error().code, Error::Code::PermissionDenied);
    EXPECT_EQ(resp.error().message, "nope");
}

TEST(Margo, ForwardToCrashedServerTimesOutOrUnreachable) {
    auto fabric = mercury::Fabric::create();
    auto server = margo::Instance::create(fabric, "sim://server").value();
    auto client = margo::Instance::create(fabric, "sim://client").value();
    server->shutdown(); // crash
    margo::ForwardOptions opts;
    opts.timeout = 100ms;
    auto resp = client->forward("sim://server", "echo", "x", opts);
    ASSERT_FALSE(resp.has_value());
    EXPECT_EQ(resp.error().code, Error::Code::Unreachable);
    client->shutdown();
}

TEST(Margo, PartitionCausesTimeout) {
    TwoNodes nodes;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("echo", margo::k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(req.payload()); })
                    .has_value());
    nodes.fabric->cut("sim://client", "sim://server");
    margo::ForwardOptions opts;
    opts.timeout = 100ms;
    auto resp = nodes.client->forward("sim://server", "echo", "x", opts);
    ASSERT_FALSE(resp.has_value());
    EXPECT_EQ(resp.error().code, Error::Code::Timeout);
    nodes.fabric->heal_all();
    EXPECT_TRUE(nodes.client->forward("sim://server", "echo", "x").has_value());
}

TEST(Margo, SelfForwardWorks) {
    // A handler ULT calling an RPC on its own process must not deadlock
    // (handler suspends; the progress loop keeps running).
    TwoNodes nodes;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("inner", margo::k_default_provider_id,
                                   [](const margo::Request& req) { req.respond("inner-done"); })
                    .has_value());
    auto server = nodes.server;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("outer", margo::k_default_provider_id,
                                   [server](const margo::Request& req) {
                                       auto inner =
                                           server->forward("sim://server", "inner", "");
                                       req.respond(inner ? *inner : "fail");
                                   })
                    .has_value());
    auto resp = nodes.client->forward("sim://server", "outer", "");
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(*resp, "inner-done");
}

TEST(Margo, NestedForwardRecordsParentContext) {
    // Listing 1: stats of a nested RPC carry the parent RPC id.
    TwoNodes nodes;
    auto mid = margo::Instance::create(nodes.fabric, "sim://mid").value();
    ASSERT_TRUE(nodes.server
                    ->register_rpc("leaf", margo::k_default_provider_id,
                                   [](const margo::Request& req) { req.respond("ok"); })
                    .has_value());
    auto mid_copy = mid;
    ASSERT_TRUE(mid->register_rpc("relay", margo::k_default_provider_id,
                                  [mid_copy](const margo::Request& req) {
                                      auto r = mid_copy->forward("sim://server", "leaf", "");
                                      req.respond(r ? *r : "fail");
                                  })
                    .has_value());
    auto resp = nodes.client->forward("sim://mid", "relay", "");
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(*resp, "ok");
    // mid's origin-side stats for "leaf" should list "relay" as parent.
    auto stats = mid->monitoring_json();
    std::uint64_t relay_id = margo::rpc_name_to_id("relay");
    std::uint64_t leaf_id = margo::rpc_name_to_id("leaf");
    std::string key = std::to_string(relay_id) + ":65535:" + std::to_string(leaf_id) + ":65535";
    ASSERT_TRUE(stats["rpcs"].contains(key)) << stats.dump(2);
    EXPECT_EQ(stats["rpcs"][key]["parent_rpc_id"].as_integer(),
              static_cast<std::int64_t>(relay_id));
    mid->shutdown();
}

TEST(Margo, MonitoringStatisticsMatchListing1Shape) {
    TwoNodes nodes;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("echo", margo::k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(req.payload()); })
                    .has_value());
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(nodes.client->forward("sim://server", "echo", "x").has_value());

    // Target-side stats on the server. The response leaves the server from
    // inside the handler (respond()), so the client's last forward can
    // return a hair before the server's handler ULT records
    // on_handler_complete — wait for the stats to catch up instead of
    // racing them.
    std::uint64_t echo_id = margo::rpc_name_to_id("echo");
    std::string key = "65535:65535:" + std::to_string(echo_id) + ":65535";
    json::Value stats;
    for (int tries = 0; tries < 400; ++tries) {
        stats = nodes.server->monitoring_json();
        if (stats["rpcs"].contains(key) &&
            stats["rpcs"][key]["target"]["received from sim://client"]["ult"]["duration"]["num"]
                    .as_integer() == 3)
            break;
        std::this_thread::sleep_for(5ms);
    }
    ASSERT_TRUE(stats["rpcs"].contains(key)) << stats.dump(2);
    const auto& rpc = stats["rpcs"][key];
    EXPECT_EQ(rpc["name"].as_string(), "echo");
    EXPECT_EQ(rpc["rpc_id"].as_integer(), static_cast<std::int64_t>(echo_id));
    EXPECT_EQ(rpc["provider_id"].as_integer(), 65535);
    const auto& target = rpc["target"]["received from sim://client"];
    EXPECT_EQ(target["ult"]["duration"]["num"].as_integer(), 3);
    EXPECT_GE(target["ult"]["duration"]["max"].as_real(),
              target["ult"]["duration"]["avg"].as_real());

    // Origin-side stats on the client.
    auto cstats = nodes.client->monitoring_json();
    ASSERT_TRUE(cstats["rpcs"].contains(key)) << cstats.dump(2);
    const auto forward_num = static_cast<std::uint64_t>(
        cstats["rpcs"][key]["origin"]["sent to sim://server"]["forward"]["duration"]["num"]
            .as_integer());
    EXPECT_EQ(forward_num, 3u);

    // One monitor feeds both views: the margo_* metrics count exactly the
    // events the Listing 1 document counts.
    auto& cm = *nodes.client->metrics();
    EXPECT_EQ(cm.counter("margo_rpc_forwards_total").value(), forward_num);
    EXPECT_EQ(cm.histogram("margo_rpc_forward_latency_us").count(), forward_num);
    const auto ult_num = static_cast<std::uint64_t>(target["ult"]["duration"]["num"].as_integer());
    auto& sm = *nodes.server->metrics();
    EXPECT_EQ(sm.counter("margo_rpc_handled_total").value(), ult_num);
    EXPECT_EQ(sm.histogram("margo_rpc_handler_duration_us").count(), ult_num);
    EXPECT_EQ(sm.histogram("margo_rpc_queue_delay_us").count(), ult_num);
}

TEST(Margo, ProgressSamplerTracksPoolsAndInflight) {
    auto cfg = parse(R"({"monitoring": {"sampling_period_ms": 10}})");
    TwoNodes nodes{cfg, cfg};
    std::this_thread::sleep_for(100ms);
    auto stats = nodes.server->monitoring_json();
    EXPECT_GE(stats["progress"]["samples"].as_integer(), 3);
    EXPECT_TRUE(stats["progress"]["pools"].contains("__primary__")) << stats.dump(2);
}

TEST(Margo, MonitoringCanBeDisabled) {
    TwoNodes nodes;
    nodes.server->set_monitoring_enabled(false);
    ASSERT_TRUE(nodes.server
                    ->register_rpc("echo", margo::k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(req.payload()); })
                    .has_value());
    ASSERT_TRUE(nodes.client->forward("sim://server", "echo", "x").has_value());
    auto stats = nodes.server->monitoring_json();
    EXPECT_EQ(stats["rpcs"].size(), 0u) << stats.dump(2);
    EXPECT_EQ(nodes.server->metrics()->counter("margo_rpc_handled_total").value(), 0u);
}

TEST(Margo, CustomMonitorCallbacksFire) {
    struct CountingMonitor : margo::Monitor {
        std::atomic<int> received{0}, started{0}, completed{0};
        void on_request_received(const margo::CallContext&) override { ++received; }
        void on_handler_start(const margo::CallContext&) override { ++started; }
        void on_handler_complete(const margo::CallContext&) override { ++completed; }
    };
    TwoNodes nodes;
    auto mon = std::make_shared<CountingMonitor>();
    nodes.server->add_monitor(mon);
    ASSERT_TRUE(nodes.server
                    ->register_rpc("echo", margo::k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(req.payload()); })
                    .has_value());
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(nodes.client->forward("sim://server", "echo", "x").has_value());
    // The last on_handler_complete races the client's return (the response
    // is sent from inside the handler); wait instead of sampling.
    for (int tries = 0; tries < 400 && mon->completed.load() != 5; ++tries)
        std::this_thread::sleep_for(5ms);
    EXPECT_EQ(mon->received.load(), 5);
    EXPECT_EQ(mon->started.load(), 5);
    EXPECT_EQ(mon->completed.load(), 5);
}

TEST(Margo, RpcPoolRouting) {
    // Figure 2: RPCs for provider A go to pool X, provider C to pool Y.
    auto cfg = parse(R"({
      "argobots": {
        "pools": [{"name":"PoolX","type":"fifo_wait"},
                   {"name":"PoolY","type":"fifo_wait"},
                   {"name":"PoolZ","type":"fifo_wait"}],
        "xstreams": [{"name":"ES0","scheduler":{"pools":["PoolX"]}},
                      {"name":"ES1","scheduler":{"pools":["PoolY","PoolZ"]}}]
      },
      "progress_pool": "PoolZ",
      "handler_pool": "PoolX"
    })");
    TwoNodes nodes{cfg};
    auto poolx = nodes.server->find_pool_by_name("PoolX").value();
    auto pooly = nodes.server->find_pool_by_name("PoolY").value();
    std::atomic<std::uint64_t> hits_x{0}, hits_y{0};
    ASSERT_TRUE(nodes.server
                    ->register_rpc("on_x", 1,
                                   [&](const margo::Request& req) {
                                       ++hits_x;
                                       req.respond("");
                                   },
                                   poolx)
                    .has_value());
    ASSERT_TRUE(nodes.server
                    ->register_rpc("on_y", 2,
                                   [&](const margo::Request& req) {
                                       ++hits_y;
                                       req.respond("");
                                   },
                                   pooly)
                    .has_value());
    margo::ForwardOptions ox;
    ox.provider_id = 1;
    margo::ForwardOptions oy;
    oy.provider_id = 2;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(nodes.client->forward("sim://server", "on_x", "", ox).has_value());
        ASSERT_TRUE(nodes.client->forward("sim://server", "on_y", "", oy).has_value());
    }
    EXPECT_EQ(hits_x.load(), 4u);
    EXPECT_EQ(hits_y.load(), 4u);
    EXPECT_GE(poolx->total_pushed(), 4u);
    EXPECT_GE(pooly->total_pushed(), 4u);
}

TEST(Margo, OnlineReconfigurationAddRemovePoolAndXstream) {
    TwoNodes nodes;
    // find_pool_by_name / add_pool_from_json (§5 API).
    EXPECT_TRUE(nodes.server->find_pool_by_name("__primary__").has_value());
    auto added = nodes.server->add_pool_from_json(
        parse(R"({"name":"MyPoolX","type":"fifo_wait","access":"mpmc"})"));
    ASSERT_TRUE(added.has_value());
    // Margo rejects duplicates.
    EXPECT_FALSE(nodes.server->add_pool_from_json(parse(R"({"name":"MyPoolX"})")).has_value());
    // New xstream serving the new pool; handlers can use it immediately.
    ASSERT_TRUE(nodes.server
                    ->add_xstream_from_json(
                        parse(R"({"name":"MyES","scheduler":{"pools":["MyPoolX"]}})"))
                    .ok());
    auto pool = nodes.server->find_pool_by_name("MyPoolX").value();
    ASSERT_TRUE(nodes.server
                    ->register_rpc("dyn", 9,
                                   [](const margo::Request& req) { req.respond("dyn"); }, pool)
                    .has_value());
    margo::ForwardOptions opts;
    opts.provider_id = 9;
    EXPECT_EQ(*nodes.client->forward("sim://server", "dyn", "", opts), "dyn");
    // remove_pool refuses while an RPC uses it.
    auto st = nodes.server->remove_pool("MyPoolX");
    EXPECT_FALSE(st.ok());
    // After deregistration and xstream removal it succeeds.
    EXPECT_TRUE(nodes.server->deregister_rpc("dyn", 9).ok());
    EXPECT_TRUE(nodes.server->remove_xstream("MyES").ok());
    EXPECT_TRUE(nodes.server->remove_pool("MyPoolX").ok());
    // Progress pool is protected.
    EXPECT_FALSE(nodes.server->remove_pool("__primary__").ok());
}

TEST(Margo, ConfigRoundTripsAndContainsArgobots) {
    TwoNodes nodes;
    auto cfg = nodes.server->config();
    EXPECT_EQ(cfg["address"].as_string(), "sim://server");
    EXPECT_TRUE(cfg["argobots"]["pools"].is_array());
    EXPECT_TRUE(cfg["argobots"]["xstreams"].is_array());
    EXPECT_EQ(cfg["progress_pool"].as_string(), "__primary__");
}

TEST(Margo, DeregisterProviderRemovesAllItsRpcs) {
    TwoNodes nodes;
    ASSERT_TRUE(nodes.server->register_rpc("a", 5, [](const margo::Request& r) { r.respond(""); })
                    .has_value());
    ASSERT_TRUE(nodes.server->register_rpc("b", 5, [](const margo::Request& r) { r.respond(""); })
                    .has_value());
    ASSERT_TRUE(nodes.server->register_rpc("a", 6, [](const margo::Request& r) { r.respond(""); })
                    .has_value());
    nodes.server->deregister_provider(5);
    margo::ForwardOptions o5;
    o5.provider_id = 5;
    EXPECT_FALSE(nodes.client->forward("sim://server", "a", "", o5).has_value());
    margo::ForwardOptions o6;
    o6.provider_id = 6;
    EXPECT_TRUE(nodes.client->forward("sim://server", "a", "", o6).has_value());
}

TEST(Margo, ConcurrentForwardsFromManyUlts) {
    auto cfg = parse(R"({
      "argobots": {
        "pools": [{"name":"p","type":"fifo_wait"}],
        "xstreams": [{"name":"x0","scheduler":{"pools":["p"]}},
                      {"name":"x1","scheduler":{"pools":["p"]}}]
      }
    })");
    TwoNodes nodes{cfg, cfg};
    std::atomic<std::uint64_t> sum{0};
    ASSERT_TRUE(nodes.server
                    ->register_rpc("inc", margo::k_default_provider_id,
                                   [](const margo::Request& req) {
                                       std::uint64_t v = 0;
                                       ASSERT_TRUE(req.unpack(v));
                                       req.respond_values(v + 1);
                                   })
                    .has_value());
    constexpr int k_ults = 16, k_calls = 20;
    std::vector<abt::ThreadHandle> handles;
    auto client = nodes.client;
    for (int i = 0; i < k_ults; ++i) {
        handles.push_back(client->runtime()->post_thread(client->runtime()->primary_pool(),
                                                         [client, &sum] {
            for (int j = 0; j < k_calls; ++j) {
                auto r = client->call<std::uint64_t>("sim://server", "inc", {},
                                                     static_cast<std::uint64_t>(j));
                ASSERT_TRUE(r.has_value());
                sum += std::get<0>(*r);
            }
        }));
    }
    for (auto& h : handles) h.join();
    // sum of (j+1) for j in [0,20) per ULT
    EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(k_ults) * (k_calls * (k_calls + 1) / 2));
}

TEST(Margo, BulkThroughInstance) {
    TwoNodes nodes;
    std::vector<char> server_buf(1024, 'S');
    auto handle = nodes.server->expose(server_buf.data(), server_buf.size(), true);
    std::vector<char> local(1024);
    ASSERT_TRUE(nodes.client->bulk_pull(handle, 0, local.data(), local.size()).ok());
    EXPECT_EQ(local[0], 'S');
    EXPECT_EQ(local[1023], 'S');
    std::vector<char> payload(512, 'C');
    ASSERT_TRUE(nodes.client->bulk_push(handle, 256, payload.data(), payload.size()).ok());
    EXPECT_EQ(server_buf[256], 'C');
    EXPECT_EQ(server_buf[255], 'S');
    // Bulk ops show up in monitoring.
    auto stats = nodes.client->monitoring_json();
    bool has_bulk = false;
    for (const auto& [k, v] : stats["rpcs"].as_object())
        if (v.contains("bulk")) has_bulk = true;
    EXPECT_TRUE(has_bulk);
}

TEST(Margo, ShutdownCancelsPendingCalls) {
    TwoNodes nodes;
    // Handler that never responds.
    ASSERT_TRUE(nodes.server
                    ->register_rpc("blackhole", margo::k_default_provider_id,
                                   [](const margo::Request&) {})
                    .has_value());
    auto client = nodes.client;
    abt::Eventual<bool> outcome;
    client->runtime()->post(client->runtime()->primary_pool(), [client, &outcome] {
        margo::ForwardOptions opts;
        opts.timeout = 10000ms;
        auto r = client->forward("sim://server", "blackhole", "", opts);
        outcome.set_value(r.has_value());
    });
    std::this_thread::sleep_for(50ms);
    client->shutdown(); // must unblock the pending forward
    EXPECT_FALSE(outcome.wait());
}

TEST(Margo, ForwardDuringShutdownReturnsCanceled) {
    // A forward in flight when shutdown() sweeps the pending registry must
    // report Canceled — not Timeout, even when the timeout deadline races
    // the cancellation.
    TwoNodes nodes;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("blackhole", margo::k_default_provider_id,
                                   [](const margo::Request&) {})
                    .has_value());
    auto client = nodes.client;
    abt::Eventual<Error::Code> outcome;
    abt::Eventual<void> started;
    client->runtime()->post(client->runtime()->primary_pool(),
                            [client, &outcome, &started] {
        started.set();
        margo::ForwardOptions opts;
        opts.timeout = 10000ms;
        auto r = client->forward("sim://server", "blackhole", "", opts);
        // blackhole never responds, so success is impossible; Generic here
        // just means "not the expected Canceled".
        outcome.set_value(r ? Error::Code::Generic : r.error().code);
    });
    started.wait();
    std::this_thread::sleep_for(20ms);
    client->shutdown();
    EXPECT_EQ(outcome.wait(), Error::Code::Canceled);
}

TEST(Margo, ForwardAfterShutdownFailsFast) {
    TwoNodes nodes;
    nodes.client->shutdown();
    margo::ForwardOptions opts;
    opts.timeout = 10000ms; // must not be waited out
    auto t0 = std::chrono::steady_clock::now();
    auto r = nodes.client->forward("sim://server", "echo", "", opts);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, Error::Code::InvalidState);
    EXPECT_LT(ms, 1000.0);
}

TEST(Margo, RpcIdCollisionDetected) {
    // "costarring" and "liquid" are a known FNV-1a-32 collision pair; keep
    // this assertion first so a future hash change fails loudly here rather
    // than silently voiding the test.
    ASSERT_EQ(margo::rpc_name_to_id("costarring"), margo::rpc_name_to_id("liquid"));
    TwoNodes nodes;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("costarring", margo::k_default_provider_id,
                                   [](const margo::Request& req) { req.respond("costarring"); })
                    .has_value());
    // Registering the colliding name must fail with Conflict, not
    // AlreadyExists (it is a different RPC).
    auto clash = nodes.server->register_rpc("liquid", margo::k_default_provider_id,
                                            [](const margo::Request& req) { req.respond(""); });
    ASSERT_FALSE(clash.has_value());
    EXPECT_EQ(clash.error().code, Error::Code::Conflict);
    // Deregistering by the colliding name must not remove "costarring".
    auto dereg = nodes.server->deregister_rpc("liquid", margo::k_default_provider_id);
    ASSERT_FALSE(dereg.ok());
    EXPECT_EQ(dereg.error().code, Error::Code::Conflict);
    EXPECT_EQ(*nodes.client->forward("sim://server", "costarring", ""), "costarring");
    // Dispatch guards against the id matching but the name not: calling
    // "liquid" must not silently run the "costarring" handler.
    auto wrong = nodes.client->forward("sim://server", "liquid", "");
    ASSERT_FALSE(wrong.has_value());
    EXPECT_EQ(wrong.error().code, Error::Code::Conflict);
    // The correctly-named deregistration still works.
    EXPECT_TRUE(nodes.server->deregister_rpc("costarring", margo::k_default_provider_id).ok());
}

TEST(MargoProvider, ProviderAndHandleAnatomy) {
    // Figure 1 end-to-end with the base classes.
    class EchoProvider : public margo::Provider {
      public:
        EchoProvider(margo::InstancePtr inst, std::uint16_t pid)
        : Provider(std::move(inst), pid, "echo_svc") {
            define("echo", [](const margo::Request& req) {
                std::string s;
                ASSERT_TRUE(req.unpack(s));
                req.respond_values(s);
            });
        }
        json::Value get_config() const override {
            auto c = json::Value::object();
            c["kind"] = "echo";
            return c;
        }
    };
    class EchoHandle : public margo::ResourceHandle {
      public:
        using ResourceHandle::ResourceHandle;
        Expected<std::string> echo(const std::string& s) {
            auto r = call<std::string>("echo", s);
            if (!r) return std::move(r).error();
            return std::get<0>(*r);
        }
    };
    TwoNodes nodes;
    EchoProvider provider{nodes.server, 7};
    EchoHandle handle{nodes.client, "sim://server", 7, "echo_svc"};
    auto r = handle.echo("mochi");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, "mochi");
    EXPECT_EQ(provider.get_config()["kind"].as_string(), "echo");
}

TEST(Margo, MonitoringDumpSinkFiresOnShutdown) {
    // §4: statistics are "output as JSON when shutting down the service".
    auto fabric = mercury::Fabric::create();
    auto server = margo::Instance::create(fabric, "sim://dump-server").value();
    auto client = margo::Instance::create(fabric, "sim://dump-client").value();
    ASSERT_TRUE(server
                    ->register_rpc("echo", margo::k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(req.payload()); })
                    .has_value());
    ASSERT_TRUE(client->forward("sim://dump-server", "echo", "x").has_value());
    json::Value dumped;
    server->set_monitoring_dump_sink([&](const json::Value& doc) { dumped = doc; });
    client->shutdown();
    server->shutdown();
    ASSERT_TRUE(dumped.is_object());
    EXPECT_GE(dumped["rpcs"].size(), 1u);
}

TEST(Margo, ForwardTimeoutRoughlyHonored) {
    auto fabric = mercury::Fabric::create();
    auto server = margo::Instance::create(fabric, "sim://to-server").value();
    auto client = margo::Instance::create(fabric, "sim://to-client").value();
    ASSERT_TRUE(server
                    ->register_rpc("blackhole", margo::k_default_provider_id,
                                   [](const margo::Request&) {})
                    .has_value());
    margo::ForwardOptions opts;
    opts.timeout = std::chrono::milliseconds(80);
    auto t0 = std::chrono::steady_clock::now();
    auto r = client->forward("sim://to-server", "blackhole", "", opts);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, Error::Code::Timeout);
    EXPECT_GE(ms, 70.0);
    EXPECT_LT(ms, 500.0);
    client->shutdown();
    server->shutdown();
}

// A response completes its pending call on the thread that delivers it: the
// caller instance's progress loop is not on the round trip, so a reply
// arrives even while a ULT that never yields holds the caller's only ES.
// Checked on a clean link (sender-thread delivery) and on a link with
// latency (fabric-timer delivery).
TEST(Margo, ReplyCompletesWhileCallerEsIsBusy) {
    for (double latency_us : {0.0, 50.0}) {
        SCOPED_TRACE("server->client latency_us = " + std::to_string(latency_us));
        TwoNodes nodes;
        auto echo = [](const margo::Request& req) { req.respond(req.payload()); };
        ASSERT_TRUE(
            nodes.server->register_rpc("echo", margo::k_default_provider_id, echo).has_value());
        if (latency_us > 0.0) {
            mercury::LinkModel slow;
            slow.latency_us = latency_us;
            nodes.fabric->set_link("sim://server", "sim://client", slow);
        }
        std::atomic<bool> spinning{false}, release{false};
        auto rt = nodes.client->runtime();
        auto hog = rt->post_thread(rt->primary_pool(), [&] {
            spinning.store(true);
            while (!release.load()) {} // never yields: the progress ULT cannot run
        });
        while (!spinning.load()) std::this_thread::sleep_for(1ms);

        std::uint64_t delivered_before = nodes.fabric->messages_delivered();
        margo::ForwardOptions opts;
        opts.timeout = 500ms;
        auto resp = nodes.client->forward("sim://server", "echo", "busy caller", opts);
        std::uint64_t delivered = nodes.fabric->messages_delivered() - delivered_before;
        release.store(true);
        hog.join();
        EXPECT_TRUE(resp.has_value()) << resp.error().message;
        if (resp) {
            EXPECT_EQ(*resp, "busy caller");
        }
        EXPECT_EQ(delivered, 2u) << "request and reply both count as delivered";
    }
}

TEST(Margo, StatisticsAccumulatorMath) {
    margo::Statistics s;
    for (double x : {2.0, 4.0, 6.0}) s.add(x);
    EXPECT_EQ(s.num, 3u);
    EXPECT_DOUBLE_EQ(s.avg(), 4.0);
    EXPECT_DOUBLE_EQ(s.min, 2.0);
    EXPECT_DOUBLE_EQ(s.max, 6.0);
    EXPECT_NEAR(s.variance(), 8.0 / 3.0, 1e-9);
    auto j = s.to_json();
    EXPECT_EQ(j["num"].as_integer(), 3);
    EXPECT_DOUBLE_EQ(j["sum"].as_real(), 12.0);
    margo::Statistics empty;
    EXPECT_DOUBLE_EQ(empty.avg(), 0.0);
    EXPECT_DOUBLE_EQ(empty.to_json()["min"].as_real(), 0.0);
}

TEST(Margo, ProgressSamplerTracksDynamicPoolAddRemove) {
    // Monitor edge case: pools added or removed at runtime (§5 dynamic
    // reconfiguration) must appear in / disappear from on_progress_sample's
    // pool map — both in the Listing-1 statistics and the metrics gauges.
    auto cfg = parse(R"({"monitoring": {"sampling_period_ms": 5}})");
    TwoNodes nodes{cfg, cfg};
    auto added = nodes.server->add_pool_from_json(
        parse(R"({"name": "ephemeral", "type": "fifo_wait"})"));
    ASSERT_TRUE(added.has_value()) << added.error().message;
    auto sampled = [&](const char* pool) {
        auto stats = nodes.server->monitoring_json();
        return stats["progress"]["pools"].contains(pool);
    };
    for (int tries = 0; tries < 400 && !sampled("ephemeral"); ++tries)
        std::this_thread::sleep_for(5ms);
    EXPECT_TRUE(sampled("ephemeral")) << nodes.server->monitoring_json().dump(2);
    // The metrics gauge for the new pool materialized too.
    EXPECT_GE(nodes.server->metrics()->gauge("margo_pool_size_ephemeral").value(), 0.0);

    // After removal the sampler must not resurrect the pool: snapshot the
    // sample count, wait for more samples, and check the pool set shrank.
    ASSERT_TRUE(nodes.server->remove_pool("ephemeral").ok());
    auto samples_at = [&] {
        return nodes.server->monitoring_json()["progress"]["samples"].as_integer();
    };
    auto before = samples_at();
    for (int tries = 0; tries < 400 && samples_at() < before + 3; ++tries)
        std::this_thread::sleep_for(5ms);
    // StatisticsMonitor keeps per-pool history (it's a log); what matters is
    // that *current* samples no longer include the removed pool. The metrics
    // gauge goes stale rather than lying: it is simply no longer updated.
    auto pools = nodes.server->runtime()->pool_names();
    EXPECT_EQ(std::count(pools.begin(), pools.end(), "ephemeral"), 0);
}

// ---------------------------------------------------------------------------
// Asynchronous forwards (batched RPC pipeline)
// ---------------------------------------------------------------------------

TEST(MargoAsync, ForwardAsyncRoundTrip) {
    TwoNodes nodes;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("echo", margo::k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(req.payload()); })
                    .has_value());
    auto req = nodes.client->forward_async("sim://server", "echo", "async hello");
    ASSERT_TRUE(req.valid());
    auto r = req.wait();
    ASSERT_TRUE(r.has_value()) << r.error().message;
    EXPECT_EQ(*r, "async hello");
    // Repeated wait() returns the cached outcome.
    auto again = req.wait();
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, "async hello");
    EXPECT_TRUE(req.test());
}

// Handles share state when copied, and wait() may be called on each copy
// from a different thread: every waiter must read the reply, never a
// moved-from copy of it.
TEST(MargoAsync, WaitersOnCopiesAllSeeTheReply) {
    TwoNodes nodes;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("slow_echo", margo::k_default_provider_id,
                                   [](const margo::Request& req) {
                                       std::this_thread::sleep_for(200us);
                                       req.respond(req.payload());
                                   })
                    .has_value());
    for (int i = 0; i < 300; ++i) {
        std::string want = "reply " + std::to_string(i);
        auto req = nodes.client->forward_async("sim://server", "slow_echo", want);
        auto copy = req;
        std::string a, b;
        std::thread other([&] {
            auto r = copy.wait();
            b = r ? *r : r.error().message;
        });
        auto r = req.wait();
        a = r ? *r : r.error().message;
        other.join();
        ASSERT_EQ(a, want) << "iteration " << i;
        ASSERT_EQ(b, want) << "iteration " << i;
    }
}

TEST(MargoAsync, EmptyHandleIsInvalidState) {
    margo::AsyncRequest req;
    EXPECT_FALSE(req.valid());
    auto r = req.wait();
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, Error::Code::InvalidState);
}

TEST(MargoAsync, WaitUnpackTyped) {
    TwoNodes nodes;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("double", margo::k_default_provider_id,
                                   [](const margo::Request& req) {
                                       std::int64_t v = 0;
                                       ASSERT_TRUE(req.unpack(v));
                                       req.respond_values(v * 2);
                                   })
                    .has_value());
    auto req = nodes.client->forward_async("sim://server", "double",
                                           mercury::pack(std::int64_t{21}));
    auto r = req.wait_unpack<std::int64_t>();
    ASSERT_TRUE(r.has_value()) << r.error().message;
    EXPECT_EQ(std::get<0>(*r), 42);
}

TEST(MargoAsync, ManyInFlightForwardsOverlap) {
    TwoNodes nodes;
    std::atomic<int> inflight{0}, peak{0};
    auto server = nodes.server;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("slow", margo::k_default_provider_id,
                                   [server, &inflight, &peak](const margo::Request& req) {
                                       int now = ++inflight;
                                       int prev = peak.load();
                                       while (now > prev && !peak.compare_exchange_weak(prev, now))
                                           ;
                                       server->runtime()->sleep_for(20ms);
                                       --inflight;
                                       req.respond(req.payload());
                                   })
                    .has_value());
    constexpr int k_reqs = 8;
    std::vector<margo::AsyncRequest> reqs;
    for (int i = 0; i < k_reqs; ++i)
        reqs.push_back(nodes.client->forward_async("sim://server", "slow",
                                                   "r" + std::to_string(i)));
    for (int i = 0; i < k_reqs; ++i) {
        auto r = reqs[i].wait();
        ASSERT_TRUE(r.has_value()) << r.error().message;
        EXPECT_EQ(*r, "r" + std::to_string(i));
    }
    // The requests were on the wire concurrently, not serialized.
    EXPECT_GT(peak.load(), 1);
}

TEST(MargoAsync, AbandonedRequestKeepsMonitorPaired) {
    struct PairMonitor : margo::Monitor {
        std::atomic<int> started{0}, completed{0};
        void on_forward_start(const margo::CallContext&) override { ++started; }
        void on_forward_complete(const margo::CallContext&, bool) override { ++completed; }
    };
    TwoNodes nodes;
    auto mon = std::make_shared<PairMonitor>();
    nodes.client->add_monitor(mon);
    ASSERT_TRUE(nodes.server
                    ->register_rpc("blackhole", margo::k_default_provider_id,
                                   [](const margo::Request&) {})
                    .has_value());
    {
        auto req = nodes.client->forward_async("sim://server", "blackhole", "x");
        EXPECT_TRUE(req.valid());
        // Dropped without wait(): the registry slot must be released and the
        // forward span closed as failed.
    }
    EXPECT_EQ(mon->started.load(), 1);
    EXPECT_EQ(mon->completed.load(), 1);
    // The pending registry is empty again, so shutdown has nothing to drain.
    nodes.client->shutdown();
}

TEST(MargoAsync, ShutdownCancelsAsyncWaiter) {
    TwoNodes nodes;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("blackhole", margo::k_default_provider_id,
                                   [](const margo::Request&) {})
                    .has_value());
    auto client = nodes.client;
    auto req = client->forward_async("sim://server", "blackhole", "x");
    abt::Eventual<Error::Code> outcome;
    client->runtime()->post(client->runtime()->primary_pool(), [&outcome, req]() mutable {
        margo::AsyncRequest local = req;
        auto r = local.wait();
        outcome.set_value(r ? Error::Code::Generic : r.error().code);
    });
    std::this_thread::sleep_for(20ms);
    client->shutdown();
    EXPECT_EQ(outcome.wait(), Error::Code::Canceled);
}

TEST(MargoAsync, ForwardAsyncAfterShutdownFailsFast) {
    TwoNodes nodes;
    nodes.client->shutdown();
    auto t0 = std::chrono::steady_clock::now();
    auto req = nodes.client->forward_async("sim://server", "echo", "x");
    auto r = req.wait();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, Error::Code::InvalidState);
    EXPECT_LT(ms, 1000.0);
}

TEST(MargoAsync, AsyncTimeoutReportsTimeout) {
    TwoNodes nodes;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("blackhole", margo::k_default_provider_id,
                                   [](const margo::Request&) {})
                    .has_value());
    margo::ForwardOptions opts;
    opts.timeout = 80ms;
    auto req = nodes.client->forward_async("sim://server", "blackhole", "x", opts);
    auto r = req.wait();
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, Error::Code::Timeout);
}

namespace {

// A response type whose deserialization throws: exercises the guarantee
// that typed calls surface broken serialize() implementations as Expected
// errors instead of throwing through the ULT boundary.
struct ExplodingOnLoad {
    template <typename A>
    void serialize(A&) {
        if constexpr (!A::is_saving) throw std::runtime_error("boom");
    }
};

} // namespace

TEST(MargoAsync, ThrowingUnpackSurfacesAsExpectedError) {
    TwoNodes nodes;
    ASSERT_TRUE(nodes.server
                    ->register_rpc("ok", margo::k_default_provider_id,
                                   [](const margo::Request& req) { req.respond("payload"); })
                    .has_value());
    auto sync = nodes.client->call<ExplodingOnLoad>("sim://server", "ok", {});
    ASSERT_FALSE(sync.has_value());
    EXPECT_EQ(sync.error().code, Error::Code::Corruption);
    auto req = nodes.client->forward_async("sim://server", "ok", "");
    auto async = req.wait_unpack<ExplodingOnLoad>();
    ASSERT_FALSE(async.has_value());
    EXPECT_EQ(async.error().code, Error::Code::Corruption);
}

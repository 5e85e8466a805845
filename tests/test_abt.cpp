// Tests for the ULT runtime: scheduling, yielding, blocking primitives,
// dynamic pool/xstream reconfiguration (the Listing 2 behaviours).
#include "abt/abt.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

using namespace mochi;
using namespace std::chrono_literals;

namespace {

json::Value parse(const char* text) {
    auto v = json::Value::parse(text);
    EXPECT_TRUE(v.has_value()) << text;
    return std::move(v).value();
}

} // namespace

TEST(AbtRuntime, DefaultConfigHasPrimaryPoolAndXstream) {
    auto rt = abt::Runtime::create_default();
    EXPECT_EQ(rt->num_pools(), 1u);
    EXPECT_EQ(rt->num_xstreams(), 1u);
    EXPECT_TRUE(rt->find_pool("__primary__").has_value());
    rt->finalize();
}

TEST(AbtRuntime, CreateFromListing2StyleConfig) {
    auto cfg = parse(R"({
      "pools": [
        {"name": "MyPoolX", "type": "fifo_wait", "access": "mpmc"},
        {"name": "MyPoolY", "type": "prio", "access": "mpmc"}
      ],
      "xstreams": [
        {"name": "MyES0", "scheduler": {"type": "basic", "pools": ["MyPoolX", "MyPoolY"]}},
        {"name": "MyES1", "scheduler": {"type": "basic_wait", "pools": ["MyPoolY"]}}
      ]
    })");
    auto rt = abt::Runtime::create(cfg);
    ASSERT_TRUE(rt.has_value());
    EXPECT_EQ((*rt)->num_pools(), 2u);
    EXPECT_EQ((*rt)->num_xstreams(), 2u);
    // config() round-trips.
    auto dumped = (*rt)->config();
    auto rt2 = abt::Runtime::create(dumped);
    ASSERT_TRUE(rt2.has_value());
    EXPECT_EQ((*rt2)->config(), dumped);
    (*rt)->finalize();
    (*rt2)->finalize();
}

TEST(AbtRuntime, InvalidConfigsRejected) {
    EXPECT_FALSE(abt::Runtime::create(parse(R"({"pools":[{"name":""}]})")).has_value());
    EXPECT_FALSE(abt::Runtime::create(parse(R"({"pools":[{"name":"a","type":"bogus"}]})")).has_value());
    EXPECT_FALSE(abt::Runtime::create(
                     parse(R"({"pools":[{"name":"a"},{"name":"a"}]})")).has_value());
    EXPECT_FALSE(abt::Runtime::create(
                     parse(R"({"pools":[{"name":"a"}],
                               "xstreams":[{"name":"x","scheduler":{"pools":["nope"]}}]})"))
                     .has_value());
    EXPECT_FALSE(abt::Runtime::create(
                     parse(R"({"pools":[{"name":"a"}],"xstreams":[]})")).has_value());
}

TEST(AbtRuntime, PostRunsWork) {
    auto rt = abt::Runtime::create_default();
    abt::Eventual<int> ev;
    rt->post(rt->primary_pool(), [&] { ev.set_value(41 + 1); });
    EXPECT_EQ(ev.wait(), 42);
    rt->finalize();
}

TEST(AbtRuntime, ThreadHandleJoin) {
    auto rt = abt::Runtime::create_default();
    std::atomic<int> counter{0};
    std::vector<abt::ThreadHandle> handles;
    for (int i = 0; i < 50; ++i)
        handles.push_back(rt->post_thread(rt->primary_pool(), [&] { ++counter; }));
    for (auto& h : handles) h.join();
    EXPECT_EQ(counter.load(), 50);
    rt->finalize();
}

TEST(AbtRuntime, YieldInterleavesUlts) {
    auto rt = abt::Runtime::create_default();
    // Both ULTs wait in a pool no ES serves yet, so neither can run (and
    // finish its yields alone) before the other is posted; then a single ES
    // starts serving that pool: interleaving needs yield.
    ASSERT_TRUE(rt->add_pool(parse(R"({"name":"p2","type":"fifo_wait"})")).has_value());
    auto p2 = rt->find_pool("p2").value();
    std::vector<int> order;
    std::mutex order_mutex;
    abt::Eventual<void> done_a, done_b;
    rt->post(p2, [&] {
        for (int i = 0; i < 3; ++i) {
            { std::lock_guard lk{order_mutex}; order.push_back(0); }
            abt::yield();
        }
        done_a.set();
    });
    rt->post(p2, [&] {
        for (int i = 0; i < 3; ++i) {
            { std::lock_guard lk{order_mutex}; order.push_back(1); }
            abt::yield();
        }
        done_b.set();
    });
    ASSERT_TRUE(rt->add_xstream(parse(R"({"name":"es2","scheduler":{"pools":["p2"]}})")).ok());
    done_a.wait();
    done_b.wait();
    // With a single ES and cooperative yields the two ULTs must alternate.
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0, 1}));
    rt->finalize();
}

TEST(AbtRuntime, EventualAcrossUlts) {
    auto rt = abt::Runtime::create(parse(R"({
      "pools": [{"name":"p","type":"fifo_wait"}],
      "xstreams": [{"name":"x0","scheduler":{"pools":["p"]}},
                    {"name":"x1","scheduler":{"pools":["p"]}}]
    })")).value();
    abt::Eventual<std::string> ev;
    abt::Eventual<std::string> reply;
    rt->post(rt->primary_pool(), [&] { ev.set_value("ping"); });
    rt->post(rt->primary_pool(), [&] { reply.set_value(ev.wait() + "/pong"); });
    EXPECT_EQ(reply.wait(), "ping/pong");
    rt->finalize();
}

TEST(AbtRuntime, EventualWaitForTimesOut) {
    auto rt = abt::Runtime::create_default();
    abt::Eventual<void> never;
    abt::Eventual<bool> outcome;
    rt->post(rt->primary_pool(), [&] { outcome.set_value(never.wait_for(20ms)); });
    EXPECT_FALSE(outcome.wait());
    // External-thread timeout path too.
    abt::Eventual<int> never2;
    EXPECT_FALSE(never2.wait_for(10ms).has_value());
    rt->finalize();
}

TEST(AbtRuntime, EventualWaitForSucceedsBeforeDeadline) {
    auto rt = abt::Runtime::create_default();
    abt::Eventual<void> ev;
    abt::Eventual<bool> outcome;
    rt->post(rt->primary_pool(), [&] { outcome.set_value(ev.wait_for(2000ms)); });
    rt->post(rt->primary_pool(), [&] { ev.set(); });
    EXPECT_TRUE(outcome.wait());
    rt->finalize();
}

TEST(AbtRuntime, MutexProvidesExclusion) {
    auto rt = abt::Runtime::create(parse(R"({
      "pools": [{"name":"p","type":"fifo_wait"}],
      "xstreams": [{"name":"x0","scheduler":{"pools":["p"]}},
                    {"name":"x1","scheduler":{"pools":["p"]}},
                    {"name":"x2","scheduler":{"pools":["p"]}}]
    })")).value();
    abt::Mutex mtx;
    int unguarded = 0; // data race iff mutex broken
    constexpr int k_ults = 16, k_iters = 100;
    std::vector<abt::ThreadHandle> handles;
    for (int i = 0; i < k_ults; ++i) {
        handles.push_back(rt->post_thread(rt->primary_pool(), [&] {
            for (int j = 0; j < k_iters; ++j) {
                mtx.lock();
                int v = unguarded;
                if (j % 10 == 0) abt::yield(); // widen the race window
                unguarded = v + 1;
                mtx.unlock();
            }
        }));
    }
    for (auto& h : handles) h.join();
    EXPECT_EQ(unguarded, k_ults * k_iters);
    rt->finalize();
}

TEST(AbtRuntime, CondVarSignalsWaiters) {
    auto rt = abt::Runtime::create_default();
    abt::Mutex mtx;
    abt::CondVar cv;
    bool flag = false;
    abt::Eventual<void> woke;
    rt->post(rt->primary_pool(), [&] {
        mtx.lock();
        while (!flag) cv.wait(mtx);
        mtx.unlock();
        woke.set();
    });
    rt->post(rt->primary_pool(), [&] {
        mtx.lock();
        flag = true;
        mtx.unlock();
        cv.signal_all();
    });
    woke.wait();
    rt->finalize();
}

TEST(AbtRuntime, CondVarWaitForTimesOut) {
    auto rt = abt::Runtime::create_default();
    abt::Mutex mtx;
    abt::CondVar cv;
    abt::Eventual<bool> outcome;
    rt->post(rt->primary_pool(), [&] {
        mtx.lock();
        bool ok = cv.wait_for(mtx, 20ms);
        mtx.unlock();
        outcome.set_value(ok);
    });
    EXPECT_FALSE(outcome.wait());
    rt->finalize();
}

TEST(AbtRuntime, BarrierSynchronizes) {
    auto rt = abt::Runtime::create(parse(R"({
      "pools": [{"name":"p","type":"fifo_wait"}],
      "xstreams": [{"name":"x0","scheduler":{"pools":["p"]}},
                    {"name":"x1","scheduler":{"pools":["p"]}}]
    })")).value();
    constexpr int k_n = 8;
    abt::Barrier barrier{k_n};
    std::atomic<int> before{0}, after{0};
    std::atomic<bool> violated{false};
    std::vector<abt::ThreadHandle> handles;
    for (int i = 0; i < k_n; ++i) {
        handles.push_back(rt->post_thread(rt->primary_pool(), [&] {
            ++before;
            barrier.wait();
            if (before.load() != k_n) violated.store(true);
            ++after;
        }));
    }
    for (auto& h : handles) h.join();
    EXPECT_FALSE(violated.load());
    EXPECT_EQ(after.load(), k_n);
    rt->finalize();
}

TEST(AbtRuntime, SleepForResumesUlt) {
    auto rt = abt::Runtime::create_default();
    abt::Eventual<std::chrono::milliseconds> elapsed;
    rt->post(rt->primary_pool(), [&] {
        auto t0 = std::chrono::steady_clock::now();
        rt->sleep_for(30ms);
        elapsed.set_value(std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0));
    });
    EXPECT_GE(elapsed.wait().count(), 25);
    rt->finalize();
}

TEST(AbtRuntime, DynamicAddRemovePool) {
    auto rt = abt::Runtime::create_default();
    auto pool = rt->add_pool(parse(R"({"name":"extra","type":"fifo_wait","access":"mpmc"})"));
    ASSERT_TRUE(pool.has_value());
    EXPECT_EQ(rt->num_pools(), 2u);
    // Duplicate name rejected (§5: "not allowing adding multiple pools with
    // the same name").
    EXPECT_FALSE(rt->add_pool(parse(R"({"name":"extra"})")).has_value());
    // Unused pool can be removed.
    EXPECT_TRUE(rt->remove_pool("extra").ok());
    EXPECT_EQ(rt->num_pools(), 1u);
    // Pool used by an ES cannot be removed.
    auto st = rt->remove_pool("__primary__");
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, mochi::Error::Code::InvalidState);
    rt->finalize();
}

TEST(AbtRuntime, DynamicAddRemoveXstream) {
    auto rt = abt::Runtime::create_default();
    ASSERT_TRUE(rt->add_pool(parse(R"({"name":"p2","type":"fifo_wait"})")).has_value());
    ASSERT_TRUE(rt->add_xstream(
                      parse(R"({"name":"es2","scheduler":{"type":"basic","pools":["p2"]}})"))
                    .ok());
    EXPECT_EQ(rt->num_xstreams(), 2u);
    // Work posted to the new pool runs on the new ES.
    auto p2 = rt->find_pool("p2").value();
    abt::Eventual<void> ran;
    rt->post(p2, [&] { ran.set(); });
    ran.wait();
    // Removing the ES leaves p2 orphaned but valid.
    EXPECT_TRUE(rt->remove_xstream("es2").ok());
    EXPECT_EQ(rt->num_xstreams(), 1u);
    EXPECT_FALSE(rt->remove_xstream("no-such-es").ok());
    rt->finalize();
}

TEST(AbtRuntime, OrphanedPoolResumesWhenXstreamAdded) {
    auto rt = abt::Runtime::create_default();
    ASSERT_TRUE(rt->add_pool(parse(R"({"name":"p2","type":"fifo_wait"})")).has_value());
    auto p2 = rt->find_pool("p2").value();
    // Work posted to an orphaned pool waits...
    abt::Eventual<void> ran;
    rt->post(p2, [&] { ran.set(); });
    EXPECT_FALSE(ran.wait_for(50ms));
    // ...until an xstream starts serving the pool (elastic scale-up, §6).
    ASSERT_TRUE(rt->add_xstream(
                      parse(R"({"name":"es2","scheduler":{"pools":["p2"]}})")).ok());
    EXPECT_TRUE(ran.wait_for(2000ms));
    rt->finalize();
}

TEST(PoolUnit, PriorityPopOrder) {
    abt::Pool pool{"p", abt::PoolKind::Prio, abt::PoolAccess::Mpmc};
    auto make = [](int id) {
        auto u = std::make_shared<abt::Ult>();
        u->fn = [] {};
        u->state.store(abt::UltState::Ready);
        // stash id in stack_size for inspection
        u->stack_size = static_cast<std::size_t>(id);
        return u;
    };
    pool.push(make(1), /*priority=*/1);
    pool.push(make(2), /*priority=*/5);
    pool.push(make(3), /*priority=*/5);
    pool.push(make(4), /*priority=*/3);
    EXPECT_EQ(pool.pop()->stack_size, 2u); // highest priority first
    EXPECT_EQ(pool.pop()->stack_size, 3u); // FIFO among ties
    EXPECT_EQ(pool.pop()->stack_size, 4u);
    EXPECT_EQ(pool.pop()->stack_size, 1u);
    EXPECT_EQ(pool.pop(), nullptr);
}

TEST(PoolUnit, FifoPopOrderAndCounters) {
    abt::Pool pool{"p", abt::PoolKind::Fifo, abt::PoolAccess::Mpmc};
    auto make = [](int id) {
        auto u = std::make_shared<abt::Ult>();
        u->stack_size = static_cast<std::size_t>(id);
        return u;
    };
    for (int i = 0; i < 5; ++i) pool.push(make(i));
    EXPECT_EQ(pool.size(), 5u);
    EXPECT_EQ(pool.total_pushed(), 5u);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(pool.pop()->stack_size, static_cast<std::size_t>(i));
    EXPECT_EQ(pool.size(), 0u);
    EXPECT_EQ(pool.total_pushed(), 5u);
}

TEST(AbtRuntime, ManyUltsStressSuspendResume) {
    auto rt = abt::Runtime::create(parse(R"({
      "pools": [{"name":"p","type":"fifo_wait"}],
      "xstreams": [{"name":"x0","scheduler":{"pools":["p"]}},
                    {"name":"x1","scheduler":{"pools":["p"]}},
                    {"name":"x2","scheduler":{"pools":["p"]}},
                    {"name":"x3","scheduler":{"pools":["p"]}}]
    })")).value();
    constexpr int k_pairs = 64;
    std::vector<std::unique_ptr<abt::Eventual<int>>> evs;
    for (int i = 0; i < 2 * k_pairs; ++i) evs.push_back(std::make_unique<abt::Eventual<int>>());
    std::vector<abt::ThreadHandle> handles;
    std::atomic<int> sum{0};
    for (int i = 0; i < k_pairs; ++i) {
        // consumer waits on evs[2i], then sets evs[2i+1]
        handles.push_back(rt->post_thread(rt->primary_pool(), [&, i] {
            int v = evs[2 * i]->wait();
            evs[2 * i + 1]->set_value(v * 2);
        }));
        // producer sets evs[2i], waits evs[2i+1]
        handles.push_back(rt->post_thread(rt->primary_pool(), [&, i] {
            evs[2 * i]->set_value(i);
            sum += evs[2 * i + 1]->wait();
        }));
    }
    for (auto& h : handles) h.join();
    EXPECT_EQ(sum.load(), 2 * (k_pairs - 1) * k_pairs / 2);
    rt->finalize();
}

TEST(AbtRuntime, FinalizeIsIdempotent) {
    auto rt = abt::Runtime::create_default();
    rt->finalize();
    rt->finalize();
    SUCCEED();
}

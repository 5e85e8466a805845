// E9 — cost of the observability layer added on top of the monitor hooks:
// RPC round-trip latency with monitoring fully off, with the built-in
// monitors (Listing-1 statistics + MetricsRegistry — the default every
// instance gets), and with the distributed TracingMonitor attached on top.
// Tracing allocates a span per forward and per handler, so the interesting
// number is the per-RPC delta against the built-in baseline — it should
// stay in the same "cheap enough to leave on" band the paper claims for
// the monitoring infrastructure itself.
#include "margo/instance.hpp"
#include "margo/metrics.hpp"
#include "margo/tracing.hpp"

#include <benchmark/benchmark.h>

using namespace mochi;

namespace {

enum class Mode : int { Off = 0, Builtin = 1, Tracing = 2 };

struct World {
    std::shared_ptr<mercury::Fabric> fabric = mercury::Fabric::create();
    margo::InstancePtr server;
    margo::InstancePtr client;
    std::shared_ptr<margo::TracingMonitor> tracer;

    explicit World(Mode mode) {
        server = margo::Instance::create(fabric, "sim://server", json::Value::object()).value();
        client = margo::Instance::create(fabric, "sim://client", json::Value::object()).value();
        switch (mode) {
        case Mode::Off:
            // Short-circuits all monitor dispatch: the floor.
            server->set_monitoring_enabled(false);
            client->set_monitoring_enabled(false);
            break;
        case Mode::Builtin:
            // StatisticsMonitor (Listing 1 + margo_* metrics) is installed
            // by default.
            break;
        case Mode::Tracing:
            tracer = std::make_shared<margo::TracingMonitor>();
            server->add_monitor(tracer);
            client->add_monitor(tracer);
            break;
        }
        (void)server->register_rpc("echo", margo::k_default_provider_id,
                                   [](const margo::Request& req) {
                                       req.respond(req.payload());
                                   });
    }
    ~World() {
        client->shutdown();
        server->shutdown();
    }
};

void BM_TracingOverhead(benchmark::State& state) {
    World world{static_cast<Mode>(state.range(0))};
    std::string payload(static_cast<std::size_t>(state.range(1)), 'x');
    std::size_t since_reset = 0;
    for (auto _ : state) {
        auto r = world.client->forward("sim://server", "echo", payload);
        if (!r) state.SkipWithError("forward failed");
        // Keep the tracer's span map bounded (each RPC records ~2 spans) so
        // we measure per-RPC cost, not unbounded map growth over millions of
        // iterations.
        if (world.tracer && ++since_reset >= 8192) {
            world.tracer->reset();
            since_reset = 0;
        }
    }
    static const char* names[] = {"off", "stats+metrics", "tracing"};
    state.SetLabel(names[state.range(0)]);
}
// Sweep mode x payload; 8-byte payloads expose the fixed per-RPC cost,
// larger payloads show the relative overhead shrinking.
BENCHMARK(BM_TracingOverhead)
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({2, 8})
    ->Args({0, 4096})
    ->Args({2, 4096})
    ->Args({0, 65536})
    ->Args({2, 65536});

void BM_TraceExport(benchmark::State& state) {
    // Cost of rendering the Chrome trace_event JSON, vs. number of spans
    // collected — operators dump this at checkpoint boundaries, not per RPC.
    World world{Mode::Tracing};
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i)
        (void)world.client->forward("sim://server", "echo", "x");
    for (auto _ : state) {
        auto doc = world.tracer->trace_events_json();
        benchmark::DoNotOptimize(doc);
    }
    state.SetLabel(std::to_string(world.tracer->spans().size()) + " spans");
}
BENCHMARK(BM_TraceExport)->Arg(64)->Arg(512)->Arg(4096);

void BM_MetricsScrape(benchmark::State& state) {
    // Cost of serialising the metrics registry (what bedrock/get_metrics pays).
    World world{Mode::Builtin};
    for (int i = 0; i < 256; ++i)
        (void)world.client->forward("sim://server", "echo", "x");
    for (auto _ : state) {
        auto doc = world.server->metrics_json();
        benchmark::DoNotOptimize(doc);
    }
}
BENCHMARK(BM_MetricsScrape);

} // namespace

BENCHMARK_MAIN();

// Tests for the distributed tracing layer (margo/tracing.hpp) and the
// metrics-export layer (margo/metrics.hpp): span propagation through nested
// forwards, composed providers and migration pipelines; trace rendering;
// the metrics registry; and the Bedrock scrape surface.
#include "bedrock/client.hpp"
#include "bedrock/process.hpp"
#include "composed/dataset.hpp"
#include "margo/metrics.hpp"
#include "margo/tracing.hpp"
#include "remi/provider.hpp"
#include "yokan/provider.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

using namespace mochi;
using namespace mochi::margo;

namespace {

json::Value parse(const char* text) {
    auto v = json::Value::parse(text);
    EXPECT_TRUE(v.has_value()) << text;
    return std::move(v).value();
}

/// A forward() may return before the remote on_handler_complete callback
/// has closed the handler span; poll briefly until the collector settles.
template <typename F>
bool eventually(F f, std::chrono::milliseconds limit = std::chrono::milliseconds(2000)) {
    auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
        if (f()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return f();
}

bool all_spans_closed(const TracingMonitor& tracer) {
    auto spans = tracer.spans();
    return std::all_of(spans.begin(), spans.end(),
                       [](const Span& s) { return s.end_us > 0; });
}

const Span* find_span(const std::vector<Span>& spans, const std::string& kind,
                      const std::string& name, const std::string& process = "") {
    for (const auto& s : spans)
        if (s.kind == kind && s.name == name && (process.empty() || s.process == process))
            return &s;
    return nullptr;
}

struct TracedPair {
    std::shared_ptr<mercury::Fabric> fabric = mercury::Fabric::create();
    margo::InstancePtr server;
    margo::InstancePtr client;
    std::shared_ptr<TracingMonitor> tracer = std::make_shared<TracingMonitor>();

    TracedPair() {
        server = margo::Instance::create(fabric, "sim://server").value();
        client = margo::Instance::create(fabric, "sim://client").value();
        // One collector attached everywhere gathers the whole "cluster".
        server->add_monitor(tracer);
        client->add_monitor(tracer);
    }
    ~TracedPair() {
        client->shutdown();
        server->shutdown();
    }
};

} // namespace

// ---------------------------------------------------------------------------
// Span propagation
// ---------------------------------------------------------------------------

TEST(Tracing, SingleRpcYieldsForwardAndHandlerSpans) {
    TracedPair w;
    ASSERT_TRUE(w.server
                    ->register_rpc("echo", k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(req.payload()); })
                    .has_value());
    ASSERT_TRUE(w.client->forward("sim://server", "echo", "ping").has_value());
    ASSERT_TRUE(eventually([&] { return all_spans_closed(*w.tracer); }));

    auto spans = w.tracer->spans();
    ASSERT_EQ(spans.size(), 2u);
    const Span* fwd = find_span(spans, "forward", "echo");
    const Span* hdl = find_span(spans, "handler", "echo");
    ASSERT_NE(fwd, nullptr);
    ASSERT_NE(hdl, nullptr);
    // Both belong to one trace; the handler is the forward's child.
    EXPECT_NE(fwd->trace_id, 0u);
    EXPECT_EQ(fwd->trace_id, hdl->trace_id);
    EXPECT_EQ(fwd->parent_span_id, 0u); // root: no ambient trace at the client
    EXPECT_EQ(hdl->parent_span_id, fwd->span_id);
    EXPECT_EQ(fwd->process, "sim://client");
    EXPECT_EQ(fwd->peer, "sim://server");
    EXPECT_EQ(hdl->process, "sim://server");
    EXPECT_EQ(hdl->peer, "sim://client");
    // Closed spans with sane timestamps, handler nested within the forward.
    EXPECT_GT(fwd->end_us, fwd->begin_us);
    EXPECT_GT(hdl->end_us, hdl->begin_us);
    EXPECT_GE(hdl->begin_us, fwd->begin_us);
    EXPECT_TRUE(fwd->ok);
}

TEST(Tracing, FailedForwardMarksSpanNotOk) {
    TracedPair w;
    auto r = w.client->forward("sim://server", "no_such_rpc", "");
    ASSERT_FALSE(r.has_value());
    auto spans = w.tracer->spans();
    const Span* fwd = find_span(spans, "forward", "no_such_rpc");
    ASSERT_NE(fwd, nullptr);
    EXPECT_FALSE(fwd->ok);
}

TEST(Tracing, NestedForwardsChainIntoOneTrace) {
    // client -> relay (server) -> leaf: the relay's handler forwards again;
    // all four spans must share the client's trace id and chain correctly.
    std::shared_ptr<mercury::Fabric> fabric = mercury::Fabric::create();
    auto leaf = margo::Instance::create(fabric, "sim://leaf").value();
    auto relay = margo::Instance::create(fabric, "sim://relay").value();
    auto client = margo::Instance::create(fabric, "sim://client").value();
    auto tracer = std::make_shared<TracingMonitor>();
    for (auto& inst : {leaf, relay, client}) inst->add_monitor(tracer);

    ASSERT_TRUE(leaf->register_rpc("leaf_op", k_default_provider_id,
                                   [](const margo::Request& req) { req.respond("leaf"); })
                    .has_value());
    ASSERT_TRUE(relay->register_rpc("relay_op", k_default_provider_id,
                                    [&](const margo::Request& req) {
                                        auto r = relay->forward("sim://leaf", "leaf_op", "");
                                        req.respond(r.value_or("error"));
                                    })
                    .has_value());
    auto resp = client->forward("sim://relay", "relay_op", "");
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(*resp, "leaf");

    auto spans = tracer->spans();
    ASSERT_EQ(spans.size(), 4u);
    const Span* f1 = find_span(spans, "forward", "relay_op");
    const Span* h1 = find_span(spans, "handler", "relay_op");
    const Span* f2 = find_span(spans, "forward", "leaf_op");
    const Span* h2 = find_span(spans, "handler", "leaf_op");
    ASSERT_TRUE(f1 && h1 && f2 && h2);
    std::set<std::uint64_t> traces{f1->trace_id, h1->trace_id, f2->trace_id, h2->trace_id};
    EXPECT_EQ(traces.size(), 1u) << "all spans belong to one trace";
    EXPECT_EQ(h1->parent_span_id, f1->span_id);
    EXPECT_EQ(f2->parent_span_id, h1->span_id) << "nested forward extends the handler span";
    EXPECT_EQ(h2->parent_span_id, f2->span_id);
    EXPECT_EQ(f2->process, "sim://relay");

    client->shutdown();
    relay->shutdown();
    leaf->shutdown();
}

TEST(Tracing, IndependentCallsGetIndependentTraces) {
    TracedPair w;
    ASSERT_TRUE(w.server
                    ->register_rpc("echo", k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(""); })
                    .has_value());
    ASSERT_TRUE(w.client->forward("sim://server", "echo", "a").has_value());
    ASSERT_TRUE(w.client->forward("sim://server", "echo", "b").has_value());
    auto spans = w.tracer->spans();
    std::set<std::uint64_t> traces;
    for (const auto& s : spans) traces.insert(s.trace_id);
    EXPECT_EQ(traces.size(), 2u);
    // Each trace has exactly one forward and one handler.
    for (auto t : traces) EXPECT_EQ(w.tracer->trace(t).size(), 2u);
}

TEST(Tracing, ContextScopeCarriesTraceAcrossOsThreads) {
    // No ULT here: the thread-local fallback must make the scope visible.
    RpcContext ctx;
    ctx.rpc_id = 42;
    ctx.provider_id = 7;
    ctx.trace = TraceContext{next_trace_id(), next_span_id(), 0};
    EXPECT_EQ(current_rpc_context().rpc_id, k_no_parent_rpc_id);
    {
        ContextScope scope{ctx};
        auto seen = current_rpc_context();
        EXPECT_EQ(seen.rpc_id, 42u);
        EXPECT_EQ(seen.provider_id, 7u);
        EXPECT_EQ(seen.trace.trace_id, ctx.trace.trace_id);
        {
            RpcContext inner = seen;
            inner.rpc_id = 43;
            ContextScope nested{inner};
            EXPECT_EQ(current_rpc_context().rpc_id, 43u);
        }
        EXPECT_EQ(current_rpc_context().rpc_id, 42u);
    }
    EXPECT_EQ(current_rpc_context().rpc_id, k_no_parent_rpc_id);
    EXPECT_FALSE(current_rpc_context().trace.active());
}

// ---------------------------------------------------------------------------
// Composed service: one client op -> one trace across >= 3 processes
// ---------------------------------------------------------------------------

TEST(Tracing, ComposedDatasetCreateSpansThreeProcesses) {
    yokan::register_module();
    warabi::register_module();
    composed::register_dataset_module();
    for (const char* n : {"sim://meta-node", "sim://data-node", "sim://front-node"})
        remi::SimFileStore::destroy_node(n);
    auto fabric = mercury::Fabric::create();
    auto meta_proc = bedrock::Process::spawn(fabric, "sim://meta-node", parse(R"({
        "libraries": {"yokan": "libyokan.so"},
        "providers": [{"name": "meta", "type": "yokan", "provider_id": 1}]
    })")).value();
    auto data_proc = bedrock::Process::spawn(fabric, "sim://data-node", parse(R"({
        "libraries": {"warabi": "libwarabi.so"},
        "providers": [{"name": "blobs", "type": "warabi", "provider_id": 2}]
    })")).value();
    auto front = bedrock::Process::spawn(fabric, "sim://front-node", parse(R"({
        "libraries": {"dataset": "libdataset.so"},
        "providers": [{"name": "datasets", "type": "dataset", "provider_id": 10,
                        "dependencies": {"meta": "yokan:1@sim://meta-node",
                                          "data": "warabi:2@sim://data-node"}}]
    })")).value();
    auto client = margo::Instance::create(fabric, "sim://client").value();

    auto tracer = std::make_shared<TracingMonitor>();
    client->add_monitor(tracer);
    for (auto& p : {meta_proc, data_proc, front}) p->margo_instance()->add_monitor(tracer);

    composed::DatasetHandle ds{client, "sim://front-node", 10};
    ASSERT_TRUE(ds.create("traced", "one operation, many processes").ok());

    // The client's dataset/create forward roots the (single) trace.
    auto spans = tracer->spans();
    const Span* root = find_span(spans, "forward", "dataset/create", "sim://client");
    ASSERT_NE(root, nullptr);
    auto trace = tracer->trace(root->trace_id);

    // Every span of the operation landed in this one trace, and the trace
    // covers the client plus all three service processes.
    std::set<std::string> processes;
    for (const auto& s : trace) processes.insert(s.process);
    EXPECT_GE(processes.size(), 4u) << tracer->span_tree();
    EXPECT_TRUE(processes.count("sim://front-node"));
    EXPECT_TRUE(processes.count("sim://meta-node"));
    EXPECT_TRUE(processes.count("sim://data-node"));

    // Parent links: client forward -> front handler -> nested forwards to
    // the yokan and warabi backends, each with its own remote handler.
    auto in_trace = [&](const char* kind, const char* name, const char* proc) {
        return find_span(trace, kind, name, proc);
    };
    const Span* front_hdl = in_trace("handler", "dataset/create", "sim://front-node");
    ASSERT_NE(front_hdl, nullptr) << tracer->span_tree();
    EXPECT_EQ(front_hdl->parent_span_id, root->span_id);

    const Span* meta_fwd = in_trace("forward", "yokan/put", "sim://front-node");
    ASSERT_NE(meta_fwd, nullptr) << tracer->span_tree();
    EXPECT_EQ(meta_fwd->parent_span_id, front_hdl->span_id);
    const Span* meta_hdl = in_trace("handler", "yokan/put", "sim://meta-node");
    ASSERT_NE(meta_hdl, nullptr);
    EXPECT_EQ(meta_hdl->parent_span_id, meta_fwd->span_id);

    const Span* data_fwd = in_trace("forward", "warabi/write", "sim://front-node");
    ASSERT_NE(data_fwd, nullptr) << tracer->span_tree();
    EXPECT_EQ(data_fwd->parent_span_id, front_hdl->span_id);
    const Span* data_hdl = in_trace("handler", "warabi/write", "sim://data-node");
    ASSERT_NE(data_hdl, nullptr);
    EXPECT_EQ(data_hdl->parent_span_id, data_fwd->span_id);

    // The text rendering reflects the same shape.
    std::string tree = tracer->span_tree();
    EXPECT_NE(tree.find("forward dataset/create @sim://client"), std::string::npos) << tree;
    EXPECT_NE(tree.find("handler yokan/put @sim://meta-node"), std::string::npos) << tree;

    client->shutdown();
    front->shutdown();
    data_proc->shutdown();
    meta_proc->shutdown();
}

// ---------------------------------------------------------------------------
// Worker-ULT propagation (REMI pipeline) and bulk spans
// ---------------------------------------------------------------------------

TEST(Tracing, RemiChunkPipelineStaysOnAmbientTrace) {
    remi::SimFileStore::destroy_node("sim://src");
    remi::SimFileStore::destroy_node("sim://dst");
    auto fabric = mercury::Fabric::create();
    auto src = margo::Instance::create(fabric, "sim://src").value();
    auto dst = margo::Instance::create(fabric, "sim://dst").value();
    auto provider = std::make_unique<remi::Provider>(dst, 1);
    auto tracer = std::make_shared<TracingMonitor>();
    src->add_monitor(tracer);
    dst->add_monitor(tracer);

    auto store = remi::SimFileStore::for_node("sim://src");
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(store->write("/m/f" + std::to_string(i), std::string(2000, 'x')).ok());
    auto fileset = remi::Fileset::scan(*store, "/m/");

    // Simulate being inside a migration RPC: the pipeline's worker ULTs must
    // inherit this ambient context even though they run on fresh ULTs.
    RpcContext ctx;
    ctx.rpc_id = rpc_name_to_id("bedrock/migrate_provider");
    ctx.trace = TraceContext{next_trace_id(), next_span_id(), 0};
    remi::MigrationOptions opts;
    opts.method = remi::Method::Chunks;
    opts.chunk_size = 1500; // forces multiple chunks and file splits
    opts.pipeline_width = 3;
    {
        ContextScope scope{ctx};
        auto stats = remi::migrate(src, store, fileset, "sim://dst", 1, opts);
        ASSERT_TRUE(stats.has_value()) << stats.error().message;
        EXPECT_GT(stats->messages, 1u);
    }

    auto trace = tracer->trace(ctx.trace.trace_id);
    std::size_t chunk_forwards = 0;
    for (const auto& s : trace) {
        if (s.kind == "forward" && s.name == "remi/write_chunk") {
            ++chunk_forwards;
            EXPECT_EQ(s.parent_span_id, ctx.trace.span_id)
                << "worker ULT lost the ambient context";
        }
    }
    EXPECT_GT(chunk_forwards, 1u) << tracer->span_tree();
    // Nothing escaped into a separate trace.
    for (const auto& s : tracer->spans()) {
        if (s.name == "remi/write_chunk") {
            EXPECT_EQ(s.trace_id, ctx.trace.trace_id);
        }
    }

    provider.reset();
    src->shutdown();
    dst->shutdown();
}

TEST(Tracing, BulkTransferAppearsAsChildOfHandlerSpan) {
    remi::SimFileStore::destroy_node("sim://src");
    remi::SimFileStore::destroy_node("sim://dst");
    auto fabric = mercury::Fabric::create();
    auto src = margo::Instance::create(fabric, "sim://src").value();
    auto dst = margo::Instance::create(fabric, "sim://dst").value();
    auto provider = std::make_unique<remi::Provider>(dst, 1);
    auto tracer = std::make_shared<TracingMonitor>();
    src->add_monitor(tracer);
    dst->add_monitor(tracer);

    auto store = remi::SimFileStore::for_node("sim://src");
    ASSERT_TRUE(store->write("/r/file", std::string(4096, 'y')).ok());
    auto fileset = remi::Fileset::scan(*store, "/r/");
    remi::MigrationOptions opts; // Rdma: fetch_rdma handler bulk-pulls
    auto stats = remi::migrate(src, store, fileset, "sim://dst", 1, opts);
    ASSERT_TRUE(stats.has_value()) << stats.error().message;

    auto spans = tracer->spans();
    const Span* hdl = find_span(spans, "handler", "remi/fetch_rdma", "sim://dst");
    ASSERT_NE(hdl, nullptr);
    const Span* bulk = find_span(spans, "bulk", "__bulk__", "sim://dst");
    ASSERT_NE(bulk, nullptr) << tracer->span_tree();
    EXPECT_EQ(bulk->trace_id, hdl->trace_id);
    EXPECT_EQ(bulk->parent_span_id, hdl->span_id);
    EXPECT_EQ(bulk->peer, "sim://src");

    provider.reset();
    src->shutdown();
    dst->shutdown();
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

TEST(Tracing, TraceEventsJsonIsWellFormedChromeFormat) {
    TracedPair w;
    ASSERT_TRUE(w.server
                    ->register_rpc("echo", k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(""); })
                    .has_value());
    ASSERT_TRUE(w.client->forward("sim://server", "echo", "x").has_value());
    ASSERT_TRUE(eventually([&] { return all_spans_closed(*w.tracer); }));

    auto doc = w.tracer->trace_events_json();
    // Round-trips through the JSON parser.
    auto reparsed = json::Value::parse(doc.dump());
    ASSERT_TRUE(reparsed.has_value());
    const auto& events = (*reparsed)["traceEvents"];
    ASSERT_TRUE(events.is_array());
    std::size_t metadata = 0, complete = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto& e = events[i];
        std::string ph = e["ph"].as_string();
        if (ph == "M") {
            ++metadata;
            EXPECT_EQ(e["name"].as_string(), "process_name");
            EXPECT_FALSE(e["args"]["name"].as_string().empty());
        } else {
            ASSERT_EQ(ph, "X");
            ++complete;
            EXPECT_TRUE(e["pid"].is_integer());
            EXPECT_TRUE(e["ts"].is_number());
            EXPECT_TRUE(e["dur"].is_number());
            EXPECT_GT(e["args"]["span_id"].as_integer(), 0);
        }
    }
    EXPECT_EQ(metadata, 2u); // client + server
    EXPECT_EQ(complete, 2u); // forward + handler
}

// ---------------------------------------------------------------------------
// Metrics primitives
// ---------------------------------------------------------------------------

TEST(Metrics, CounterAndGaugeSemantics) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    Gauge g;
    g.set(3.5);
    EXPECT_DOUBLE_EQ(g.value(), 3.5);
    g.add(-1.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(Metrics, HistogramExponentialBuckets) {
    Histogram h{HistogramOptions{1.0, 2.0, 4}}; // bounds 1,2,4,8 (+inf)
    ASSERT_EQ(h.bounds(), (std::vector<double>{1, 2, 4, 8}));
    h.observe(0.5);  // <= 1
    h.observe(1.0);  // <= 1 (upper bound inclusive)
    h.observe(3.0);  // <= 4
    h.observe(100.0); // overflow
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 104.5);
    EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2, 0, 1, 0, 1}));
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.75), 4.0);
    auto j = h.to_json();
    EXPECT_EQ(j["count"].as_integer(), 4);
    EXPECT_EQ(j["buckets"].size(), 5u);
}

TEST(Metrics, RegistryReturnsStableReferences) {
    MetricsRegistry reg;
    Counter& a = reg.counter("x_total");
    a.inc();
    Counter& b = reg.counter("x_total");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 1u);
    auto j = reg.to_json();
    EXPECT_EQ(j["counters"]["x_total"].as_integer(), 1);
    EXPECT_TRUE(j["gauges"].is_object());
    EXPECT_TRUE(j["histograms"].is_object());
}

TEST(Metrics, RuntimeFeedsRegistryThroughMonitor) {
    TracedPair w;
    ASSERT_TRUE(w.server
                    ->register_rpc("echo", k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(""); })
                    .has_value());
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(w.client->forward("sim://server", "echo", "x").has_value());
    (void)w.client->forward("sim://server", "missing", ""); // one failure

    auto& client_m = *w.client->metrics();
    auto& server_m = *w.server->metrics();
    EXPECT_EQ(client_m.counter("margo_rpc_forwards_total").value(), 6u);
    EXPECT_EQ(client_m.counter("margo_rpc_forward_failures_total").value(), 1u);
    EXPECT_EQ(client_m.histogram("margo_rpc_forward_latency_us").count(), 5u);
    EXPECT_GT(client_m.histogram("margo_rpc_forward_latency_us").sum(), 0.0);
    EXPECT_EQ(server_m.counter("margo_rpc_handled_total").value(), 5u);
    EXPECT_EQ(server_m.histogram("margo_rpc_handler_duration_us").count(), 5u);
    EXPECT_EQ(server_m.histogram("margo_rpc_queue_delay_us").count(), 5u);
    // The snapshot renders everything.
    auto snap = w.server->metrics_json();
    EXPECT_EQ(snap["counters"]["margo_rpc_handled_total"].as_integer(), 5);
}

// ---------------------------------------------------------------------------
// Bedrock exposure
// ---------------------------------------------------------------------------

TEST(Metrics, BedrockScrapeAndJx9Query) {
    yokan::register_module();
    remi::SimFileStore::destroy_node("sim://mnode");
    auto fabric = mercury::Fabric::create();
    auto proc = bedrock::Process::spawn(fabric, "sim://mnode", parse(R"({
        "libraries": {"yokan": "libyokan.so"},
        "providers": [{"name": "db", "type": "yokan", "provider_id": 1}]
    })")).value();
    auto client_margo = margo::Instance::create(fabric, "sim://client").value();

    yokan::Database db{client_margo, "sim://mnode", 1};
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(db.put("k" + std::to_string(i), "v").ok());

    bedrock::Client client{client_margo};
    auto handle = client.makeServiceHandle("sim://mnode");
    auto metrics = handle.getMetrics();
    ASSERT_TRUE(metrics.has_value()) << metrics.error().message;
    EXPECT_EQ((*metrics)["counters"]["yokan_puts_total"].as_integer(), 3);
    EXPECT_GE((*metrics)["counters"]["margo_rpc_handled_total"].as_integer(), 3);
    EXPECT_TRUE((*metrics)["histograms"]["margo_rpc_handler_duration_us"].is_object());

    // The same snapshot is visible to remote Jx9 queries as $__metrics__.
    auto puts = handle.queryConfig(R"(
        return $__metrics__.counters.yokan_puts_total;
    )");
    ASSERT_TRUE(puts.has_value()) << puts.error().message;
    EXPECT_EQ(puts->as_integer(), 3);

    client_margo->shutdown();
    proc->shutdown();
}

TEST(Metrics, ComponentCountersAccumulate) {
    remi::SimFileStore::destroy_node("sim://wnode");
    auto fabric = mercury::Fabric::create();
    auto server = margo::Instance::create(fabric, "sim://wnode").value();
    auto client = margo::Instance::create(fabric, "sim://client").value();
    warabi::Provider provider{server, 2};
    warabi::TargetHandle target{client, "sim://wnode", 2};
    auto region = target.create(64);
    ASSERT_TRUE(region.has_value());
    ASSERT_TRUE(target.write(*region, 0, "0123456789").ok());
    auto data = target.read(*region, 0, 10);
    ASSERT_TRUE(data.has_value());
    auto& m = *server->metrics();
    EXPECT_EQ(m.counter("warabi_regions_created_total").value(), 1u);
    EXPECT_EQ(m.counter("warabi_bytes_written_total").value(), 10u);
    EXPECT_EQ(m.counter("warabi_bytes_read_total").value(), 10u);
    client->shutdown();
    server->shutdown();
}

// ---------------------------------------------------------------------------
// Per-op spans inside batched RPCs
// ---------------------------------------------------------------------------

TEST(Tracing, BatchedRpcKeepsPerOpSpans) {
    // One put_multi RPC carrying N ops must yield N "op" spans, each a child
    // of the single handler span — coalescing the wire traffic must not
    // collapse the observability of individual operations.
    TracedPair w;
    yokan::Provider provider{w.server, 3, {}};
    yokan::Database db{w.client, "sim://server", 3};
    constexpr std::size_t k_ops = 12;
    std::vector<std::pair<std::string, std::string>> pairs;
    for (std::size_t i = 0; i < k_ops; ++i)
        pairs.emplace_back("k" + std::to_string(i), "v");
    ASSERT_TRUE(db.put_multi(pairs).ok());
    ASSERT_TRUE(eventually([&] {
        auto spans = w.tracer->spans();
        std::size_t ops = 0;
        for (const auto& s : spans)
            if (s.kind == "op") ++ops;
        return ops == k_ops && all_spans_closed(*w.tracer);
    }));

    auto spans = w.tracer->spans();
    const Span* hdl = find_span(spans, "handler", "yokan/put_multi");
    ASSERT_NE(hdl, nullptr);
    std::size_t ops = 0;
    for (const auto& s : spans) {
        if (s.kind != "op") continue;
        ++ops;
        EXPECT_EQ(s.name, "yokan/put");
        EXPECT_EQ(s.trace_id, hdl->trace_id);
        EXPECT_EQ(s.parent_span_id, hdl->span_id);
        EXPECT_EQ(s.process, "sim://server");
        EXPECT_TRUE(s.ok);
    }
    EXPECT_EQ(ops, k_ops);
    // The metrics side counted every op too.
    EXPECT_EQ(w.server->metrics()->counter("margo_batch_ops_total").value(), k_ops);
    EXPECT_EQ(w.server->metrics()->counter("yokan_puts_total").value(), k_ops);
}

TEST(Tracing, AsyncForwardSpansMatchSyncShape) {
    // forward_async must produce the same forward/handler span pair as a
    // synchronous forward, closed when the response is consumed.
    TracedPair w;
    ASSERT_TRUE(w.server
                    ->register_rpc("echo", k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(req.payload()); })
                    .has_value());
    auto req = w.client->forward_async("sim://server", "echo", "ping");
    ASSERT_TRUE(req.wait().has_value());
    ASSERT_TRUE(eventually([&] {
        return w.tracer->spans().size() == 2 && all_spans_closed(*w.tracer);
    }));
    auto spans = w.tracer->spans();
    const Span* fwd = find_span(spans, "forward", "echo");
    const Span* hdl = find_span(spans, "handler", "echo");
    ASSERT_NE(fwd, nullptr);
    ASSERT_NE(hdl, nullptr);
    EXPECT_EQ(fwd->trace_id, hdl->trace_id);
    EXPECT_EQ(hdl->parent_span_id, fwd->span_id);
    EXPECT_TRUE(fwd->ok);
}

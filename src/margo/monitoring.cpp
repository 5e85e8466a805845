#include "margo/monitoring.hpp"

namespace mochi::margo {

json::Value Statistics::to_json() const {
    auto v = json::Value::object();
    v["num"] = num;
    v["avg"] = avg();
    v["min"] = num ? min : 0.0;
    v["max"] = num ? max : 0.0;
    v["sum"] = sum;
    v["var"] = variance();
    return v;
}

StatisticsMonitor::StatisticsMonitor(std::shared_ptr<MetricsRegistry> registry)
: m_registry(std::move(registry)),
  m_forwards(m_registry->counter("margo_rpc_forwards_total")),
  m_forward_failures(m_registry->counter("margo_rpc_forward_failures_total")),
  m_handled(m_registry->counter("margo_rpc_handled_total")),
  m_bulk_transfers(m_registry->counter("margo_bulk_transfers_total")),
  m_bulk_bytes(m_registry->counter("margo_bulk_bytes_total")),
  m_batch_ops(m_registry->counter("margo_batch_ops_total")),
  m_batch_op_failures(m_registry->counter("margo_batch_op_failures_total")),
  m_forward_latency(m_registry->histogram("margo_rpc_forward_latency_us")),
  m_handler_duration(m_registry->histogram("margo_rpc_handler_duration_us")),
  m_queue_delay(m_registry->histogram("margo_rpc_queue_delay_us")),
  m_in_flight_gauge(m_registry->gauge("margo_in_flight_rpcs")) {}

StatisticsMonitor::RpcStats& StatisticsMonitor::stats_for(const CallContext& ctx) {
    auto& s = m_rpcs[StatKey{ctx.parent_rpc_id, ctx.parent_provider_id, ctx.rpc_id,
                             ctx.provider_id}];
    if (s.name.empty()) {
        s.rpc_id = ctx.rpc_id;
        s.provider_id = ctx.provider_id;
        s.parent_rpc_id = ctx.parent_rpc_id;
        s.parent_provider_id = ctx.parent_provider_id;
        s.name = ctx.name;
    }
    return s;
}

void StatisticsMonitor::on_forward_start(const CallContext& ctx) {
    m_forwards.inc();
    std::lock_guard lk{m_mutex};
    auto& s = stats_for(ctx);
    s.origin[ctx.peer].request_size.add(static_cast<double>(ctx.payload_size));
}

void StatisticsMonitor::on_forward_complete(const CallContext& ctx, bool ok) {
    if (ok)
        m_forward_latency.observe(ctx.duration_us);
    else
        m_forward_failures.inc();
    std::lock_guard lk{m_mutex};
    auto& peer = stats_for(ctx).origin[ctx.peer];
    if (ok)
        peer.forward_duration.add(ctx.duration_us);
    else
        ++peer.failures;
}

void StatisticsMonitor::on_request_received(const CallContext& ctx) {
    std::lock_guard lk{m_mutex};
    auto& s = stats_for(ctx);
    s.target[ctx.peer].request_size.add(static_cast<double>(ctx.payload_size));
}

void StatisticsMonitor::on_handler_start(const CallContext& ctx) {
    m_queue_delay.observe(ctx.queue_delay_us);
    std::lock_guard lk{m_mutex};
    auto& s = stats_for(ctx);
    s.target[ctx.peer].ult_queue_delay.add(ctx.queue_delay_us);
}

void StatisticsMonitor::on_handler_complete(const CallContext& ctx) {
    m_handled.inc();
    m_handler_duration.observe(ctx.duration_us);
    std::lock_guard lk{m_mutex};
    auto& s = stats_for(ctx);
    s.target[ctx.peer].handler_duration.add(ctx.duration_us);
}

void StatisticsMonitor::on_bulk_complete(const CallContext& ctx, std::size_t bytes,
                                         double duration_us) {
    m_bulk_transfers.inc();
    m_bulk_bytes.inc(bytes);
    std::lock_guard lk{m_mutex};
    auto& s = stats_for(ctx);
    s.bulk_size.add(static_cast<double>(bytes));
    s.bulk_duration.add(duration_us);
}

void StatisticsMonitor::on_batch_op(const CallContext&, bool ok) {
    m_batch_ops.inc();
    if (!ok) m_batch_op_failures.inc();
}

void StatisticsMonitor::on_progress_sample(std::size_t in_flight_rpcs,
                                           const std::map<std::string, std::size_t>& pool_sizes) {
    m_in_flight_gauge.set(static_cast<double>(in_flight_rpcs));
    std::lock_guard lk{m_mutex};
    ++m_samples;
    m_in_flight.add(static_cast<double>(in_flight_rpcs));
    for (const auto& [name, size] : pool_sizes) {
        auto it = m_pool_sizes.find(name);
        if (it == m_pool_sizes.end()) {
            Gauge& gauge = m_registry->gauge("margo_pool_size_" + name);
            it = m_pool_sizes.emplace(name, PoolSample{{}, &gauge}).first;
        }
        it->second.size.add(static_cast<double>(size));
        it->second.gauge->set(static_cast<double>(size));
    }
}

json::Value StatisticsMonitor::to_json() const {
    std::lock_guard lk{m_mutex};
    auto doc = json::Value::object();
    auto& rpcs = doc["rpcs"];
    rpcs = json::Value::object();
    for (const auto& [key, s] : m_rpcs) {
        // Listing 1 textual key, rebuilt only here at render time.
        auto& r = rpcs[std::to_string(key.parent_rpc_id) + ":" +
                       std::to_string(key.parent_provider_id) + ":" +
                       std::to_string(key.rpc_id) + ":" + std::to_string(key.provider_id)];
        r["rpc_id"] = s.rpc_id;
        r["provider_id"] = s.provider_id;
        r["parent_rpc_id"] = s.parent_rpc_id;
        r["parent_provider_id"] = s.parent_provider_id;
        r["name"] = s.name;
        r["origin"] = json::Value::object();
        for (const auto& [peer, ps] : s.origin) {
            auto& p = r["origin"]["sent to " + peer];
            p["forward"]["duration"] = ps.forward_duration.to_json();
            p["request_size"] = ps.request_size.to_json();
            p["failures"] = ps.failures;
        }
        r["target"] = json::Value::object();
        for (const auto& [peer, ps] : s.target) {
            auto& p = r["target"]["received from " + peer];
            p["ult"]["queue_delay"] = ps.ult_queue_delay.to_json();
            p["ult"]["duration"] = ps.handler_duration.to_json();
            p["request_size"] = ps.request_size.to_json();
        }
        if (s.bulk_size.num > 0) {
            r["bulk"]["size"] = s.bulk_size.to_json();
            r["bulk"]["duration"] = s.bulk_duration.to_json();
        }
    }
    auto& progress = doc["progress"];
    progress["samples"] = m_samples;
    progress["in_flight_rpcs"] = m_in_flight.to_json();
    progress["pools"] = json::Value::object();
    for (const auto& [name, pool] : m_pool_sizes)
        progress["pools"][name]["size"] = pool.size.to_json();
    return doc;
}

} // namespace mochi::margo

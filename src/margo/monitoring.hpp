// Margo's customizable monitoring infrastructure (§4 of the paper).
//
// The runtime invokes Monitor callbacks at every step of an RPC's lifetime
// (forward start/completion at the origin; reception, ULT scheduling,
// handler execution at the target; bulk transfers) and periodically samples
// runtime-wide gauges (in-flight RPCs, pool depths). Any component built on
// Margo gets this "at no engineering cost".
//
// StatisticsMonitor is the default implementation: it aggregates statistics
// keyed by (parent_rpc_id:parent_provider_id:rpc_id:provider_id) and peer
// address, and dumps them as JSON in the shape of the paper's Listing 1. The
// same callbacks feed the runtime's margo_* metrics (metrics.hpp), so every
// RPC event is recorded by a single default monitor.
#pragma once

#include "common/json.hpp"
#include "margo/metrics.hpp"

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>

namespace mochi::margo {

/// Provider id used for RPCs not addressed to a specific provider; matches
/// Margo's MARGO_DEFAULT_PROVIDER_ID shown as 65535 in Listing 1.
inline constexpr std::uint16_t k_default_provider_id = 65535;

/// Sentinel for the 64-bit parent_rpc_id fields (CallContext,
/// mercury::Message) when an RPC has no parent, i.e. it is a root operation
/// issued outside any handler. Listing 1 renders the "no parent" slots of
/// the statistics key with the default provider id (65535), so the sentinel
/// is kept numerically equal to k_default_provider_id — but it is a
/// distinct, properly 64-bit-typed constant: parent_rpc_id holds *RPC ids*
/// (32-bit name hashes widened to 64 bits), not provider ids.
inline constexpr std::uint64_t k_no_parent_rpc_id = 65535;

/// Identity and timing context of one RPC operation, passed to callbacks.
struct CallContext {
    std::uint64_t rpc_id = 0;
    std::uint16_t provider_id = k_default_provider_id;
    std::uint64_t parent_rpc_id = k_no_parent_rpc_id; // see k_no_parent_rpc_id
    std::uint16_t parent_provider_id = k_default_provider_id;
    std::string name;        ///< RPC name, e.g. "echo"
    std::string peer;        ///< target address (origin side) / source (target side)
    /// Address of the process invoking the callback: a view of the
    /// instance's own address, valid while the instance lives (contexts
    /// never outlive it — dispatch and async-forward state pin it).
    std::string_view self;
    std::size_t payload_size = 0;
    // Durations in microseconds, filled per callback (see each callback doc).
    double duration_us = 0;
    double queue_delay_us = 0; ///< reception -> handler ULT start
    // Distributed-tracing identity (0 = untraced). On the origin side,
    // span_id is the forward span; on the target side it is the handler
    // span and parent_span_id is the originating forward span.
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_span_id = 0;
};

/// Callback interface. All methods have empty defaults so custom monitors
/// override only what they need ("lets users inject callbacks ... at various
/// points in the lifetime of an RPC").
class Monitor {
  public:
    virtual ~Monitor() = default;

    /// Origin: forward() is about to send the request.
    virtual void on_forward_start(const CallContext&) {}
    /// Origin: response received (duration_us = full round trip) or failed.
    virtual void on_forward_complete(const CallContext&, bool ok) { (void)ok; }
    /// Target: request arrived at the progress loop.
    virtual void on_request_received(const CallContext&) {}
    /// Target: handler ULT started (queue_delay_us set).
    virtual void on_handler_start(const CallContext&) {}
    /// Target: handler ULT finished (duration_us = execution time).
    virtual void on_handler_complete(const CallContext&) {}
    /// Either side: bulk (RDMA) transfer completed.
    virtual void on_bulk_complete(const CallContext&, std::size_t bytes, double duration_us) {
        (void)bytes;
        (void)duration_us;
    }
    /// Target: one logical operation inside a *batched* RPC finished.
    /// Vectored handlers coalesce N client operations into a single RPC, so
    /// the fabric-level callbacks above only see the enclosing request; they
    /// call Instance::notify_batch_op() per operation so traces and metrics
    /// keep per-op resolution (ctx carries a child span of the handler span,
    /// duration_us = that op's execution time).
    virtual void on_batch_op(const CallContext&, bool ok) { (void)ok; }
    /// Periodic runtime sample: in-flight RPC count and pool depths (§4:
    /// "periodically tracks the number of in-flight RPCs and the sizes of
    /// user-level thread pools").
    virtual void on_progress_sample(std::size_t in_flight_rpcs,
                                    const std::map<std::string, std::size_t>& pool_sizes) {
        (void)in_flight_rpcs;
        (void)pool_sizes;
    }
    /// Instance::shutdown() is beginning. Monitors that drive background
    /// work (decision threads, timers) must stop issuing runtime operations
    /// and join in-flight work before returning — the ULT runtime is
    /// finalized right after the drain, so work that escapes this hook races
    /// teardown.
    virtual void on_shutdown() {}
};

/// Simple streaming statistics accumulator (num/avg/min/max/sum/var).
struct Statistics {
    std::uint64_t num = 0;
    double sum = 0, sum_sq = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();

    void add(double x) noexcept {
        ++num;
        sum += x;
        sum_sq += x * x;
        if (x < min) min = x;
        if (x > max) max = x;
    }
    [[nodiscard]] double avg() const noexcept { return num ? sum / static_cast<double>(num) : 0; }
    [[nodiscard]] double variance() const noexcept {
        if (num < 2) return 0;
        double a = avg();
        return sum_sq / static_cast<double>(num) - a * a;
    }
    [[nodiscard]] json::Value to_json() const;
};

/// Default monitor: aggregates per-RPC statistics and runtime gauges,
/// renders them in the Listing 1 JSON schema, and feeds the margo_* metrics
/// of `registry` (see docs/OBSERVABILITY.md).
class StatisticsMonitor : public Monitor {
  public:
    explicit StatisticsMonitor(std::shared_ptr<MetricsRegistry> registry);

    void on_forward_start(const CallContext& ctx) override;
    void on_forward_complete(const CallContext& ctx, bool ok) override;
    void on_request_received(const CallContext& ctx) override;
    void on_handler_start(const CallContext& ctx) override;
    void on_handler_complete(const CallContext& ctx) override;
    void on_bulk_complete(const CallContext& ctx, std::size_t bytes, double duration_us) override;
    /// Metrics only: batched sub-ops are not part of the Listing 1 document.
    void on_batch_op(const CallContext& ctx, bool ok) override;
    void on_progress_sample(std::size_t in_flight_rpcs,
                            const std::map<std::string, std::size_t>& pool_sizes) override;

    /// Render all statistics as JSON (the runtime API of §4; the same
    /// document Margo would write out at shutdown).
    [[nodiscard]] json::Value to_json() const;

  private:
    struct PeerOriginStats {
        Statistics forward_duration;
        Statistics request_size;
        std::uint64_t failures = 0;
    };
    struct PeerTargetStats {
        Statistics ult_queue_delay;
        Statistics handler_duration;
        Statistics request_size;
    };
    struct RpcStats {
        std::uint64_t rpc_id = 0;
        std::uint16_t provider_id = 0;
        std::uint64_t parent_rpc_id = 0;
        std::uint16_t parent_provider_id = 0;
        std::string name;
        // Keyed by the plain peer address; the "sent to "/"received from "
        // prefixes of Listing 1 are applied only when rendering, so the hot
        // path never builds a prefixed key string per event.
        std::map<std::string, PeerOriginStats> origin; ///< by target address
        std::map<std::string, PeerTargetStats> target; ///< by source address
        Statistics bulk_size;
        Statistics bulk_duration;
    };

    /// Numeric aggregation key. The Listing 1 textual form
    /// "parent_rpc:parent_provider:rpc:provider" is produced at to_json()
    /// time; keeping the map key numeric means a monitored RPC event does
    /// four std::to_string-free integer comparisons instead of building a
    /// throwaway key string (and its heap allocation) per callback.
    struct StatKey {
        std::uint64_t parent_rpc_id;
        std::uint16_t parent_provider_id;
        std::uint64_t rpc_id;
        std::uint16_t provider_id;
        bool operator<(const StatKey& o) const noexcept {
            return std::tie(parent_rpc_id, parent_provider_id, rpc_id, provider_id) <
                   std::tie(o.parent_rpc_id, o.parent_provider_id, o.rpc_id, o.provider_id);
        }
    };

    RpcStats& stats_for(const CallContext& ctx);

    std::shared_ptr<MetricsRegistry> m_registry;
    // margo_* handles, resolved once (the registry keeps them alive) so no
    // event looks a metric up by name. They are lock-free: callbacks update
    // them before taking m_mutex, keeping its critical section Listing-1 only.
    Counter& m_forwards;
    Counter& m_forward_failures;
    Counter& m_handled;
    Counter& m_bulk_transfers;
    Counter& m_bulk_bytes;
    Counter& m_batch_ops;
    Counter& m_batch_op_failures;
    Histogram& m_forward_latency;
    Histogram& m_handler_duration;
    Histogram& m_queue_delay;
    Gauge& m_in_flight_gauge;

    mutable std::mutex m_mutex;
    std::map<StatKey, RpcStats> m_rpcs;
    Statistics m_in_flight;
    std::map<std::string, Statistics> m_pool_sizes;
    std::uint64_t m_samples = 0;
};

} // namespace mochi::margo

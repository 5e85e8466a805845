#include "margo/instance.hpp"
#include "common/logging.hpp"

#include <thread>

namespace mochi::margo {

std::uint64_t rpc_name_to_id(std::string_view name) noexcept {
    // 32-bit FNV-1a, like Mercury's hashing of RPC names.
    std::uint32_t h = 2166136261u;
    for (unsigned char c : name) {
        h ^= c;
        h *= 16777619u;
    }
    return h;
}

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

void Request::respond(std::string payload) const { send_response(std::move(payload), 0); }

void Request::respond_error(const Error& err) const {
    send_response(err.message, static_cast<std::int32_t>(err.code) + 1); // 0 reserved for ok
}

void Request::send_response(std::string payload, std::int32_t status) const {
    mercury::Message resp;
    resp.kind = mercury::Message::Kind::Response;
    resp.rpc_id = m_msg.rpc_id;
    resp.provider_id = m_msg.provider_id;
    resp.seq = m_msg.seq;
    resp.payload = std::move(payload);
    resp.status = status;
    (void)m_instance->m_endpoint->send(m_msg.source, std::move(resp));
}

// ---------------------------------------------------------------------------
// Instance lifecycle
// ---------------------------------------------------------------------------

Expected<InstancePtr> Instance::create(std::shared_ptr<mercury::Fabric> fabric,
                                       std::string address, const json::Value& config) {
    auto inst = InstancePtr(new Instance());
    inst->m_fabric = std::move(fabric);
    inst->m_address = std::move(address);
    inst->m_epoch = std::chrono::steady_clock::now();

    // Lightweight mode: no dedicated OS threads for this instance — ESs are
    // virtual (serviced by the fabric's shared worker crew) and the timer is
    // a child of the fabric's shared timer. This is what makes 100+
    // simulated nodes per process affordable.
    abt::SharedExecution shared;
    if (config.get_bool("lightweight", false)) {
        shared.executor = &inst->m_fabric->lite_executor();
        shared.parent_timer = &inst->m_fabric->lite_timer();
    }
    auto rt = abt::Runtime::create(config["argobots"], shared);
    if (!rt) return rt.error();
    inst->m_runtime = std::move(rt).value();

    // Resolve progress/handler pools (default: first pool).
    auto resolve = [&](const char* key) -> Expected<std::shared_ptr<abt::Pool>> {
        std::string name = config.get_string(key);
        if (name.empty()) return inst->m_runtime->primary_pool();
        return inst->m_runtime->find_pool(name);
    };
    auto progress = resolve("progress_pool");
    if (!progress) return progress.error();
    inst->m_progress_pool = std::move(progress).value();
    auto handler = resolve("handler_pool");
    if (!handler) return handler.error();
    inst->m_handler_pool = std::move(handler).value();

    if (auto t = config.get_integer("rpc_timeout_ms", 0); t > 0)
        inst->m_default_timeout = std::chrono::milliseconds(t);

    inst->m_metrics = std::make_shared<MetricsRegistry>();
    inst->m_stats = std::make_shared<StatisticsMonitor>(inst->m_metrics);
    inst->m_monitors.push_back(inst->m_stats);
    inst->m_qos = std::make_unique<QosManager>(inst->m_metrics);
    inst->m_qos->configure(config["qos"]);
    const auto& mon = config["monitoring"];
    inst->m_monitoring_enabled = mon.get_bool("enable", true);
    if (auto p = mon.get_integer("sampling_period_ms", 0); p > 0)
        inst->m_sampling_period = std::chrono::milliseconds(p);

    auto ep = inst->m_fabric->attach(inst->m_address, [w = std::weak_ptr<Instance>(inst)](
                                                          mercury::Message msg) {
        if (auto self = w.lock()) self->on_network_message(std::move(msg));
    });
    if (!ep) return ep.error();
    inst->m_endpoint = std::move(ep).value();
    // Fast-path inbox: clean links deliver requests straight into the
    // endpoint's MPSC ring (no timer); the wakeup only has to unpark the
    // progress loop when it has actually gone idle.
    inst->m_endpoint->enable_fast_inbox([w = std::weak_ptr<Instance>(inst)] {
        if (auto self = w.lock()) self->wake_progress_loop();
    });
    // Register the recycle counter up front so it shows up (at zero) in
    // metrics snapshots taken before the first sync.
    inst->m_metrics->counter("margo_pool_recycled_total");

    // Start the network progress loop on its pool (Figure 2).
    inst->m_runtime->post(inst->m_progress_pool,
                          [w = std::weak_ptr<Instance>(inst)] {
                              if (auto self = w.lock()) self->progress_loop();
                          });
    // Take the first progress sample now: its one-time work (the pool-size
    // map's nodes, each pool's gauge) is done before any traffic, and every
    // later tick on the timer thread allocates nothing.
    inst->sampler_tick();
    return inst;
}

Instance::~Instance() { shutdown(); }

void Instance::shutdown() {
    bool was = m_stopping.exchange(true);
    if (was) return; // m_stopping also ends the self-rescheduling sampler
    // Let monitors quiesce background work (e.g. autoscaler decision
    // threads) while the runtime is still fully alive. Copied out so a
    // monitor joining a thread never holds m_monitors_mutex.
    {
        std::vector<std::shared_ptr<Monitor>> monitors;
        {
            std::lock_guard lk{m_monitors_mutex};
            monitors = m_monitors;
        }
        for (auto& m : monitors) m->on_shutdown();
    }
    // Wake the progress loop and wait for it to drain.
    m_queue_cv.signal_all();
    m_progress_done.wait();
    // Close the pending-call registry and cancel everything registered so
    // far. Closing it under the lock makes the race with forward()
    // deterministic: a forward that registered before this sweep is
    // cancelled right here; one arriving after sees the closed registry and
    // fails fast without ever blocking.
    PendingMap pending{PendingMap::key_compare{}, PendingMap::allocator_type{m_pending_node_pool}};
    {
        std::lock_guard lk{m_pending_mutex};
        m_pending_closed = true;
        pending = std::move(m_pending); // same allocator: node steal, no copies
        m_pending.clear();
    }
    for (auto& [seq, reply] : pending) {
        mercury::Message m;
        m.status = static_cast<std::int32_t>(Error::Code::Canceled) + 1;
        m.payload = "instance shut down";
        reply->set_value(std::move(m));
    }
    // Condition-based drain: the last in-flight forward signals on its way
    // out (its guard observes m_stopping). If a forward's decrement to zero
    // predates the m_stopping store in the seq_cst order, its guard may skip
    // the signal — but then the load below is ordered after that decrement
    // and reads zero, so exactly one side always sets the eventual.
    if (m_active_forwards.load() == 0) m_forwards_drained.set();
    m_forwards_drained.wait();
    m_endpoint->detach();
    m_runtime->finalize();
    // "The default implementation of this monitoring system captures
    // statistics and outputs them as JSON when shutting down the service."
    if (m_monitoring_dump_sink) m_monitoring_dump_sink(m_stats->to_json());
    m_stopped.store(true);
}

double Instance::now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - m_epoch)
        .count();
}

// ---------------------------------------------------------------------------
// RPC registration
// ---------------------------------------------------------------------------

Expected<std::uint64_t> Instance::register_rpc(std::string name, std::uint16_t provider_id,
                                               Handler handler,
                                               std::shared_ptr<abt::Pool> pool) {
    std::uint64_t id = rpc_name_to_id(name);
    std::lock_guard lk{m_rpc_mutex};
    auto key = std::make_pair(id, provider_id);
    if (auto it = m_rpcs.find(key); it != m_rpcs.end()) {
        // Distinguish a true duplicate from a 32-bit hash collision between
        // different names: the latter would silently alias two RPCs.
        if (it->second->name != name)
            return Error{Error::Code::Conflict,
                         "RPC id collision: '" + name + "' and '" + it->second->name +
                             "' hash to the same 32-bit id " + std::to_string(id) +
                             " (provider " + std::to_string(provider_id) + ")"};
        return Error{Error::Code::AlreadyExists,
                     "RPC '" + name + "' already registered for provider " +
                         std::to_string(provider_id)};
    }
    auto entry = std::make_shared<RpcEntry>();
    entry->name = std::move(name);
    entry->handler = std::move(handler);
    entry->pool = pool ? std::move(pool) : m_handler_pool;
    m_rpcs[key] = std::move(entry);
    return id;
}

namespace {
/// Wait until no handler ULT for an erased registration is still running.
/// ULT-aware: abt::yield() lets sibling ULTs proceed when called from one,
/// and degrades to a thread yield (plus a short sleep so a single-core host
/// is not starved) elsewhere. Handlers finish on their own and the erased
/// map entry guarantees no new invocation starts, but a handler stuck on a
/// long forward timeout stalls this wait for the full duration — returning
/// early would let the caller destroy state the handler still uses, so the
/// wait stays unbounded and instead logs its progress once per second.
void drain_handlers(const std::shared_ptr<std::atomic<int>>& inflight) {
    auto next_warn = std::chrono::steady_clock::now() + std::chrono::seconds(1);
    int waited_s = 0;
    while (inflight->load(std::memory_order_acquire) != 0) {
        abt::yield();
        if (!abt::current_ult())
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        if (std::chrono::steady_clock::now() >= next_warn) {
            ++waited_s;
            log::warn("margo",
                      "deregister: still waiting on %d in-flight handler(s) after %d s",
                      inflight->load(std::memory_order_relaxed), waited_s);
            next_warn += std::chrono::seconds(1);
        }
    }
}
} // namespace

Status Instance::deregister_rpc(std::string_view name, std::uint16_t provider_id) {
    std::shared_ptr<std::atomic<int>> inflight;
    {
        std::lock_guard lk{m_rpc_mutex};
        auto key = std::make_pair(rpc_name_to_id(name), provider_id);
        auto it = m_rpcs.find(key);
        if (it == m_rpcs.end())
            return Error{Error::Code::NotFound,
                         "RPC '" + std::string(name) + "' not registered for provider " +
                             std::to_string(provider_id)};
        if (it->second->name != name)
            return Error{Error::Code::Conflict,
                         "deregister_rpc('" + std::string(name) + "') would remove '" +
                             it->second->name + "': the names collide on 32-bit id " +
                             std::to_string(key.first)};
        inflight = it->second->inflight;
        m_rpcs.erase(it);
    }
    drain_handlers(inflight);
    return {};
}

void Instance::deregister_provider(std::uint16_t provider_id) {
    std::vector<std::shared_ptr<std::atomic<int>>> inflight;
    {
        std::lock_guard lk{m_rpc_mutex};
        for (auto it = m_rpcs.begin(); it != m_rpcs.end();) {
            if (it->first.second == provider_id) {
                inflight.push_back(it->second->inflight);
                it = m_rpcs.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const auto& c : inflight) drain_handlers(c);
}

// ---------------------------------------------------------------------------
// Forward / dispatch
// ---------------------------------------------------------------------------

namespace detail {

/// Shared state behind AsyncRequest handles. Created by forward_async()
/// after the request is on the wire (or failed to get there — then
/// `completed` is already true and `result` holds the send error).
struct AsyncForwardState {
    InstancePtr instance;
    /// The reply, registered in the instance's pending-call map under `seq`.
    abt::Eventual<mercury::Message> reply;
    std::uint64_t seq = 0;
    std::chrono::milliseconds timeout{0};
    CallContext mctx;
    double t0 = 0;
    // Completion is resolved exactly once (first waiter, or the destructor
    // for an abandoned call); the mutex orders concurrent waiters on copies
    // of the handle. It is never held across a blocking wait.
    std::mutex mutex;
    bool completed = false;
    std::optional<Expected<std::string>> result;

    ~AsyncForwardState() {
        if (completed || !instance) return;
        // Abandoned without wait(): release the registry slot so
        // dispatch_response() drops a late reply (or let a delivery that
        // already claimed it finish setting `reply`), and close the forward
        // span as failed so every on_forward_start stays paired.
        if (!instance->release_pending(seq)) reply.wait();
        mctx.duration_us = instance->now_us() - t0;
        instance->emit([&](Monitor& m) { m.on_forward_complete(mctx, false); });
    }
};

} // namespace detail

Expected<std::string> Instance::forward(const std::string& address, std::string_view rpc_name,
                                        std::string payload, ForwardOptions options) {
    // Track in-progress forwards so shutdown() can drain them after failing
    // their pending calls (their ULTs must run to completion before the
    // execution streams are stopped). Held across send *and* wait so the
    // synchronous path counts as one uninterrupted in-flight section.
    ForwardGuard guard{this};
    return forward_async(address, rpc_name, std::move(payload), options).wait();
}

AsyncRequest Instance::forward_async(const std::string& address, std::string_view rpc_name,
                                     std::string payload, ForwardOptions options) {
    // Pooled: the control block + state live in one recycled block, so a
    // warm forward does not touch the heap for its bookkeeping.
    auto state = std::allocate_shared<detail::AsyncForwardState>(
        PoolAllocator<detail::AsyncForwardState>{m_async_state_pool});
    state->instance = shared_from_this();
    state->timeout = options.timeout.count() > 0 ? options.timeout : m_default_timeout;
    auto fail_now = [&](Error e) {
        state->completed = true;
        state->result.emplace(std::move(e));
        return AsyncRequest{std::move(state)};
    };
    if (m_stopping.load())
        return fail_now(Error{Error::Code::InvalidState, "instance is shutting down"});
    // Cover the registration/send window; a blocked waiter re-enters the
    // guard inside AsyncRequest::wait().
    ForwardGuard guard{this};

    mercury::Message msg;
    msg.kind = mercury::Message::Kind::Request;
    msg.rpc_id = rpc_name_to_id(rpc_name);
    msg.rpc_name = std::string(rpc_name);
    msg.provider_id = options.provider_id;
    msg.seq = m_next_seq.fetch_add(1);
    msg.payload = std::move(payload);
    // Parent RPC context (Listing 1): inherited from the ambient RpcContext
    // if the caller is itself serving an RPC (handler ULTs carry it; worker
    // ULTs inherit it via ContextScope).
    RpcContext ambient = current_rpc_context();
    msg.parent_rpc_id = ambient.rpc_id;
    msg.parent_provider_id = ambient.provider_id;
    // Tenant identity rides the envelope like the trace: set by TenantScope
    // on clients, inherited by handler ULTs on servers, so multi-hop fan-out
    // bills to the originating tenant.
    msg.tenant_id = ambient.tenant.id;
    // Forward span: continue the ambient trace, or root a fresh one so every
    // client-side call is traceable end to end. The envelope carries the
    // span id; the target's handler span becomes its child.
    TraceContext span;
    span.trace_id = ambient.trace.active() ? ambient.trace.trace_id : next_trace_id();
    span.parent_span_id = ambient.trace.active() ? ambient.trace.span_id : 0;
    span.span_id = next_span_id();
    msg.trace_id = span.trace_id;
    msg.span_id = span.span_id;

    CallContext& mctx = state->mctx;
    mctx.rpc_id = msg.rpc_id;
    mctx.provider_id = msg.provider_id;
    mctx.parent_rpc_id = msg.parent_rpc_id;
    mctx.parent_provider_id = msg.parent_provider_id;
    mctx.name = std::string(rpc_name);
    mctx.peer = address;
    mctx.self = m_address;
    mctx.payload_size = msg.payload.size();
    mctx.trace_id = span.trace_id;
    mctx.span_id = span.span_id;
    mctx.parent_span_id = span.parent_span_id;

    {
        std::lock_guard lk{m_pending_mutex};
        if (m_pending_closed) {
            // shutdown() already swept the registry; registering now would
            // park this call forever since nobody will cancel it again.
            return fail_now(Error{Error::Code::Canceled, "RPC '" + std::string(rpc_name) +
                                                             "' canceled: instance shut down"});
        }
        m_pending[msg.seq] = &state->reply;
    }
    state->seq = msg.seq;
    state->t0 = now_us();
    emit([&](Monitor& m) { m.on_forward_start(mctx); });

    if (auto st = m_endpoint->send(address, std::move(msg)); !st.ok()) {
        if (!release_pending(state->seq)) state->reply.wait(); // shutdown's sweep claimed it
        emit([&](Monitor& m) { m.on_forward_complete(mctx, false); });
        return fail_now(st.error());
    }
    return AsyncRequest{std::move(state)};
}

bool AsyncRequest::test() const {
    if (!m_state) return false;
    std::lock_guard lk{m_state->mutex};
    if (m_state->completed) return true;
    return m_state->reply.test();
}

Expected<std::string> AsyncRequest::wait() {
    if (!m_state)
        return Error{Error::Code::InvalidState, "wait() on an empty AsyncRequest"};
    detail::AsyncForwardState& st = *m_state;
    {
        std::lock_guard lk{st.mutex};
        if (st.completed) return *st.result;
    }
    Instance* inst = st.instance.get();
    // A blocked waiter counts toward the shutdown drain, exactly like a
    // synchronous forward; shutdown()'s sweep sets the eventual, so this
    // never outlives the drain by more than the wakeup.
    Instance::ForwardGuard guard{inst};
    // Wait without taking the reply: waiters on copies of the handle all
    // wake, and only the first to resolve under st.mutex moves it out (the
    // others read the cached result), so the payload is never copied and no
    // waiter reads a moved-from reply.
    bool replied = st.reply.wait_ready_for(
        std::chrono::duration_cast<std::chrono::microseconds>(st.timeout));
    std::unique_lock lk{st.mutex};
    if (st.completed) return *st.result; // a concurrent waiter resolved it
    if (!replied && !inst->release_pending(st.seq)) {
        // The timeout raced a reply's delivery (or shutdown's sweep), which
        // claimed the call first and is setting `reply` now: take that
        // outcome, and let the set finish before this state may go.
        lk.unlock();
        st.reply.wait();
        lk.lock();
        if (st.completed) return *st.result;
        replied = true;
    }
    std::optional<mercury::Message> response;
    if (replied) response = st.reply.take();
    st.mctx.duration_us = inst->now_us() - st.t0;
    if (!response) {
        inst->emit([&](Monitor& m) { m.on_forward_complete(st.mctx, false); });
        st.result.emplace(Error{Error::Code::Timeout,
                                "RPC '" + st.mctx.name + "' to " + st.mctx.peer + " timed out"});
    } else if (response->status != 0) {
        inst->emit([&](Monitor& m) { m.on_forward_complete(st.mctx, false); });
        auto code = static_cast<Error::Code>(response->status - 1);
        st.result.emplace(Error{
            code, response->payload.empty() ? "remote error" : response->payload});
    } else {
        inst->emit([&](Monitor& m) { m.on_forward_complete(st.mctx, true); });
        st.result.emplace(std::move(response->payload));
    }
    st.completed = true;
    return *st.result;
}

void Instance::on_network_message(mercury::Message msg) {
    // Called from the sender's or the fabric timer's thread. A response
    // completes its call right here; requests go to the progress ULT. The
    // CondVar enqueues waiters before releasing the held mutex, so
    // signaling after the push can never be lost.
    if (msg.kind == mercury::Message::Kind::Response) {
        dispatch_response(std::move(msg));
        return;
    }
    m_queue_mutex.lock();
    m_queue.push_back(std::move(msg));
    m_queue_mutex.unlock();
    m_queue_cv.signal_one();
}

void Instance::wake_progress_loop() {
    // Fast-path producer side of the idle protocol. The push into the MPSC
    // ring already happened; the fence orders it before the idle-flag read
    // (pairing with the consumer's store-then-fence-then-recheck), so either
    // we observe the consumer going idle, or the consumer's recheck observes
    // our message — never neither.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!m_progress_idle.load(std::memory_order_relaxed)) return;
    // The consumer may be between its recheck and the CondVar park. It still
    // holds m_queue_mutex there, and CondVar::wait_for registers the waiter
    // before releasing the mutex — so this lock/unlock serializes with the
    // park and the signal below cannot fall into the gap.
    m_queue_mutex.lock();
    m_queue_mutex.unlock();
    m_queue_cv.signal_one();
}

void Instance::progress_loop() {
    using namespace std::chrono_literals;
    mercury::Endpoint* ep = m_endpoint.get();
    mercury::Message msg;
    for (;;) {
        // Drain the lock-free fast inbox first: the common steady-state
        // source. Each request is dispatched immediately (no handoff through
        // m_queue), which is what removes the timer hop + fabric lock from
        // the clean-link round trip.
        bool did_work = false;
        while (ep->poll_fast(msg)) {
            did_work = true;
            dispatch_request(std::move(msg));
        }
        // Then batch-drain the slow queue, dropping the lock around each
        // dispatch so producers never block behind handler bookkeeping.
        m_queue_mutex.lock();
        while (!m_queue.empty()) {
            msg = m_queue.pop_front();
            m_queue_mutex.unlock();
            did_work = true;
            dispatch_request(std::move(msg));
            m_queue_mutex.lock();
        }
        if (m_stopping.load()) {
            m_queue_mutex.unlock();
            break;
        }
        if (did_work) {
            // New work may have arrived while dispatching; re-poll before
            // considering the park.
            m_queue_mutex.unlock();
            continue;
        }
        // Idle protocol (consumer side): publish the flag, fence, recheck
        // the fast ring. A producer that pushed before our fence is seen by
        // the recheck; one that pushed after it sees the flag and signals.
        m_progress_idle.store(true, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (!ep->fast_inbox_empty() || !m_queue.empty()) {
            m_progress_idle.store(false, std::memory_order_relaxed);
            m_queue_mutex.unlock();
            continue;
        }
        m_queue_cv.wait_for(m_queue_mutex, 50ms);
        m_progress_idle.store(false, std::memory_order_relaxed);
        m_queue_mutex.unlock();
    }
    m_progress_idle.store(false, std::memory_order_relaxed);
    // Shutdown: discard whatever is still in the fast ring, mirroring the
    // slow queue (request senders observe their timeout, as with any
    // message lost to teardown).
    while (ep->poll_fast(msg)) {}
    m_progress_done.set();
}

namespace detail {

/// Per-request dispatch state. Pooled (allocate_shared over the instance's
/// dispatch free list) and carried to the handler ULT in Ult::task_payload,
/// so a warm dispatch allocates nothing. The destructor owns the counter
/// decrements — Runtime::finalize()'s abort backstop destroys queued ULTs
/// without running them, and only a destructor fires on that path, which
/// keeps drain_handlers() from spinning forever on a dispatch discarded
/// un-run.
struct DispatchCtx {
    InstancePtr self;
    std::shared_ptr<const Instance::RpcEntry> entry;
    mercury::Message msg;
    CallContext mctx;
    double t_received = 0;

    ~DispatchCtx() {
        self->m_in_flight.fetch_sub(1);
        entry->inflight->fetch_sub(1, std::memory_order_release);
    }

    /// ULT entry point (function pointer: the posting closure stays within
    /// std::function's small-buffer optimization).
    static void run(void* p) {
        auto* ctx = static_cast<DispatchCtx*>(p);
        Instance* self = ctx->self.get();
        double t_start = self->now_us();
        ctx->mctx.queue_delay_us = t_start - ctx->t_received;
        self->emit([&](Monitor& m) { m.on_handler_start(ctx->mctx); });
        {
            // Ambient context for the handler: nested forwards report this
            // RPC as their parent and extend this handler's span.
            ContextScope scope{RpcContext{
                ctx->msg.rpc_id, ctx->msg.provider_id,
                TraceContext{ctx->mctx.trace_id, ctx->mctx.span_id, ctx->mctx.parent_span_id},
                TenantContext{ctx->msg.tenant_id}}};
            Request req{self, std::move(ctx->msg)};
            ctx->entry->handler(req);
        }
        ctx->mctx.duration_us = self->now_us() - t_start;
        self->emit([&](Monitor& m) { m.on_handler_complete(ctx->mctx); });
    }
};

} // namespace detail

void Instance::dispatch_request(mercury::Message msg) {
    std::shared_ptr<const RpcEntry> entry;
    {
        std::lock_guard lk{m_rpc_mutex};
        auto it = m_rpcs.find({msg.rpc_id, msg.provider_id});
        if (it == m_rpcs.end()) {
            Request req{this, std::move(msg)};
            req.respond_error(Error{Error::Code::NoSuchRpc,
                                    "no such RPC (id " + std::to_string(req.rpc_id()) +
                                        ", provider " + std::to_string(req.provider_id()) + ")"});
            return;
        }
        if (!msg.rpc_name.empty() && msg.rpc_name != it->second->name) {
            // Hash collision across processes: the caller's name maps to the
            // same 32-bit id as a different RPC registered here. Running the
            // wrong handler would silently corrupt both protocols.
            std::string local_name = it->second->name;
            Request req{this, std::move(msg)};
            req.respond_error(Error{Error::Code::Conflict,
                                    "RPC id " + std::to_string(req.rpc_id()) +
                                        " names '" + local_name + "' here but '" +
                                        req.rpc_name() + "' at the caller (hash collision)"});
            return;
        }
        // Pin the registration with a refcount instead of copying it (a
        // Handler copy would re-allocate its captures on every request).
        entry = it->second;
        // Claimed under m_rpc_mutex, so a concurrent deregister either sees
        // this invocation and drains it, or already erased the entry and we
        // would not be here.
        entry->inflight->fetch_add(1, std::memory_order_relaxed);
    }
    m_in_flight.fetch_add(1);

    // From here on, ctx's destructor releases both counters claimed above.
    auto ctx = std::allocate_shared<detail::DispatchCtx>(
        PoolAllocator<detail::DispatchCtx>{m_dispatch_pool});
    ctx->self = shared_from_this();
    CallContext& mctx = ctx->mctx;
    mctx.rpc_id = msg.rpc_id;
    mctx.provider_id = msg.provider_id;
    mctx.parent_rpc_id = msg.parent_rpc_id;
    mctx.parent_provider_id = msg.parent_provider_id;
    mctx.name = entry->name;
    mctx.peer = msg.source;
    mctx.self = m_address;
    mctx.payload_size = msg.payload.size();
    // Handler span: child of the caller's forward span carried in the
    // envelope. Allocated here so received/start/complete callbacks all
    // correlate under one span id.
    if (msg.trace_id != 0) {
        mctx.trace_id = msg.trace_id;
        mctx.parent_span_id = msg.span_id;
        mctx.span_id = next_span_id();
    }
    ctx->t_received = now_us();
    emit([&](Monitor& m) { m.on_request_received(mctx); });

    // Weighted admission: charge the request to its tenant's WFQ account and
    // dispatch at the resulting deficit priority. Tenants behind their fair
    // share overtake over-consumers inside a prio handler pool; untenanted
    // traffic (tenant 0) skips the QoS lock entirely and dispatches at 0.
    const int priority = m_qos->charge(msg.tenant_id, msg.payload.size());

    auto pool = entry->pool; // keep alive across the move below
    ctx->entry = std::move(entry);
    ctx->msg = std::move(msg);
    m_runtime->post_with_payload(pool, std::move(ctx), &detail::DispatchCtx::run, priority);
}

void Instance::dispatch_response(mercury::Message msg) {
    // Runs on the delivering thread: no user code, only a thread-safe set.
    // Erasing the entry claims the call; its caller then cannot let the
    // reply eventual go before this set completes (see release_pending), so
    // no reference is taken and the caller's state is freed by the caller.
    abt::Eventual<mercury::Message>* reply;
    {
        std::lock_guard lk{m_pending_mutex};
        auto it = m_pending.find(msg.seq);
        if (it == m_pending.end()) return; // caller timed out; drop
        reply = it->second;
        m_pending.erase(it);
    }
    reply->set_value(std::move(msg));
}

bool Instance::release_pending(std::uint64_t seq) {
    std::lock_guard lk{m_pending_mutex};
    return m_pending.erase(seq) == 1;
}

// ---------------------------------------------------------------------------
// Bulk
// ---------------------------------------------------------------------------

CallContext Instance::bulk_call_context(const std::string& peer) const {
    // Attribute the transfer to the RPC whose handler drives it (REMI's
    // fetch_rdma, warabi reads, ...) and open a bulk child span so RDMA
    // phases show up inside the handler span in a trace.
    CallContext mctx;
    mctx.name = "__bulk__";
    mctx.peer = peer;
    mctx.self = m_address;
    RpcContext ambient = current_rpc_context();
    mctx.rpc_id = ambient.rpc_id;
    mctx.provider_id = ambient.provider_id;
    if (ambient.trace.active()) {
        mctx.trace_id = ambient.trace.trace_id;
        mctx.parent_span_id = ambient.trace.span_id;
        mctx.span_id = next_span_id();
    }
    return mctx;
}

mercury::BulkHandle Instance::expose(char* data, std::size_t size, bool writable) {
    return m_endpoint->expose(data, size, writable);
}

void Instance::unexpose(std::uint64_t id) { m_endpoint->unexpose(id); }

Status Instance::bulk_pull(const mercury::BulkHandle& remote, std::size_t remote_offset,
                           char* local, std::size_t size) {
    double t0 = now_us();
    auto delay = m_endpoint->bulk_pull(remote, remote_offset, local, size);
    if (!delay) return delay.error();
    if (*delay >= 1.0)
        m_runtime->sleep_for(std::chrono::microseconds(static_cast<std::int64_t>(*delay)));
    CallContext mctx = bulk_call_context(remote.address);
    emit([&](Monitor& m) { m.on_bulk_complete(mctx, size, now_us() - t0); });
    return {};
}

Status Instance::bulk_push(const mercury::BulkHandle& remote, std::size_t remote_offset,
                           const char* local, std::size_t size) {
    double t0 = now_us();
    auto delay = m_endpoint->bulk_push(remote, remote_offset, local, size);
    if (!delay) return delay.error();
    if (*delay >= 1.0)
        m_runtime->sleep_for(std::chrono::microseconds(static_cast<std::int64_t>(*delay)));
    CallContext mctx = bulk_call_context(remote.address);
    emit([&](Monitor& m) { m.on_bulk_complete(mctx, size, now_us() - t0); });
    return {};
}

// ---------------------------------------------------------------------------
// Monitoring plumbing
// ---------------------------------------------------------------------------

void Instance::sync_pool_metrics() const {
    // The free lists count recycles monotonically; fold the delta since the
    // last export into the counter. exchange() makes concurrent snapshots
    // count each delta exactly once (a stale total simply contributes zero).
    std::uint64_t total = m_pending_node_pool->recycled() +
                          m_async_state_pool->recycled() + m_dispatch_pool->recycled() +
                          m_runtime->ult_pool_recycled();
    std::uint64_t last = m_pool_recycled_exported.exchange(total, std::memory_order_relaxed);
    if (total > last) m_metrics->counter("margo_pool_recycled_total").inc(total - last);
}

void Instance::add_monitor(std::shared_ptr<Monitor> monitor) {
    std::lock_guard lk{m_monitors_mutex};
    m_monitors.push_back(std::move(monitor));
}

void Instance::notify_batch_op(std::string_view op_name, std::size_t payload_size,
                               double duration_us, bool ok) {
    // Attribute the op to the enclosing batched RPC (the ambient handler
    // context) and open a child span under the handler span, mirroring how
    // bulk transfers report themselves.
    RpcContext ambient = current_rpc_context();
    CallContext mctx;
    mctx.rpc_id = rpc_name_to_id(op_name);
    mctx.provider_id = ambient.provider_id;
    mctx.parent_rpc_id = ambient.rpc_id;
    mctx.parent_provider_id = ambient.provider_id;
    mctx.name = std::string(op_name);
    mctx.peer = m_address;
    mctx.self = m_address;
    mctx.payload_size = payload_size;
    mctx.duration_us = duration_us;
    if (ambient.trace.active()) {
        mctx.trace_id = ambient.trace.trace_id;
        mctx.parent_span_id = ambient.trace.span_id;
        mctx.span_id = next_span_id();
    }
    emit([&](Monitor& m) { m.on_batch_op(mctx, ok); });
}

void Instance::sampler_tick() {
    if (m_stopping.load()) return;
    // Allocation-free in steady state: the pools are visited in place and
    // the size map keeps its nodes; a removed pool makes one tick rebuild it.
    auto sample = [this] {
        std::size_t pools = 0;
        m_runtime->for_each_pool([&](const abt::Pool& p) {
            ++pools;
            m_sampled_pool_sizes[p.name()] = p.size();
        });
        return pools;
    };
    if (sample() != m_sampled_pool_sizes.size()) {
        m_sampled_pool_sizes.clear();
        sample();
    }
    emit([&](Monitor& m) { m.on_progress_sample(m_in_flight.load(), m_sampled_pool_sizes); });
    // Capturing `this` alone keeps the closure in std::function's inline
    // buffer. Safe: shutdown() finalizes the runtime, whose timer stop waits
    // out a running tick and drops pending ones, before the instance goes.
    m_runtime->timer().schedule(
        std::chrono::duration_cast<std::chrono::microseconds>(m_sampling_period),
        [this] { sampler_tick(); });
}

// ---------------------------------------------------------------------------
// Configuration & reconfiguration
// ---------------------------------------------------------------------------

json::Value Instance::config() const {
    auto cfg = json::Value::object();
    cfg["address"] = m_address;
    cfg["argobots"] = m_runtime->config();
    cfg["progress_pool"] = m_progress_pool->name();
    cfg["handler_pool"] = m_handler_pool->name();
    cfg["rpc_timeout_ms"] = static_cast<std::int64_t>(m_default_timeout.count());
    cfg["monitoring"]["enable"] = m_monitoring_enabled.load();
    cfg["monitoring"]["sampling_period_ms"] =
        static_cast<std::int64_t>(m_sampling_period.count());
    return cfg;
}

Expected<std::shared_ptr<abt::Pool>> Instance::find_pool_by_name(std::string_view name) const {
    return m_runtime->find_pool(name);
}

Expected<std::shared_ptr<abt::Pool>> Instance::add_pool_from_json(const json::Value& pool_config) {
    return m_runtime->add_pool(pool_config);
}

Status Instance::remove_pool(std::string_view name) {
    // Margo-level checks first (§5: "Margo ensures that the changes are
    // always valid").
    if (m_progress_pool->name() == name)
        return Error{Error::Code::InvalidState, "cannot remove the progress pool"};
    if (m_handler_pool->name() == name)
        return Error{Error::Code::InvalidState, "cannot remove the default handler pool"};
    {
        std::lock_guard lk{m_rpc_mutex};
        for (const auto& [key, entry] : m_rpcs) {
            if (entry->pool->name() == name)
                return Error{Error::Code::InvalidState,
                             "pool '" + std::string(name) + "' is in use by RPC '" + entry->name +
                                 "'"};
        }
    }
    return m_runtime->remove_pool(name);
}

Status Instance::add_xstream_from_json(const json::Value& xstream_config) {
    return m_runtime->add_xstream(xstream_config);
}

Status Instance::remove_xstream(std::string_view name) {
    return m_runtime->remove_xstream(name);
}

} // namespace mochi::margo

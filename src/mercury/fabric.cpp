#include "mercury/fabric.hpp"
#include "common/logging.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <thread>

namespace mochi::mercury {

// ---------------------------------------------------------------------------
// MsgRing
// ---------------------------------------------------------------------------

MsgRing::MsgRing(std::size_t capacity)
: m_cells(new Cell[capacity]), m_mask(capacity - 1) {
    assert((capacity & m_mask) == 0 && "MsgRing capacity must be a power of two");
    for (std::size_t i = 0; i < capacity; ++i)
        m_cells[i].seq.store(i, std::memory_order_relaxed);
}

bool MsgRing::push(Message&& m) {
    std::size_t pos = m_enqueue.load(std::memory_order_relaxed);
    for (;;) {
        Cell& cell = m_cells[pos & m_mask];
        std::size_t seq = cell.seq.load(std::memory_order_acquire);
        auto dif = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
        if (dif == 0) {
            if (m_enqueue.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
                cell.msg = std::move(m);
                cell.seq.store(pos + 1, std::memory_order_release);
                return true;
            }
            // CAS failure reloaded pos; retry with it.
        } else if (dif < 0) {
            return false; // full: slot still occupied by an unread message
        } else {
            pos = m_enqueue.load(std::memory_order_relaxed);
        }
    }
}

bool MsgRing::pop(Message& out) {
    std::size_t pos = m_dequeue.load(std::memory_order_relaxed);
    for (;;) {
        Cell& cell = m_cells[pos & m_mask];
        std::size_t seq = cell.seq.load(std::memory_order_acquire);
        auto dif = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1);
        if (dif == 0) {
            // Single consumer: the plain store cannot race another popper.
            m_dequeue.store(pos + 1, std::memory_order_relaxed);
            out = std::move(cell.msg);
            // Release the slot for producers, one full lap ahead.
            cell.seq.store(pos + m_mask + 1, std::memory_order_release);
            return true;
        }
        if (dif < 0) return false; // empty (or producer mid-publish)
        pos = m_dequeue.load(std::memory_order_relaxed);
    }
}

bool MsgRing::empty() const noexcept {
    return m_dequeue.load(std::memory_order_acquire) ==
           m_enqueue.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// Endpoint
// ---------------------------------------------------------------------------

Endpoint::Endpoint(std::shared_ptr<Fabric> fabric, std::string address, MessageHandler handler)
: m_fabric(std::move(fabric)), m_address(std::move(address)), m_handler(std::move(handler)) {
    m_attached.store(true);
}

Endpoint::~Endpoint() { detach(); }

void Endpoint::detach() {
    bool was = m_attached.exchange(false);
    if (was) {
        m_fabric->do_detach(m_address);
        // Quiesce: deliveries hold m_deliver_mutex shared while invoking the
        // handler, so acquiring it exclusively waits out any invocation that
        // passed the m_attached check before the exchange above.
        std::unique_lock lk{m_deliver_mutex};
    }
}

Status Endpoint::send(const std::string& dst, Message msg) {
    if (!m_attached.load())
        return Error{Error::Code::InvalidState, "endpoint is detached"};
    msg.source = m_address;
    return m_fabric->send_from(m_address, dst, std::move(msg));
}

BulkHandle Endpoint::expose(char* data, std::size_t size, bool writable) {
    std::uint64_t id = m_next_region_id.fetch_add(1);
    {
        std::lock_guard lk{m_regions_mutex};
        m_regions[id] = BulkRegion{data, size, writable};
    }
    return BulkHandle{m_address, id, size};
}

void Endpoint::unexpose(std::uint64_t id) {
    std::lock_guard lk{m_regions_mutex};
    m_regions.erase(id);
}

Expected<double> Endpoint::bulk_pull(const BulkHandle& remote, std::size_t remote_offset,
                                     char* local, std::size_t size) {
    return m_fabric->bulk_op(m_address, remote, remote_offset, local, size, /*pull=*/true);
}

Expected<double> Endpoint::bulk_push(const BulkHandle& remote, std::size_t remote_offset,
                                     const char* local, std::size_t size) {
    return m_fabric->bulk_op(m_address, remote, remote_offset, const_cast<char*>(local), size,
                             /*pull=*/false);
}

void Endpoint::enable_fast_inbox(std::function<void()> wakeup) {
    m_fast_ring = std::make_shared<MsgRing>();
    m_fast_wakeup = std::move(wakeup);
    // Publish last: senders gate on this flag (under the fabric mutex when
    // validating, so the release pairs with that acquire).
    m_fast_enabled.store(true, std::memory_order_release);
}

bool Endpoint::poll_fast(Message& out) {
    if (!m_fast_ring || !m_fast_ring->pop(out)) return false;
    // Statistics only — see the messages_delivered() ordering contract.
    m_fabric->m_delivered.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool Endpoint::fast_inbox_empty() const noexcept {
    return !m_fast_ring || m_fast_ring->empty();
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_fabric_uid{1};
} // namespace

Fabric::Fabric(LinkModel default_link, std::uint64_t seed)
: m_default_link(default_link), m_rng(seed), m_epoch(std::chrono::steady_clock::now()),
  m_uid(g_fabric_uid.fetch_add(1, std::memory_order_relaxed)) {}

std::shared_ptr<Fabric> Fabric::create(LinkModel default_link, std::uint64_t seed) {
    return std::shared_ptr<Fabric>(new Fabric(default_link, seed));
}

Fabric::~Fabric() {
    // Lightweight instances were shut down before the fabric goes: their
    // runtimes unregistered from the executor and cancelled their child
    // timer entries, so stopping the shared resources here is quiescent.
    m_lite_executor.reset();
    if (m_lite_timer) m_lite_timer->stop();
    m_timer.stop();
}

abt::Executor& Fabric::lite_executor() {
    std::call_once(m_lite_once, [this] {
        m_lite_executor = std::make_unique<abt::Executor>();
        m_lite_timer = std::make_unique<abt::Timer>();
    });
    return *m_lite_executor;
}

abt::Timer& Fabric::lite_timer() {
    (void)lite_executor(); // both are created together
    return *m_lite_timer;
}

double Fabric::now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - m_epoch)
        .count();
}

Expected<std::shared_ptr<Endpoint>> Fabric::attach(std::string address,
                                                   Endpoint::MessageHandler handler) {
    std::lock_guard lk{m_mutex};
    auto it = m_endpoints.find(address);
    if (it != m_endpoints.end() && !it->second.expired())
        return Error{Error::Code::AlreadyExists, "address already attached: " + address};
    auto ep = std::shared_ptr<Endpoint>(
        new Endpoint(shared_from_this(), address, std::move(handler)));
    m_endpoints[ep->address()] = ep;
    bump_epoch_locked();
    return ep;
}

void Fabric::do_detach(const std::string& addr) {
    std::lock_guard lk{m_mutex};
    m_endpoints.erase(addr);
    bump_epoch_locked();
}

void Fabric::cut(const std::string& a, const std::string& b) {
    std::lock_guard lk{m_mutex};
    m_cuts.insert({a, b});
    m_cuts.insert({b, a});
    bump_epoch_locked();
}

void Fabric::heal(const std::string& a, const std::string& b) {
    std::lock_guard lk{m_mutex};
    m_cuts.erase({a, b});
    m_cuts.erase({b, a});
    bump_epoch_locked();
}

void Fabric::heal_all() {
    std::lock_guard lk{m_mutex};
    m_cuts.clear();
    bump_epoch_locked();
}

void Fabric::set_link(const std::string& src, const std::string& dst, LinkModel model) {
    std::lock_guard lk{m_mutex};
    m_links[{src, dst}] = model;
    bump_epoch_locked();
}

void Fabric::set_fast_path_enabled(bool enabled) {
    std::lock_guard lk{m_mutex};
    m_fast_path_enabled.store(enabled, std::memory_order_relaxed);
    bump_epoch_locked();
}

std::vector<std::string> Fabric::attached() const {
    std::lock_guard lk{m_mutex};
    std::vector<std::string> out;
    for (const auto& [addr, wp] : m_endpoints)
        if (!wp.expired()) out.push_back(addr);
    return out;
}

bool Fabric::is_attached(const std::string& addr) const {
    std::lock_guard lk{m_mutex};
    auto it = m_endpoints.find(addr);
    return it != m_endpoints.end() && !it->second.expired();
}

bool Fabric::link_blocked(const std::string& src, const std::string& dst) const {
    return m_cuts.count({src, dst}) > 0;
}

LinkModel Fabric::link_model(const std::string& src, const std::string& dst) const {
    auto it = m_links.find({src, dst});
    return it == m_links.end() ? m_default_link : it->second;
}

double Fabric::reserve_link_us(const std::string& src, const std::string& dst,
                               std::size_t bytes) {
    // Serialize transfers sharing a directional link: a transfer starts when
    // the link frees up and occupies it for size/bandwidth.
    LinkModel model = link_model(src, dst);
    double now = now_us();
    double transfer = model.transfer_us(bytes);
    double& busy_until = m_link_busy_until_us[{src, dst}];
    double start = std::max(now, busy_until);
    busy_until = start + transfer;
    double completion = start + transfer + model.latency_us;
    return completion - now;
}

double Fabric::enforce_link_fifo(const std::string& src, const std::string& dst,
                                 double delay_us) {
    double now = now_us();
    double& last = m_link_last_delivery_us[{src, dst}];
    double delivery = std::max(now + delay_us, last);
    last = delivery;
    return delivery - now;
}

bool Fabric::validate_fast_entry(const std::string& src, const std::string& dst,
                                 FastSendCacheEntry& entry) {
    std::lock_guard lk{m_mutex};
    entry.fabric_uid = m_uid;
    entry.epoch = m_topology_epoch.load(std::memory_order_relaxed);
    entry.src = src;
    entry.dst = dst;
    entry.eligible = false;
    entry.target.reset();
    if (!m_fast_path_enabled.load(std::memory_order_relaxed)) return false;
    auto it = m_endpoints.find(dst);
    std::shared_ptr<Endpoint> target;
    if (it == m_endpoints.end() || !(target = it->second.lock())) return false;
    if (!target->m_fast_enabled.load(std::memory_order_acquire)) return false;
    if (link_blocked(src, dst)) return false;
    // Eligible only when the model would have delivered inline anyway
    // (latency below the timer's 1 µs scheduling threshold, no bandwidth
    // serialization) and no fault knob needs the per-message RNG roll — so
    // the fast path changes the delivery mechanism, not the timing model.
    LinkModel model = link_model(src, dst);
    if (model.loss_probability > 0.0 || model.duplicate_probability > 0.0 ||
        model.jitter_us > 0.0 || model.bandwidth_bytes_per_us > 0.0 || model.latency_us >= 1.0)
        return false;
    entry.target = target;
    entry.eligible = true;
    return true;
}

bool Fabric::try_fast_send(const std::string& src, const std::string& dst, Message& msg) {
    // Per-thread cache of recent (fabric, src, dst) verdicts. Entries hold
    // weak_ptrs only, so a long-lived idle thread cannot pin endpoints.
    constexpr std::size_t k_cache_slots = 8;
    thread_local std::array<FastSendCacheEntry, k_cache_slots> tl_cache;
    thread_local std::size_t tl_evict = 0;

    FastSendCacheEntry* entry = nullptr;
    for (auto& e : tl_cache) {
        if (e.fabric_uid == m_uid && e.src == src && e.dst == dst) {
            entry = &e;
            break;
        }
    }
    if (entry == nullptr) {
        entry = &tl_cache[tl_evict];
        tl_evict = (tl_evict + 1) % k_cache_slots;
        validate_fast_entry(src, dst, *entry);
    } else if (entry->epoch != m_topology_epoch.load(std::memory_order_acquire)) {
        validate_fast_entry(src, dst, *entry);
    }
    if (!entry->eligible) return false;
    std::shared_ptr<Endpoint> target = entry->target.lock();
    if (!target) {
        entry->eligible = false;
        return false; // let the slow path produce Unreachable
    }
    // Delivery must hold m_deliver_mutex shared, exactly like the slow
    // path's deliver(): Endpoint::detach() quiesces by taking it
    // exclusively after clearing m_attached, and the receiving instance
    // only finalizes its runtime after detach() returns. Without the lock,
    // the handler or m_fast_wakeup() could still be signaling into the
    // receiver's scheduler while that runtime is being torn down.
    std::shared_lock deliver_lk{target->m_deliver_mutex};
    if (!target->m_attached.load(std::memory_order_acquire)) {
        entry->eligible = false;
        return false;
    }
    if (msg.kind == Message::Kind::Response) {
        // Expected message: it completes on this thread, no progress-loop hop.
        m_delivered.fetch_add(1, std::memory_order_relaxed);
        target->m_handler(std::move(msg));
        return true;
    }
    if (!target->m_fast_ring->push(std::move(msg))) return false; // ring full
    target->m_fast_wakeup();
    return true;
}

Status Fabric::send_from(const std::string& src, const std::string& dst, Message msg) {
    if (m_fast_path_enabled.load(std::memory_order_relaxed) &&
        try_fast_send(src, dst, msg))
        return {};
    std::shared_ptr<Endpoint> target;
    double delay_us = 0;
    double dup_delay_us = -1.0; ///< >= 0: deliver a duplicate copy after this
    {
        std::lock_guard lk{m_mutex};
        auto it = m_endpoints.find(dst);
        if (it == m_endpoints.end() || !(target = it->second.lock()))
            return Error{Error::Code::Unreachable, "no endpoint at address " + dst};
        if (link_blocked(src, dst))
            return {}; // partition: silent drop (sender sees a timeout)
        LinkModel model = link_model(src, dst);
        std::uniform_real_distribution<double> dist{0.0, 1.0};
        if (model.loss_probability > 0.0 && dist(m_rng) < model.loss_probability) return {};
        delay_us = reserve_link_us(src, dst, msg.payload.size());
        if (model.jitter_us > 0.0) delay_us += dist(m_rng) * model.jitter_us;
        delay_us = enforce_link_fifo(src, dst, delay_us);
        if (model.duplicate_probability > 0.0 && dist(m_rng) < model.duplicate_probability) {
            // The duplicate occupies the link like a real retransmission and
            // gets its own jitter, so it arrives after the original (per-link
            // FIFO still holds; the redundant copy may land mid-handling).
            dup_delay_us = reserve_link_us(src, dst, msg.payload.size());
            if (model.jitter_us > 0.0) dup_delay_us += dist(m_rng) * model.jitter_us;
            dup_delay_us = enforce_link_fifo(src, dst, dup_delay_us);
        }
    }
    auto dispatch = [this](std::shared_ptr<Endpoint> ep, Message m, double after_us) {
        auto deliver = [this, ep = std::move(ep), m = std::move(m)]() mutable {
            std::shared_lock lk{ep->m_deliver_mutex};
            if (!ep->m_attached.load()) return; // crashed meanwhile
            m_delivered.fetch_add(1, std::memory_order_relaxed);
            ep->m_handler(std::move(m));
        };
        if (after_us < 1.0) {
            deliver();
        } else {
            m_timer.schedule(std::chrono::microseconds(static_cast<std::int64_t>(after_us)),
                             std::move(deliver));
        }
    };
    if (dup_delay_us >= 0.0) dispatch(target, msg, dup_delay_us);
    dispatch(std::move(target), std::move(msg), delay_us);
    return {};
}

Expected<double> Fabric::bulk_op(const std::string& src, const BulkHandle& remote,
                                 std::size_t remote_offset, char* local, std::size_t size,
                                 bool pull) {
    std::shared_ptr<Endpoint> target;
    double delay_us = 0;
    {
        std::lock_guard lk{m_mutex};
        auto it = m_endpoints.find(remote.address);
        if (it == m_endpoints.end() || !(target = it->second.lock()))
            return Error{Error::Code::Unreachable, "no endpoint at address " + remote.address};
        if (link_blocked(src, remote.address))
            return Error{Error::Code::Timeout, "bulk transfer timed out (link cut)"};
        // RDMA flows data over the link in the data direction.
        delay_us = pull ? reserve_link_us(remote.address, src, size)
                        : reserve_link_us(src, remote.address, size);
    }
    {
        std::lock_guard rlk{target->m_regions_mutex};
        auto rit = target->m_regions.find(remote.id);
        if (rit == target->m_regions.end())
            return Error{Error::Code::NotFound, "bulk region not exposed"};
        const BulkRegion& region = rit->second;
        if (remote_offset + size > region.size)
            return Error{Error::Code::InvalidArgument, "bulk transfer out of bounds"};
        if (!pull && !region.writable)
            return Error{Error::Code::PermissionDenied, "bulk region is read-only"};
        if (pull)
            std::memcpy(local, region.data + remote_offset, size);
        else
            std::memcpy(region.data + remote_offset, local, size);
    }
    return delay_us;
}

} // namespace mochi::mercury

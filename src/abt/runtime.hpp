// The ULT runtime: pools + execution streams + timer, dynamically
// reconfigurable at run time (the "more dynamic run time" of §5 of the
// paper). Margo builds directly on this; each simulated service process owns
// one Runtime.
#pragma once

#include "abt/executor.hpp"
#include "abt/pool.hpp"
#include "abt/timer.hpp"
#include "abt/ult.hpp"
#include "common/expected.hpp"
#include "common/json.hpp"
#include "common/pool_alloc.hpp"

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mochi::abt {

class Runtime;
template <typename T> class Eventual;

/// An execution stream: an OS thread running a scheduler that pulls ULTs
/// from an ordered list of pools (Argobots "xstream", Figure 2).
///
/// Virtual mode: constructed with an Executor, the xstream spawns no thread
/// of its own — it registers with the shared executor, whose worker crew
/// services its pools. Everything else (pool subscription, config
/// round-trip, introspection) behaves identically, so the rest of the stack
/// cannot tell the difference.
class Xstream {
  public:
    Xstream(std::string name, std::string sched_type,
            std::vector<std::shared_ptr<Pool>> pools, Runtime* rt,
            Executor* executor = nullptr);
    ~Xstream();

    Xstream(const Xstream&) = delete;
    Xstream& operator=(const Xstream&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return m_name; }
    [[nodiscard]] const std::string& scheduler_type() const noexcept { return m_sched_type; }
    [[nodiscard]] std::vector<std::string> pool_names() const;
    [[nodiscard]] bool uses_pool(const Pool* p) const;

    /// Wake the scheduler (called by pools on push).
    void notify();

    /// Ask the scheduler to exit after the current ULT and join the thread.
    void stop_and_join();

    /// ULTs executed by this stream so far.
    [[nodiscard]] std::uint64_t ults_executed() const noexcept { return m_executed.load(); }

    // Internal (Executor workers): pop one ULT from this stream's pools.
    [[nodiscard]] UltPtr try_pop();
    // Internal (Executor workers): account one executed ULT.
    void count_executed() noexcept { m_executed.fetch_add(1, std::memory_order_relaxed); }

  private:
    void scheduler_loop();
    void run_one(const UltPtr& ult);

    std::string m_name;
    std::string m_sched_type;
    Runtime* m_runtime;

    mutable std::mutex m_pools_mutex;
    std::vector<std::shared_ptr<Pool>> m_pools;

    std::mutex m_cv_mutex;
    std::condition_variable m_cv;
    bool m_wake_pending = false;
    std::atomic<bool> m_stop{false};
    std::atomic<std::uint64_t> m_executed{0};
    std::thread m_thread;
    Executor* m_executor = nullptr;               ///< non-null => virtual mode
    std::shared_ptr<Executor::Entry> m_entry;     ///< executor registration
};

/// Handle to a posted ULT; join() blocks (ULT-aware) until it terminates.
class ThreadHandle {
  public:
    ThreadHandle() = default;
    ThreadHandle(UltPtr ult, std::shared_ptr<Eventual<void>> event)
    : m_ult(std::move(ult)), m_event(std::move(event)) {}

    [[nodiscard]] bool valid() const noexcept { return m_ult != nullptr; }
    void join();

  private:
    UltPtr m_ult;
    std::shared_ptr<Eventual<void>> m_event;
};

/// Owns the pools, execution streams, stack pool and timer of one process.
///
/// Created from a JSON configuration matching the paper's Listing 2:
///   { "pools": [ {"name": "...", "kind": "fifo_wait", "access": "mpmc"} ],
///     "xstreams": [ {"name": "...", "scheduler":
///                     {"type": "basic", "pools": ["..."]}} ] }
/// and reconfigurable afterwards with add/remove operations whose validity
/// is always checked (§5 Observation 2).
/// Shared execution resources for lightweight runtimes: with `executor`
/// set, every xstream is virtual (serviced by the executor's worker crew,
/// no OS thread per ES); with `parent_timer` set, the runtime's timer is a
/// child multiplexed onto the parent (no timer thread per runtime). Both
/// must outlive the runtime. This is what lets one test process run 100+
/// margo instances at a fixed thread count.
struct SharedExecution {
    Executor* executor = nullptr;
    Timer* parent_timer = nullptr;
};

class Runtime : public std::enable_shared_from_this<Runtime> {
  public:
    static Expected<std::shared_ptr<Runtime>> create(const json::Value& config,
                                                     SharedExecution shared = {});
    static std::shared_ptr<Runtime> create_default();

    ~Runtime();
    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;

    // -- introspection -------------------------------------------------------

    [[nodiscard]] Expected<std::shared_ptr<Pool>> find_pool(std::string_view name) const;
    [[nodiscard]] std::vector<std::string> pool_names() const;
    [[nodiscard]] std::vector<std::string> xstream_names() const;
    [[nodiscard]] std::size_t num_pools() const;
    /// Visit every pool under the runtime lock, copying nothing (the
    /// progress sampler's allocation-free path). `f` must not re-enter.
    template <typename F>
    void for_each_pool(F&& f) const {
        std::lock_guard lk{m_mutex};
        for (const auto& p : m_pools) f(*p);
    }
    [[nodiscard]] std::size_t num_xstreams() const;

    /// Current configuration as JSON (round-trips through create()).
    [[nodiscard]] json::Value config() const;

    // -- online reconfiguration (§5) -----------------------------------------

    Expected<std::shared_ptr<Pool>> add_pool(const json::Value& pool_config);
    Status remove_pool(std::string_view name);
    Status add_xstream(const json::Value& xstream_config);
    Status remove_xstream(std::string_view name);

    // -- work submission -----------------------------------------------------

    /// Post a ULT to a pool; fire-and-forget.
    void post(const std::shared_ptr<Pool>& pool, std::function<void()> fn);

    /// Allocation-lean post for the RPC hot path: the task's state travels
    /// in Ult::task_payload and `fn` receives payload.get(). The wrapper
    /// closure captures only the function pointer, so it fits
    /// std::function's small-buffer optimization, and the ULT descriptor
    /// itself comes from a free list — a warm post performs zero heap
    /// allocations. If the runtime is finalized before the ULT runs, the
    /// payload is destroyed without `fn` ever running. `priority` orders the
    /// ULT inside a `prio`/`prio_wait` pool (higher runs first; FIFO pools
    /// ignore it) — Margo's QoS dispatch derives it from the tenant's
    /// weighted-fair-queueing deficit.
    void post_with_payload(const std::shared_ptr<Pool>& pool, std::shared_ptr<void> payload,
                           void (*fn)(void*), int priority = 0);

    /// Post a ULT and get a joinable handle.
    ThreadHandle post_thread(const std::shared_ptr<Pool>& pool, std::function<void()> fn);

    /// ULT descriptors served from the free list instead of the heap
    /// (feeds margo_pool_recycled_total).
    [[nodiscard]] std::uint64_t ult_pool_recycled() const noexcept {
        return m_ult_pool->recycled();
    }

    /// The default pool (first pool of the configuration).
    [[nodiscard]] std::shared_ptr<Pool> primary_pool() const;

    Timer& timer() noexcept { return *m_timer; }

    /// Sleep the calling ULT (or OS thread) for `d`.
    void sleep_for(std::chrono::microseconds d);

    /// Stop all execution streams and the timer, then *drain* any ULTs left
    /// in the pools by running them inline on the calling thread (bounded),
    /// so ThreadHandle::join() and on_terminate events always complete even
    /// for work racing the teardown. ULTs that remain blocked forever are
    /// leaked, never joined. Idempotent.
    void finalize();

    // Internal: run one ULT to its next suspension point on the calling
    // thread (the scheduler core, shared by Xstream and finalize's drain).
    // Reentrant: saves/restores the scheduling thread-locals.
    void execute_ult(const UltPtr& ult);

    // Internal: stack recycling for ULT fibers.
    char* acquire_stack(std::size_t size);
    void release_stack(char* stack, std::size_t size);

    static constexpr std::size_t k_default_stack_size = 128 * 1024;

  private:
    Runtime() = default;
    /// A fresh Ready ULT whose descriptor (and shared_ptr control block)
    /// come from m_ult_pool.
    [[nodiscard]] UltPtr make_ult(const std::shared_ptr<Pool>& pool);
    /// Run queued ULTs inline until all `pools` are empty or `budget` ULT
    /// slices have executed; returns the number of slices run.
    std::size_t drain_pools(const std::vector<std::shared_ptr<Pool>>& pools,
                            std::size_t budget);
    Status apply_config(const json::Value& config);
    Status add_xstream_locked(const json::Value& xstream_config);
    Expected<std::shared_ptr<Pool>> add_pool_locked(const json::Value& pool_config);

    mutable std::mutex m_mutex;
    // Ordered by insertion so config() round-trips deterministically.
    std::vector<std::shared_ptr<Pool>> m_pools;
    std::vector<std::unique_ptr<Xstream>> m_xstreams;
    std::unique_ptr<Timer> m_timer;
    Executor* m_executor = nullptr; ///< non-null => xstreams are virtual
    bool m_finalized = false;

    std::mutex m_stack_mutex;
    std::vector<char*> m_free_stacks; // all of k_default_stack_size

    /// Free list for Ult descriptors (allocate_shared control block + Ult in
    /// one recycled block). shared_ptr-held: a ThreadHandle's UltPtr may be
    /// the last owner after the Runtime is gone, and the block must still
    /// return somewhere valid.
    std::shared_ptr<FreeList> m_ult_pool = std::make_shared<FreeList>();
};

} // namespace mochi::abt

// Shared scheduling executor for lightweight runtimes.
//
// A regular Xstream is one OS thread; a process simulating 100+ Margo
// instances would burn hundreds of mostly idle threads. The Executor instead
// owns a small fixed crew of worker threads that service the pools of many
// *virtual* xstreams (one registration per xstream, possibly across many
// Runtimes). This works because execute_ult() is reentrant and ULTs never
// block their carrier thread: an idle progress loop parks as a suspended
// fiber, costing the executor nothing.
//
// Quiescence contract: unregister() returns only when no worker is inside
// the entry — after it, the caller may unsubscribe the xstream's pools and
// finalize its runtime safely (mirrors Xstream::stop_and_join()).
#pragma once

#include "abt/ult.hpp"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mochi::abt {

class Xstream;

class Executor {
  public:
    /// One registered virtual xstream. Workers pop from `xs`'s pools while
    /// `removed` is clear; `active` counts workers currently inside the
    /// entry (the quiescence token unregister() waits on).
    struct Entry {
        Xstream* xs = nullptr;
        std::atomic<bool> removed{false};
        std::atomic<int> active{0};
    };

    explicit Executor(std::size_t workers = 0); ///< 0 => a hardware-derived default
    ~Executor();
    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    /// Register a virtual xstream; workers start servicing its pools.
    std::shared_ptr<Entry> register_xstream(Xstream* xs);

    /// Stop servicing `entry` and wait until no worker touches it.
    /// Must not be called from a worker currently inside `entry` (a ULT
    /// cannot quiesce its own carrier — same rule as an ES joining itself).
    void unregister(const std::shared_ptr<Entry>& entry);

    /// Wake an idle worker (called from Pool::push via Xstream::notify).
    void notify();

  private:
    void worker_loop();

    std::mutex m_entries_mutex;
    /// Copy-on-write snapshot: workers copy the shared_ptr once per sweep,
    /// so registration churn never blocks a sweep mid-iteration.
    std::shared_ptr<const std::vector<std::shared_ptr<Entry>>> m_entries;
    std::condition_variable m_quiesce_cv; ///< waits on Entry::active, under m_entries_mutex

    std::mutex m_cv_mutex;
    std::condition_variable m_cv;
    bool m_wake_pending = false;
    std::atomic<bool> m_stop{false};
    std::vector<std::thread> m_threads;
};

} // namespace mochi::abt

// Free-list block pooling for the RPC hot path. A warm RPC must not touch
// the global heap (the allocation-count regression test enforces this), so
// the per-call objects — pending-call records, dispatch contexts, ULT
// descriptors, timer entries, registry map nodes — draw fixed-size blocks
// from these free lists and return them on destruction.
//
// A FreeList recycles blocks of ONE size, learned from the first
// allocation. This matches every intended use: `std::allocate_shared`
// rebinds the allocator to its single in-place control-block type, and the
// node-based containers (map/multimap) rebind to their single node type.
// Requests of any other size (or batched requests, n != 1) fall through to
// the global heap, so the allocator is always safe to hand to a container
// even if it allocates something unexpected.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>

namespace mochi {

class FreeList {
  public:
    /// `max_cached` bounds how many free blocks are retained; excess blocks
    /// go back to the heap (a burst does not pin its high-water mark).
    explicit FreeList(std::size_t max_cached = 1024) : m_max_cached(max_cached) {}

    ~FreeList() {
        while (m_head != nullptr) {
            Block* next = m_head->next;
            ::operator delete(m_head);
            m_head = next;
        }
    }

    FreeList(const FreeList&) = delete;
    FreeList& operator=(const FreeList&) = delete;

    void* allocate(std::size_t bytes) {
        {
            std::lock_guard lk{m_mutex};
            if (m_block_size == 0) m_block_size = bytes;
            if (bytes == m_block_size && m_head != nullptr) {
                Block* b = m_head;
                m_head = b->next;
                --m_cached;
                m_recycled.fetch_add(1, std::memory_order_relaxed);
                return b;
            }
        }
        return ::operator new(bytes);
    }

    void deallocate(void* p, std::size_t bytes) noexcept {
        {
            std::lock_guard lk{m_mutex};
            // The free block itself holds the link, so caching a block never
            // allocates (not even the first time a pool grows).
            if (bytes == m_block_size && bytes >= sizeof(Block) && m_cached < m_max_cached) {
                m_head = ::new (p) Block{m_head};
                ++m_cached;
                return;
            }
        }
        ::operator delete(p);
    }

    /// Total block reuses (feeds the margo_pool_recycled_total metric).
    [[nodiscard]] std::uint64_t recycled() const noexcept {
        return m_recycled.load(std::memory_order_relaxed);
    }

  private:
    struct Block {
        Block* next;
    };

    std::mutex m_mutex;
    Block* m_head = nullptr;
    std::size_t m_cached = 0;
    std::size_t m_block_size = 0;
    std::size_t m_max_cached;
    std::atomic<std::uint64_t> m_recycled{0};
};

/// Minimal allocator over a shared FreeList. The FreeList is held by
/// shared_ptr because allocator copies end up stored inside shared_ptr
/// control blocks (allocate_shared) and container internals, which can
/// outlive the object that created the pool.
template <typename T>
class PoolAllocator {
  public:
    using value_type = T;

    explicit PoolAllocator(std::shared_ptr<FreeList> list) : m_list(std::move(list)) {}
    template <typename U>
    PoolAllocator(const PoolAllocator<U>& other) : m_list(other.list()) {}

    T* allocate(std::size_t n) {
        if (n == 1) return static_cast<T*>(m_list->allocate(sizeof(T)));
        return static_cast<T*>(::operator new(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t n) noexcept {
        if (n == 1) {
            m_list->deallocate(p, sizeof(T));
            return;
        }
        ::operator delete(p);
    }

    [[nodiscard]] const std::shared_ptr<FreeList>& list() const noexcept { return m_list; }

    template <typename U>
    bool operator==(const PoolAllocator<U>& o) const noexcept {
        return m_list == o.list();
    }
    template <typename U>
    bool operator!=(const PoolAllocator<U>& o) const noexcept {
        return !(*this == o);
    }

  private:
    std::shared_ptr<FreeList> m_list;
};

} // namespace mochi

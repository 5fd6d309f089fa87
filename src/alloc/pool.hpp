// Slab-backed node pools for the fixed-size hot node types.
//
// The paper's JVM implementation allocates a fresh node per path copy and
// lets the GC nursery absorb the cost; this C++ reproduction pays full
// `operator new` price on every treap path copy, base-node replacement and
// chunk rebuild.  The pool gives those types a thread-local free-list fast
// path backed by 64 KiB slabs, with a bounded lock-free transfer cache so
// memory freed on one thread (typically by an EBR deleter running on
// whichever thread drained the retirement list) flows back to allocating
// threads instead of accumulating.
//
// Design:
//  - Size classes are multiples of 64 bytes up to kMaxPooledBytes; larger
//    requests (big chunk nodes) fall through to ::operator new/delete.
//    Slabs are allocated 64-byte aligned, so every pooled block starts on a
//    cache line.
//  - Each thread owns a ThreadCache of per-class singly-linked free lists.
//    Lists are capped; overflow is pushed to the transfer cache in batches.
//  - The transfer cache is a per-class array of atomic slots, each holding
//    the head of a detached chain.  Push is a release-CAS of null -> head,
//    pop is an acquire-exchange of the whole slot; since entire chains move
//    at once there is no ABA window.  When every slot is full, chains spill
//    to a mutex-protected overflow list (cold path).
//  - Slabs are carved by the allocating thread and registered in a central,
//    intentionally leaked registry: pool memory is never returned to the
//    OS, mirroring the tcmalloc/jemalloc central-cache design, and stays
//    reachable for leak checkers.
//
// Interaction with reclamation and checking: EBR deleters call the node
// types' class-scope `operator delete`, which routes here — so grace-period
// expiry returns nodes to the owning pool automatically.  Under
// CATS_CHECKED those deletes poison the storage *before* pool_free; the
// free-list link only overwrites the first word, so canaries (which live
// past offset 8 in every pooled type) still read as poison if a stale
// pointer is dereferenced after the free.
//
// The whole subsystem is compiled out with -DCATS_POOL=OFF, which reduces
// pool_alloc/pool_free to plain ::operator new/delete.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

namespace cats::alloc {

#if CATS_POOL_ENABLED
inline constexpr bool kPoolEnabled = true;
#else
inline constexpr bool kPoolEnabled = false;
#endif

/// Size-class granularity and ceiling.  Classes are (c + 1) * 64 bytes.
inline constexpr std::size_t kClassGranularity = 64;
inline constexpr std::size_t kMaxPooledBytes = 2048;
inline constexpr std::size_t kNumClasses = kMaxPooledBytes / kClassGranularity;

/// Aggregate pool statistics (process-wide, monotonic except occupancy).
/// Approximate under concurrency — same contract as obs counters.
struct PoolStats {
  bool enabled = kPoolEnabled;
  std::uint64_t alloc_fast = 0;       ///< served from the thread-local list
  std::uint64_t alloc_transfer = 0;   ///< refilled from the transfer cache
  std::uint64_t alloc_slab = 0;       ///< slabs carved from ::operator new
  std::uint64_t alloc_fallback = 0;   ///< oversize or TLS-dead ::operator new
  std::uint64_t free_fast = 0;        ///< pushed onto the thread-local list
  std::uint64_t free_fallback = 0;    ///< oversize ::operator delete
  std::uint64_t transfer_push = 0;    ///< batches parked in the transfer cache
  std::uint64_t overflow_push = 0;    ///< batches spilled to the overflow list
  std::uint64_t cached_blocks = 0;    ///< blocks idle in caches right now
  std::uint64_t slab_bytes = 0;       ///< total bytes carved from the OS

  /// Fraction of pooled allocations served without carving a slab.
  double hit_rate() const {
    const std::uint64_t total = alloc_fast + alloc_transfer + alloc_slab;
    return total == 0 ? 1.0
                      : static_cast<double>(alloc_fast + alloc_transfer) /
                            static_cast<double>(total);
  }
};

#if CATS_POOL_ENABLED

/// Allocates `size` bytes, 64-byte (cache-line) aligned when size <=
/// kMaxPooledBytes.  Never returns null; aborts on OS OOM like
/// ::operator new.
void* pool_alloc(std::size_t size);

/// Returns a block obtained from pool_alloc(size) with the same size.
void pool_free(void* p, std::size_t size) noexcept;

#else  // CATS_POOL_ENABLED

inline void* pool_alloc(std::size_t size) { return ::operator new(size); }
inline void pool_free(void* p, std::size_t size) noexcept {
  ::operator delete(p, size);
}

#endif  // CATS_POOL_ENABLED

/// Snapshot of the process-wide pool counters (all zero when the pool is
/// compiled out).  Safe from any thread at any time.
PoolStats pool_stats() noexcept;

/// Pushes the calling thread's entire cache to the transfer/overflow lists.
/// Test hook (makes cross-thread occupancy deterministic); no-op when the
/// pool is disabled or the thread's cache was already torn down.
void flush_thread_cache() noexcept;

}  // namespace cats::alloc

#include "alloc/pool.hpp"

#include <atomic>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/catomic.hpp"
#include "obs/flight/annot.hpp"

namespace cats::alloc {

#if CATS_POOL_ENABLED

namespace {

/// Free blocks are chained through their first word.  Every pooled node
/// type keeps its canary past offset 8, so the link never clobbers it.
struct FreeBlock {
  FreeBlock* next;
};

constexpr std::size_t kSlabBytes = 64 * 1024;
constexpr std::size_t kTransferSlots = 16;

/// Per-thread counters, owner-written with relaxed stores so pool_stats()
/// can read them from other threads without a lock or a race.
enum Stat : std::size_t {
  kStatAllocFast,
  kStatAllocTransfer,
  kStatAllocSlab,
  kStatAllocFallback,
  kStatFreeFast,
  kStatFreeFallback,
  kStatTransferPush,
  kStatOverflowPush,
  kStatCount,
};

constexpr std::size_t class_bytes(std::size_t c) {
  return (c + 1) * kClassGranularity;
}

constexpr std::size_t class_for(std::size_t size) {
  return (size + kClassGranularity - 1) / kClassGranularity - 1;
}

/// Thread-local list cap: small classes cache more blocks.  The cap bounds
/// per-thread idle memory at roughly 16 KiB per active class.
constexpr std::uint32_t cache_cap(std::size_t c) {
  const std::size_t cap = (16 * 1024) / class_bytes(c);
  return cap < 8 ? 8 : (cap > 256 ? 256 : static_cast<std::uint32_t>(cap));
}

/// Blocks released to the transfer cache per batch (half the cap, so a
/// thread oscillating around the cap doesn't thrash).
constexpr std::uint32_t release_batch(std::size_t c) { return cache_cap(c) / 2; }

struct ThreadCache;

/// Process-wide shared state.  Leaked on purpose: thread caches flush into
/// it from TLS destructors that may run during static destruction, and the
/// slab registry must stay reachable for leak checkers.
struct Central {
  /// Each slot holds the head of a detached same-class chain (or null).
  /// Push: CAS null -> head (release).  Pop: exchange whole slot (acquire).
  /// Whole-chain moves leave no ABA window.
  cats::atomic<void*> transfer[kNumClasses][kTransferSlots] = {};

  std::mutex overflow_mutex;
  std::vector<void*> overflow[kNumClasses];  // chain heads, cold spill

  std::mutex registry_mutex;
  std::vector<void*> slabs;            // carved slabs, never freed
  std::vector<ThreadCache*> caches;    // live thread caches (for stats)

  cats::atomic<std::uint64_t> transfer_blocks{0};
  cats::atomic<std::uint64_t> overflow_blocks{0};
  cats::atomic<std::uint64_t> slab_bytes{0};
  /// Counters of exited threads, plus events on cache-less threads.
  cats::atomic<std::uint64_t> dead_stats[kStatCount] = {};

  static Central& instance() {
    static Central* const central = new Central();  // leaked on purpose
    return *central;
  }

  void bump_dead(Stat s, std::uint64_t n = 1) {
    dead_stats[s].fetch_add(n, std::memory_order_relaxed);
  }

  /// Parks a chain of `n` blocks of class `c`; takes ownership.
  void park_chain(std::size_t c, void* head, std::uint64_t n, Stat* out) {
    for (auto& slot : transfer[c]) {
      void* expected = nullptr;
      if (slot.compare_exchange_strong(expected, head,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
        transfer_blocks.fetch_add(n, std::memory_order_relaxed);
        if (out != nullptr) *out = kStatTransferPush;
        return;
      }
    }
    std::lock_guard<std::mutex> lock(overflow_mutex);
    overflow[c].push_back(head);
    overflow_blocks.fetch_add(n, std::memory_order_relaxed);
    if (out != nullptr) *out = kStatOverflowPush;
  }

  /// Takes one parked chain of class `c`, or null.  Writes its length.
  void* take_chain(std::size_t c, std::uint64_t* n_out) {
    for (auto& slot : transfer[c]) {
      void* head = slot.exchange(nullptr, std::memory_order_acquire);
      if (head != nullptr) {
        const std::uint64_t n = chain_length(head);
        transfer_blocks.fetch_sub(n, std::memory_order_relaxed);
        *n_out = n;
        return head;
      }
    }
    std::lock_guard<std::mutex> lock(overflow_mutex);
    if (overflow[c].empty()) return nullptr;
    void* head = overflow[c].back();
    overflow[c].pop_back();
    const std::uint64_t n = chain_length(head);
    overflow_blocks.fetch_sub(n, std::memory_order_relaxed);
    *n_out = n;
    return head;
  }

  static std::uint64_t chain_length(void* head) {
    std::uint64_t n = 0;
    for (auto* b = static_cast<FreeBlock*>(head); b != nullptr; b = b->next) {
      ++n;
    }
    return n;
  }
};

/// Set (permanently) by ~ThreadCache; trivial destructor, so it outlives the
/// cache during thread teardown and routes late frees to the central lists.
thread_local bool tl_cache_destroyed = false;

struct ThreadCache {
  FreeBlock* head[kNumClasses] = {};
  /// Owner-written, read by pool_stats() from other threads: relaxed
  /// atomics, as cheap as plain words on the owner's fast path.
  cats::atomic<std::uint32_t> count[kNumClasses] = {};
  cats::atomic<std::uint64_t> stats[kStatCount] = {};

  ThreadCache() {
    Central& central = Central::instance();
    std::lock_guard<std::mutex> lock(central.registry_mutex);
    central.caches.push_back(this);
  }

  ~ThreadCache() {
    Central& central = Central::instance();
    // Hold the registry lock across the whole teardown so a concurrent
    // pool_stats() sees this cache either fully live or fully aggregated,
    // never both.  Lock order registry -> overflow is consistent process
    // wide (park_chain may take the overflow mutex below).
    std::lock_guard<std::mutex> lock(central.registry_mutex);
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      if (head[c] != nullptr) {
        central.park_chain(c, head[c],
                           count[c].load(std::memory_order_relaxed), nullptr);
        head[c] = nullptr;
        count[c].store(0, std::memory_order_relaxed);
      }
    }
    for (std::size_t s = 0; s < kStatCount; ++s) {
      central.bump_dead(static_cast<Stat>(s),
                        stats[s].load(std::memory_order_relaxed));
    }
    for (auto& entry : central.caches) {
      if (entry == this) {
        entry = central.caches.back();
        central.caches.pop_back();
        break;
      }
    }
    tl_cache_destroyed = true;
  }

  void bump(Stat s, std::uint64_t n = 1) {
    stats[s].store(stats[s].load(std::memory_order_relaxed) + n,
                   std::memory_order_relaxed);
  }

  void push(std::size_t c, FreeBlock* b) {
    b->next = head[c];
    head[c] = b;
    count[c].store(count[c].load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  }

  FreeBlock* pop(std::size_t c) {
    FreeBlock* b = head[c];
    if (b != nullptr) {
      head[c] = b->next;
      count[c].store(count[c].load(std::memory_order_relaxed) - 1,
                     std::memory_order_relaxed);
    }
    return b;
  }
};

ThreadCache* cache() noexcept {
  if (tl_cache_destroyed) return nullptr;
  thread_local ThreadCache tc;
  return &tc;
}

/// Carves a fresh slab for class `c`: chains half a cache cap into `tc` and
/// parks the surplus centrally.  Chaining the whole slab would leave the
/// cache far over its cap, and the very next free would then dump the
/// hottest (just-freed) blocks back out through release_to_central.
void carve_slab(ThreadCache& tc, std::size_t c) {
  Central& central = Central::instance();
  const std::size_t bytes = class_bytes(c);
  const std::size_t blocks = kSlabBytes / bytes;
  // Plain ::operator new only guarantees 16-byte alignment; the slab must
  // start on a class boundary for every block to start on a cache line.
  char* slab = static_cast<char*>(
      ::operator new(kSlabBytes, std::align_val_t{kClassGranularity}));
  {
    std::lock_guard<std::mutex> lock(central.registry_mutex);
    central.slabs.push_back(slab);
  }
  central.slab_bytes.fetch_add(kSlabBytes, std::memory_order_relaxed);
  const std::size_t keep =
      blocks < release_batch(c) ? blocks : release_batch(c);
  for (std::size_t i = 0; i < keep; ++i) {
    tc.push(c, reinterpret_cast<FreeBlock*>(slab + i * bytes));
  }
  if (blocks > keep) {
    FreeBlock* head = nullptr;
    for (std::size_t i = blocks; i-- > keep;) {
      auto* b = reinterpret_cast<FreeBlock*>(slab + i * bytes);
      b->next = head;
      head = b;
    }
    central.park_chain(c, head, blocks - keep, nullptr);
  }
  tc.bump(kStatAllocSlab);
}

/// Refills `tc` for class `c` from the transfer cache, the overflow list or
/// a fresh slab, then pops one block.
void* alloc_slow(ThreadCache& tc, std::size_t c) {
  obs::flight::note_pool_refill();
  Central& central = Central::instance();
  std::uint64_t n = 0;
  void* chain = central.take_chain(c, &n);
  if (chain != nullptr) {
    tc.head[c] = static_cast<FreeBlock*>(chain);
    tc.count[c].store(static_cast<std::uint32_t>(n),
                      std::memory_order_relaxed);
    tc.bump(kStatAllocTransfer);
  } else {
    carve_slab(tc, c);
  }
  return tc.pop(c);
}

/// Allocation after the thread cache was torn down (late TLS destructors,
/// e.g. an EBR domain draining orphans during static destruction).  The
/// block is an aligned heap allocation of the exact class size, so it can
/// rejoin the pool when freed.
void* alloc_no_cache(std::size_t c) {
  Central& central = Central::instance();
  std::uint64_t n = 0;
  void* chain = central.take_chain(c, &n);
  if (chain == nullptr) {
    central.bump_dead(kStatAllocFallback);
    return ::operator new(class_bytes(c),
                          std::align_val_t{kClassGranularity});
  }
  auto* b = static_cast<FreeBlock*>(chain);
  if (b->next != nullptr) {
    central.park_chain(c, b->next, n - 1, nullptr);
  }
  central.bump_dead(kStatAllocTransfer);
  return b;
}

/// Keeps the hottest half-cap of blocks (the most recently freed, at the
/// list head) and parks the colder remainder centrally as one chain.  Only
/// called with count >= cache_cap, so the remainder is never empty; the cut
/// walk is bounded by the cap even when a long adopted transfer chain
/// pushed the count far above it.
void release_to_central(ThreadCache& tc, std::size_t c) {
  const std::uint32_t keep = release_batch(c);
  const std::uint32_t count = tc.count[c].load(std::memory_order_relaxed);
  FreeBlock* tail = tc.head[c];
  for (std::uint32_t i = 1; i < keep; ++i) tail = tail->next;
  FreeBlock* chain = tail->next;
  tail->next = nullptr;
  tc.count[c].store(keep, std::memory_order_relaxed);
  Stat where = kStatTransferPush;
  Central::instance().park_chain(c, chain, count - keep, &where);
  tc.bump(where);
}

}  // namespace

void* pool_alloc(std::size_t size) {
  if (size == 0) size = 1;
  if (size > kMaxPooledBytes) {
    Central::instance().bump_dead(kStatAllocFallback);
    return ::operator new(size);
  }
  const std::size_t c = class_for(size);
  ThreadCache* tc = cache();
  if (tc == nullptr) return alloc_no_cache(c);
  FreeBlock* b = tc->pop(c);
  if (b != nullptr) {
    tc->bump(kStatAllocFast);
    return b;
  }
  return alloc_slow(*tc, c);
}

void pool_free(void* p, std::size_t size) noexcept {
  if (p == nullptr) return;
  if (size == 0) size = 1;
  if (size > kMaxPooledBytes) {
    Central::instance().bump_dead(kStatFreeFallback);
    ::operator delete(p);
    return;
  }
  const std::size_t c = class_for(size);
  auto* b = static_cast<FreeBlock*>(p);
  ThreadCache* tc = cache();
  if (tc == nullptr) {
    // Late free on a torn-down thread: park a one-block chain centrally.
    b->next = nullptr;
    Central::instance().park_chain(c, b, 1, nullptr);
    Central::instance().bump_dead(kStatFreeFast);
    return;
  }
  tc->push(c, b);
  tc->bump(kStatFreeFast);
  if (tc->count[c].load(std::memory_order_relaxed) >= cache_cap(c)) {
    release_to_central(*tc, c);
  }
}

PoolStats pool_stats() noexcept {
  Central& central = Central::instance();
  std::uint64_t stats[kStatCount] = {};
  std::uint64_t local_blocks = 0;
  {
    std::lock_guard<std::mutex> lock(central.registry_mutex);
    for (const ThreadCache* tc : central.caches) {
      for (std::size_t s = 0; s < kStatCount; ++s) {
        stats[s] += tc->stats[s].load(std::memory_order_relaxed);
      }
      for (std::size_t c = 0; c < kNumClasses; ++c) {
        local_blocks += tc->count[c].load(std::memory_order_relaxed);
      }
    }
  }
  for (std::size_t s = 0; s < kStatCount; ++s) {
    stats[s] += central.dead_stats[s].load(std::memory_order_relaxed);
  }
  PoolStats out;
  out.alloc_fast = stats[kStatAllocFast];
  out.alloc_transfer = stats[kStatAllocTransfer];
  out.alloc_slab = stats[kStatAllocSlab];
  out.alloc_fallback = stats[kStatAllocFallback];
  out.free_fast = stats[kStatFreeFast];
  out.free_fallback = stats[kStatFreeFallback];
  out.transfer_push = stats[kStatTransferPush];
  out.overflow_push = stats[kStatOverflowPush];
  out.cached_blocks =
      local_blocks +
      central.transfer_blocks.load(std::memory_order_relaxed) +
      central.overflow_blocks.load(std::memory_order_relaxed);
  out.slab_bytes = central.slab_bytes.load(std::memory_order_relaxed);
  return out;
}

void flush_thread_cache() noexcept {
  ThreadCache* tc = cache();
  if (tc == nullptr) return;
  Central& central = Central::instance();
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    if (tc->head[c] == nullptr) continue;
    Stat where = kStatTransferPush;
    central.park_chain(c, tc->head[c],
                       tc->count[c].load(std::memory_order_relaxed), &where);
    tc->bump(where);
    tc->head[c] = nullptr;
    tc->count[c].store(0, std::memory_order_relaxed);
  }
}

#else  // CATS_POOL_ENABLED

PoolStats pool_stats() noexcept { return PoolStats{}; }

void flush_thread_cache() noexcept {}

#endif  // CATS_POOL_ENABLED

}  // namespace cats::alloc

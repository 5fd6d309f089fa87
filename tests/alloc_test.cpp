// Tests for the slab-backed node pool (src/alloc): size-class round trips,
// free-list reuse, the oversize fallback, flush/transfer mechanics and a
// cross-thread producer/consumer stress that exercises the lock-free
// transfer cache (the TSan job's main target in this subsystem).
//
// Every test must pass under both -DCATS_POOL=ON and OFF; assertions about
// pool internals are gated on alloc::kPoolEnabled, while the allocate /
// write / free contract is checked unconditionally.
#include "alloc/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/spin_barrier.hpp"
#include "lfca/lfca_tree.hpp"

namespace cats::alloc {
namespace {

TEST(AllocPool, RoundTripsEverySizeClass) {
  // One block of every pooled class plus the boundary cases around each
  // class edge; each block must be writable over its full requested size.
  std::vector<std::pair<void*, std::size_t>> blocks;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const std::size_t cap = (c + 1) * kClassGranularity;
    for (const std::size_t size : {cap - kClassGranularity + 1, cap}) {
      void* p = pool_alloc(size);
      ASSERT_NE(p, nullptr);
      // Pooled node types start with pointer-aligned fields.
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(void*), 0u);
      std::memset(p, static_cast<int>(c + 1), size);
      blocks.emplace_back(p, size);
    }
  }
  for (auto& [p, size] : blocks) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    EXPECT_EQ(bytes[0], bytes[size - 1]);  // pattern survived neighbors
    pool_free(p, size);
  }
}

TEST(AllocPool, FreeListReusesBlocksLifo) {
  if (!kPoolEnabled) GTEST_SKIP() << "pool compiled out";
  const PoolStats before = pool_stats();
  void* first = pool_alloc(128);
  pool_free(first, 128);
  // Single-threaded free-then-alloc of the same class must be served from
  // the thread-local list head — the very block just freed.
  void* second = pool_alloc(128);
  EXPECT_EQ(second, first);
  pool_free(second, 128);
  const PoolStats after = pool_stats();
  EXPECT_GE(after.alloc_fast, before.alloc_fast + 1);
  EXPECT_GE(after.free_fast, before.free_fast + 2);
}

TEST(AllocPool, OversizeFallsBackToHeap) {
  const PoolStats before = pool_stats();
  const std::size_t size = kMaxPooledBytes + 1;
  void* p = pool_alloc(size);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, size);
  pool_free(p, size);
  if (kPoolEnabled) {
    const PoolStats after = pool_stats();
    EXPECT_GE(after.alloc_fallback, before.alloc_fallback + 1);
    EXPECT_GE(after.free_fallback, before.free_fallback + 1);
  }
}

TEST(AllocPool, FlushParksCacheAndRefillsFromTransfer) {
  if (!kPoolEnabled) GTEST_SKIP() << "pool compiled out";
  constexpr std::size_t kSize = 192;
  constexpr int kBlocks = 32;
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(pool_alloc(kSize));
  for (void* p : blocks) pool_free(p, kSize);

  const PoolStats before = pool_stats();
  flush_thread_cache();
  const PoolStats flushed = pool_stats();
  // The freed blocks moved out of the thread cache into the transfer (or,
  // if its slots were all occupied, overflow) lists — still cached, not
  // returned to the OS.
  EXPECT_GE(flushed.transfer_push + flushed.overflow_push,
            before.transfer_push + before.overflow_push + 1);
  EXPECT_GE(flushed.cached_blocks, static_cast<std::uint64_t>(kBlocks));

  // The next allocation of that class refills from the parked chains.
  void* p = pool_alloc(kSize);
  const PoolStats refilled = pool_stats();
  EXPECT_GE(refilled.alloc_transfer, flushed.alloc_transfer + 1);
  pool_free(p, kSize);
}

TEST(AllocPool, StatsAreMonotonicAndSane) {
  const PoolStats before = pool_stats();
  for (int i = 0; i < 1000; ++i) {
    void* p = pool_alloc(64 + (i % 4) * 64);
    pool_free(p, 64 + (i % 4) * 64);
  }
  const PoolStats after = pool_stats();
  EXPECT_EQ(after.enabled, kPoolEnabled);
  EXPECT_GE(after.alloc_fast, before.alloc_fast);
  EXPECT_GE(after.alloc_slab, before.alloc_slab);
  EXPECT_GE(after.slab_bytes, before.slab_bytes);
  EXPECT_GE(after.hit_rate(), 0.0);
  EXPECT_LE(after.hit_rate(), 1.0);
  if (kPoolEnabled) {
    // A warmed-up alloc/free loop of 4 classes is nearly all fast-path.
    EXPECT_GE(after.alloc_fast, before.alloc_fast + 900);
  }
}

bool line_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kClassGranularity == 0;
}

// Every pooled block starts on a cache line, whichever way it reached the
// caller: carved from a fresh slab, adopted with a parked transfer chain,
// or taken back from the overflow list.
TEST(AllocPool, EveryBlockIsCacheLineAligned) {
  if (!kPoolEnabled) GTEST_SKIP() << "pool compiled out";
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const std::size_t size = (c + 1) * kClassGranularity;
    std::vector<void*> blocks;
    // Fresh slab: allocate until this class carves one.
    const std::uint64_t slabs = pool_stats().alloc_slab;
    while (pool_stats().alloc_slab == slabs) {
      ASSERT_LT(blocks.size(), 1'000'000u) << "class " << c;
      blocks.push_back(pool_alloc(size));
      ASSERT_TRUE(line_aligned(blocks.back())) << "class " << c;
    }
    // Transfer chain: park everything, then allocate it back.
    for (void* p : blocks) pool_free(p, size);
    flush_thread_cache();
    const std::uint64_t adopted = pool_stats().alloc_transfer;
    for (void*& p : blocks) {
      p = pool_alloc(size);
      ASSERT_TRUE(line_aligned(p)) << "class " << c;
    }
    EXPECT_GT(pool_stats().alloc_transfer, adopted) << "class " << c;
    for (void* p : blocks) pool_free(p, size);
  }

  // Overflow list: a large class has a small cache cap, so freeing many
  // blocks parks far more chains than the transfer cache has slots.  Taking
  // them all back without a new slab drains the overflow list too.
  constexpr std::size_t kSize = 1536;
  constexpr int kBlocks = 2000;
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(pool_alloc(kSize));
  const PoolStats before_free = pool_stats();
  for (void* p : blocks) pool_free(p, kSize);
  const PoolStats parked = pool_stats();
  ASSERT_GT(parked.overflow_push, before_free.overflow_push);
  for (void*& p : blocks) {
    p = pool_alloc(kSize);
    ASSERT_TRUE(line_aligned(p));
  }
  EXPECT_EQ(pool_stats().alloc_slab, parked.alloc_slab);
  for (void* p : blocks) pool_free(p, kSize);
}

TEST(AllocPool, TreeWorkloadRunsOnThePool) {
  if (!kPoolEnabled) GTEST_SKIP() << "pool compiled out";
  const PoolStats before = pool_stats();
  {
    lfca::LfcaTree tree;
    for (Key k = 0; k < 2000; ++k) tree.insert(k, 1);
    for (Key k = 0; k < 2000; k += 2) tree.remove(k);
    EXPECT_EQ(tree.size(), 1000u);
  }
  const PoolStats after = pool_stats();
  // Treap path copies dominate this workload; they must be pool-served.
  EXPECT_GE(after.alloc_fast + after.alloc_transfer + after.alloc_slab,
            before.alloc_fast + before.alloc_transfer + before.alloc_slab +
                1000);
}

// Producer/consumer stress across the transfer cache: blocks allocated on
// one thread are freed on another, exactly the flow EBR reclamation
// produces.  Each block carries its size in its first word so a consumer
// can verify it frees with the size it was allocated with; TSan checks the
// push/pop protocol, ASan checks nothing is freed twice or out of bounds.
TEST(AllocPool, CrossThreadTransferStress) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20'000;
  constexpr std::size_t kSizes[] = {24, 64, 72, 192, 512, 2048,
                                    kMaxPooledBytes + 104};

  std::mutex mu;
  std::vector<std::pair<void*, std::size_t>> shared;
  std::atomic<std::uint64_t> allocated{0};
  std::atomic<std::uint64_t> freed{0};
  SpinBarrier barrier(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t + 99);
      barrier.arrive_and_wait();
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.next_below(2) == 0) {
          const std::size_t size =
              kSizes[rng.next_below(std::size(kSizes))];
          void* p = pool_alloc(size);
          std::memcpy(p, &size, sizeof(size));
          allocated.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lk(mu);
          shared.emplace_back(p, size);
        } else {
          std::pair<void*, std::size_t> item{nullptr, 0};
          {
            std::lock_guard<std::mutex> lk(mu);
            if (!shared.empty()) {
              // Take from the front so blocks usually die on a thread
              // other than the one that allocated them.
              item = shared.front();
              shared.erase(shared.begin());
            }
          }
          if (item.first != nullptr) {
            std::size_t stamped = 0;
            std::memcpy(&stamped, item.first, sizeof(stamped));
            ASSERT_EQ(stamped, item.second);
            pool_free(item.first, item.second);
            freed.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (i % 4096 == 0) flush_thread_cache();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (auto& [p, size] : shared) {
    pool_free(p, size);
    freed.fetch_add(1, std::memory_order_relaxed);
  }
  EXPECT_EQ(allocated.load(), freed.load());
  if (kPoolEnabled) {
    const PoolStats stats = pool_stats();
    EXPECT_GT(stats.alloc_fast, 0u);
    EXPECT_GT(stats.transfer_push + stats.overflow_push, 0u);
  }
}

}  // namespace
}  // namespace cats::alloc

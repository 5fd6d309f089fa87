// Versioned-skiplist (KiWi-mechanism) specifics: version assignment and
// helping, snapshot scans under concurrent updates, tombstone semantics and
// version-chain pruning.
#include "vskip/versioned_skiplist.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/spin_barrier.hpp"

namespace cats::vskip {
namespace {

TEST(VskipBasic, TombstoneSemantics) {
  VersionedSkipList map;
  EXPECT_FALSE(map.remove(5));  // no index node is created for this
  EXPECT_TRUE(map.insert(5, 1));
  EXPECT_FALSE(map.insert(5, 2));
  EXPECT_TRUE(map.remove(5));
  EXPECT_FALSE(map.lookup(5));
  // Reinsert over a tombstone.
  EXPECT_TRUE(map.insert(5, 3));
  Value v = 0;
  ASSERT_TRUE(map.lookup(5, &v));
  EXPECT_EQ(v, 3u);
}

TEST(VskipBasic, ScanSkipsTombstones) {
  VersionedSkipList map;
  for (Key k = 1; k <= 20; ++k) map.insert(k, 1);
  for (Key k = 1; k <= 20; k += 2) map.remove(k);
  std::vector<Key> seen;
  map.range_query(1, 20, [&](Key k, Value) { seen.push_back(k); });
  ASSERT_EQ(seen.size(), 10u);
  for (Key k : seen) EXPECT_EQ(k % 2, 0);
}

TEST(VskipBasic, SequentialModelComparison) {
  VersionedSkipList map;
  std::map<Key, Value> model;
  Xoshiro256 rng(11);
  for (int i = 0; i < 20'000; ++i) {
    const Key k = rng.next_in(1, 2000);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const Value v = rng.next();
        EXPECT_EQ(map.insert(k, v), model.count(k) == 0);
        model[k] = v;
        break;
      }
      case 2:
        EXPECT_EQ(map.remove(k), model.erase(k) == 1);
        break;
      default: {
        Value v = 0;
        const bool found = map.lookup(k, &v);
        EXPECT_EQ(found, model.count(k) == 1);
        if (found) {
          EXPECT_EQ(v, model[k]);
        }
      }
    }
  }
  EXPECT_EQ(map.size(), model.size());
}

TEST(VskipVersioning, ScansOwnDistinctVersions) {
  VersionedSkipList map;
  map.insert(1, 1);
  const std::uint64_t v0 = map.version();
  map.range_query(0, 10, [](Key, Value) {});
  map.range_query(0, 10, [](Key, Value) {});
  EXPECT_EQ(map.version(), v0 + 2);
  // Updates do not advance the version counter.
  map.insert(2, 1);
  map.remove(1);
  EXPECT_EQ(map.version(), v0 + 2);
}

// Snapshot semantics: sum-preserving overwrites must never be observed
// half-applied by a scan.
TEST(VskipConcurrent, ScansAreSnapshots) {
  VersionedSkipList map;
  constexpr Key kWindow = 64;
  constexpr Value kUnit = 100;
  for (Key k = 1; k <= kWindow; ++k) map.insert(k, kUnit);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      Xoshiro256 rng(w + 5);
      while (!stop.load()) {
        map.insert(rng.next_in(1, kWindow), kUnit);  // identity overwrite
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 3000; ++i) {
        Value sum = 0;
        std::size_t n = 0;
        map.range_query(1, kWindow, [&](Key, Value v) {
          sum += v;
          ++n;
        });
        if (sum != kWindow * kUnit || n != kWindow) violations.fetch_add(1);
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(VskipConcurrent, DisjointStripes) {
  VersionedSkipList map;
  constexpr int kThreads = 6;
  SpinBarrier barrier(kThreads);
  std::vector<std::map<Key, Value>> models(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t + 13);
      auto& model = models[t];
      barrier.arrive_and_wait();
      for (int i = 0; i < 15'000; ++i) {
        const Key k = rng.next_in(0, 1000) * kThreads + t + 1;
        switch (rng.next_below(4)) {
          case 0:
          case 1: {
            const Value v = rng.next();
            if (map.insert(k, v) != (model.count(k) == 0)) failures++;
            model[k] = v;
            break;
          }
          case 2:
            if (map.remove(k) != (model.erase(k) == 1)) failures++;
            break;
          default: {
            // Scans mixed in so pruning and version assignment race with
            // the updates.
            std::size_t n = 0;
            map.range_query(k, k + 100, [&](Key, Value) { ++n; });
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  std::size_t expected = 0;
  for (auto& m : models) expected += m.size();
  EXPECT_EQ(map.size(), expected);
}

TEST(VskipPruning, HotKeyChainsStayBounded) {
  VersionedSkipList map;
  // Alternate updates and scans on one key: pruning must keep reclaiming
  // superseded records (verified via the domain's pending counter staying
  // bounded rather than growing with the iteration count).
  reclaim::Domain& domain = map.domain();
  for (int i = 0; i < 50'000; ++i) {
    map.insert(7, static_cast<Value>(i));
    if (i % 16 == 0) {
      map.range_query(0, 10, [](Key, Value) {});
    }
  }
  domain.drain();
  EXPECT_LT(domain.pending(), 10'000u);
  Value v = 0;
  ASSERT_TRUE(map.lookup(7, &v));
  EXPECT_EQ(v, 49'999u);
}

// Three writers on two hot keys plus a scanner, for about two seconds.
// Pruners that read different min_active_scan() values detach overlapping
// chain suffixes; each superseded record must still be retired exactly once
// (a CATS_CHECKED build aborts on a double retire, other builds may corrupt
// the heap), and an overwrite must always see its key present.
TEST(VskipPruning, HotKeyPrunersRetireEachRecordOnce) {
  reclaim::Domain domain;
  {
    VersionedSkipList map(domain);
    map.insert(1, 0);
    map.insert(2, 0);
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < 3; ++w) {
      threads.emplace_back([&, w] {
        for (Value i = 1; !stop.load(std::memory_order_relaxed); ++i) {
          if (map.insert(1 + static_cast<Key>((i + w) % 2), i)) {
            failures.fetch_add(1);
          }
        }
      });
    }
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::size_t n = 0;
        map.range_query(1, 2, [&](Key, Value) { ++n; });
        if (n != 2) failures.fetch_add(1);
      }
    });
    std::this_thread::sleep_for(std::chrono::seconds(2));
    stop.store(true);
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);
  }
  domain.drain();
  EXPECT_EQ(domain.pending(), 0u);
}

}  // namespace
}  // namespace cats::vskip

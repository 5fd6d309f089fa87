// Lock-based CA tree specifics: the range_update extension ([16], §3 "the
// use of locks makes it easier to extend the interface"), adaptation
// counters, and the Im-Tr clone operation.
#include "calock/ca_tree.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/spin_barrier.hpp"
#include "imtr/imtr_set.hpp"

namespace cats::calock {
namespace {

TEST(CaRangeUpdate, TransformsExactlyTheRange) {
  CaTree tree;
  for (Key k = 0; k < 100; ++k) tree.insert(k, 10);
  const std::size_t updated =
      tree.range_update(20, 40, [](Key, Value v) { return v * 2; });
  EXPECT_EQ(updated, 21u);
  Value v = 0;
  ASSERT_TRUE(tree.lookup(19, &v));
  EXPECT_EQ(v, 10u);
  ASSERT_TRUE(tree.lookup(20, &v));
  EXPECT_EQ(v, 20u);
  ASSERT_TRUE(tree.lookup(40, &v));
  EXPECT_EQ(v, 20u);
  ASSERT_TRUE(tree.lookup(41, &v));
  EXPECT_EQ(v, 10u);
}

TEST(CaRangeUpdate, EmptyRangeIsNoop) {
  CaTree tree;
  tree.insert(5, 1);
  EXPECT_EQ(tree.range_update(100, 200, [](Key, Value v) { return v + 1; }),
            0u);
  Value v = 0;
  ASSERT_TRUE(tree.lookup(5, &v));
  EXPECT_EQ(v, 1u);
}

// Atomicity: concurrent range updates add +1 to every item in a window;
// concurrent range queries must always see a uniform value across the
// window (all items updated the same number of times).
TEST(CaRangeUpdate, AtomicUnderConcurrency) {
  CaTree tree;
  constexpr Key kWindow = 100;
  for (Key k = 0; k < kWindow; ++k) tree.insert(k, 0);
  // Force some structure so the window spans several base nodes under
  // churn around it.
  for (Key k = kWindow; k < kWindow + 5000; ++k) tree.insert(k, 0);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread updater([&] {
    for (int i = 0; i < 1500; ++i) {
      tree.range_update(0, kWindow - 1,
                        [](Key, Value v) { return v + 1; });
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        Value first = 0;
        bool started = false;
        bool uniform = true;
        std::size_t count = 0;
        tree.range_query(0, kWindow - 1, [&](Key, Value v) {
          if (!started) {
            first = v;
            started = true;
          } else if (v != first) {
            uniform = false;
          }
          ++count;
        });
        if (!uniform || count != kWindow) violations.fetch_add(1);
      }
    });
  }
  updater.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(violations.load(), 0);
  Value v = 0;
  ASSERT_TRUE(tree.lookup(0, &v));
  EXPECT_EQ(v, 1500u);
}

// Deterministic contention: a range_update holds the base lock while
// another thread's update arrives, so that update's try_lock fails (the CA
// tree's contention signal), the statistics jump, and a split follows.
// This avoids depending on preemption timing.
TEST(CaAdapt, ContendedLockAcquisitionCausesSplit) {
  Config config;
  config.high_cont = 0;  // one contended lock acquisition splits
  config.low_cont = -1;  // the pre-fill drifts the statistics down only to
                         // -2, so one +cont_contrib crosses high_cont
  CaTree tree(reclaim::Domain::global(), config);
  for (Key k = 0; k < 4096; ++k) tree.insert(k, 1);
  ASSERT_EQ(tree.route_node_count(), 0u);

  // One-shot handshake: the holder's range_update calls f with the base
  // lock held; f parks until our insert is on its way, then keeps the lock
  // ~20 ms longer so the insert's try_lock fails.  A retry covers the rare
  // case where we are descheduled past that window.
  for (int attempt = 0; attempt < 10 && tree.splits() == 0; ++attempt) {
    std::atomic<bool> holding{false};
    std::atomic<bool> waiting{false};
    std::thread holder([&] {
      tree.range_update(0, 0, [&](Key, Value v) {
        holding.store(true);
        while (!waiting.load()) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return v;
      });
    });
    while (!holding.load()) std::this_thread::yield();
    waiting.store(true);
    tree.insert(1, 7);  // contended: blocks until the range_update returns
    holder.join();
  }
  EXPECT_GT(tree.splits(), 0u);
  // Contents survived: 4096 original keys still present.
  EXPECT_EQ(tree.size(), 4096u);
}

TEST(CaAdapt, UncontendedDriftCausesJoins) {
  Config config;
  config.high_cont = 0;
  config.low_cont = -50;
  config.low_cont_contrib = 1;
  CaTree tree(reclaim::Domain::global(), config);
  for (Key k = 0; k < 4096; ++k) tree.insert(k, 1);

  // Build structure deterministically with the maintenance API.
  Xoshiro256 rng(3);
  for (int i = 0; i < 50 && tree.route_node_count() < 8; ++i) {
    tree.force_split(rng.next_in(0, 4095));
  }
  ASSERT_GT(tree.splits(), 0u);
  ASSERT_GT(tree.route_node_count(), 0u);

  // Single-threaded drift: joins collapse the structure again.
  for (int i = 0; i < 200'000 && tree.route_node_count() > 0; ++i) {
    tree.insert(i % 4096, 9);
  }
  EXPECT_GT(tree.joins(), 0u);
  EXPECT_EQ(tree.route_node_count(), 0u);
  EXPECT_EQ(tree.size(), 4096u);
}

TEST(ImtrClone, CloneIsSnapshotIsolated) {
  imtr::ImTreeSet set;
  for (Key k = 0; k < 1000; ++k) set.insert(k, 1);
  imtr::ImTreeSet copy = set.clone();
  EXPECT_EQ(copy.size(), 1000u);

  // Mutating the original never shows in the clone, and vice versa.
  set.insert(5000, 9);
  set.remove(0);
  copy.insert(6000, 9);
  EXPECT_EQ(set.size(), 1000u);   // +1 -1
  EXPECT_EQ(copy.size(), 1001u);  // +1
  EXPECT_FALSE(copy.lookup(5000));
  EXPECT_TRUE(copy.lookup(0));
  EXPECT_FALSE(set.lookup(6000));
}

TEST(ImtrClone, CloneUnderConcurrentUpdates) {
  imtr::ImTreeSet set;
  for (Key k = 0; k < 2000; ++k) set.insert(k, 1);
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    Xoshiro256 rng(9);
    while (!stop.load()) {
      const Key k = rng.next_in(0, 1999);
      if (rng.next_below(2) == 0) {
        set.remove(k);
      } else {
        set.insert(k, 2);
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    imtr::ImTreeSet copy = set.clone();
    // The clone must be internally consistent: sorted, size == walk count.
    std::size_t count = 0;
    Key last = kKeyMin;
    bool ordered = true;
    copy.range_query(kKeyMin, kKeyMax, [&](Key k, Value) {
      if (count > 0 && k <= last) ordered = false;
      last = k;
      ++count;
    });
    EXPECT_TRUE(ordered);
    EXPECT_EQ(count, copy.size());
  }
  stop.store(true);
  churn.join();
}

}  // namespace
}  // namespace cats::calock

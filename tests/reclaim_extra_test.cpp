// Additional EBR tests: multi-domain usage, epoch monotonicity, orphan
// adoption on thread exit, slot recycling and pending-count bookkeeping.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "reclaim/ebr.hpp"

namespace cats::reclaim {
namespace {

struct Counted {
  static std::atomic<int> live;
  Counted() { live.fetch_add(1); }
  ~Counted() { live.fetch_sub(1); }
};
std::atomic<int> Counted::live{0};

TEST(EbrExtra, TwoDomainsAreIndependent) {
  Domain a;
  Domain b;
  const int before = Counted::live.load();
  {
    Domain::Guard guard_a(a);  // blocks A's reclamation only
    b.retire(new Counted());
    for (int i = 0; i < 5; ++i) b.drain();
    EXPECT_EQ(Counted::live.load(), before);  // B drained despite A's guard
    a.retire(new Counted());
    for (int i = 0; i < 5; ++i) {
      // Draining A under our own guard is futile by design: our guard
      // pins the epoch (drain() documents the no-guard precondition, so we
      // only check nothing is freed prematurely).
      EXPECT_EQ(Counted::live.load(), before + 1);
      Domain::Guard inner(a);
    }
  }
  a.drain();
  EXPECT_EQ(Counted::live.load(), before);
}

TEST(EbrExtra, EpochIsMonotonic) {
  Domain domain;
  std::uint64_t last = domain.epoch();
  for (int i = 0; i < 1000; ++i) {
    domain.retire(new Counted());
    const std::uint64_t now = domain.epoch();
    EXPECT_GE(now, last);
    last = now;
  }
  domain.drain();
}

TEST(EbrExtra, OrphansAdoptedAfterThreadExit) {
  Domain domain;
  const int before = Counted::live.load();
  std::thread worker([&] {
    for (int i = 0; i < 500; ++i) domain.retire(new Counted());
    // Exit without draining: retirements become orphans.
  });
  worker.join();
  EXPECT_GT(Counted::live.load(), before);  // not yet freed
  domain.drain();
  EXPECT_EQ(Counted::live.load(), before);
  EXPECT_EQ(domain.pending(), 0u);
}

TEST(EbrExtra, ManyShortLivedThreads) {
  // Slot recycling: more thread lifetimes than kMaxThreads must work as
  // long as concurrent registration stays below the limit.
  Domain domain;
  const int before = Counted::live.load();
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 16; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          Domain::Guard guard(domain);
          domain.retire(new Counted());
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  domain.drain();
  EXPECT_EQ(Counted::live.load(), before);
}

TEST(EbrExtra, PendingCountTracksRetirements) {
  Domain domain;
  const std::size_t base = domain.pending();
  for (int i = 0; i < 10; ++i) domain.retire(new Counted());
  EXPECT_EQ(domain.pending(), base + 10);
  domain.drain();
  EXPECT_EQ(domain.pending(), 0u);
}

}  // namespace
}  // namespace cats::reclaim

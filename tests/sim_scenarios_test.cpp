// Model-checked scenarios for the LFCA protocols (CATS_SIM=ON builds).
//
// Each scenario is re-executed once per explored schedule, so it builds
// all shared state locally: a per-execution reclamation Domain, a fresh
// tree, fresh cats::sim_thread workers.  Workers detach from the Domain
// before returning so EBR bookkeeping happens inside the managed
// schedule (reclaim/ebr.hpp, detach_current_thread).
//
// Two kinds of test live here:
//   * real-protocol scenarios (split help, range-query helping, join vs
//     readers, EBR advance/retire, KiWi version-chain pruning) that must
//     explore CLEAN to the bound —
//     the race detector, quarantine checker and linearizability oracle
//     all armed;
//   * planted-bug twins (weakened publish order, skipped help step, early
//     guard exit) modelling a protocol with one rule broken — the
//     simulator must FIND the bug and produce a replayable trace.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "common/catomic.hpp"
#include "lfca/lfca_tree.hpp"
#include "reclaim/ebr.hpp"
#include "sim/sim.hpp"
#include "sim_support.hpp"
#include "vskip/versioned_skiplist.hpp"

namespace cats::lfca {
namespace {

using reclaim::Domain;
using simtest::dfs_options;
using simtest::run_reported;

Config non_optimistic() {
  Config config;
  config.optimistic_ranges = false;  // route queries through all_in_range
  return config;
}

Config eager_split() {
  Config config;
  config.high_cont = 1;  // any detected contention triggers a split
  return config;
}

std::size_t count_range(const LfcaTree& tree, Key lo, Key hi) {
  std::size_t n = 0;
  tree.range_query(lo, hi, [&](Key, Value) { ++n; });
  return n;
}

// --- real protocol scenarios: must explore clean ----------------------------

// Two inserts race with an in-flight split: the loser of the base CAS must
// retry onto the freshly published half and the split's pre-publication
// node construction (lb/rb/parent plain writes, relaxed left/right stores
// before the publishing CAS) must never race with the readers.
TEST(SimScenario, SplitHelpInsertInsert) {
  sim::Result r = run_reported("SplitHelpInsertInsert", dfs_options(800), [] {
    Domain domain;
    {
      LfcaTree tree(domain, eager_split());
      for (Key k = 0; k <= 10; k += 2) tree.insert(k, k * 10);
      cats::sim_thread a([&] {
        tree.force_split(6);
        tree.insert(3, 30);
        domain.detach_current_thread();
      });
      cats::sim_thread b([&] {
        tree.insert(9, 90);
        domain.detach_current_thread();
      });
      a.join();
      b.join();
      sim::check(tree.lookup(3), "insert(3) lost");
      sim::check(tree.lookup(9), "insert(9) lost");
      sim::check(tree.size() == 8, "size after concurrent inserts");
      sim::check(tree.check_integrity(), "route/container invariants");
    }
  });
  EXPECT_FALSE(r.failed) << r.failure_message << "\n" << r.failure_trace;
  EXPECT_GT(r.schedules_explored, 1u);
}

// A non-optimistic range query overlaps an updating thread: the query's
// snapshot must be exact (every key, no duplicates) in every schedule,
// and the recorded history must linearize.  Keys stay below 16 so the
// lintest presence mask covers the whole universe.
TEST(SimScenario, RangeQueryVsUpdateHelp) {
  simtest::HistoryRecorder history;
  sim::Result r =
      run_reported("RangeQueryVsUpdateHelp", dfs_options(800), [&] {
        history.clear();
        Domain domain;
        {
          LfcaTree tree(domain, non_optimistic());
          for (Key k = 0; k < 12; ++k) tree.insert(k, 1);
          tree.force_split(6);
          cats::sim_thread updater([&] {
            const std::uint64_t t0 = history.invoke();
            bool fresh = tree.insert(5, 999);  // overwrite: membership fixed
            history.done(lintest::OpType::kInsert, 5, fresh, t0);
            domain.detach_current_thread();
          });
          const std::uint64_t t0 = history.invoke();
          std::uint16_t mask = 0;
          std::size_t n = 0;
          tree.range_query(0, 11, [&](Key k, Value) {
            mask = static_cast<std::uint16_t>(mask | (1u << k));
            ++n;
          });
          history.done_range(0, 11, mask, t0);
          updater.join();
          sim::check(n == 12, "range query missed or duplicated a key");
          history.verify(/*initial_mask=*/0x0FFF);
        }
      });
  EXPECT_FALSE(r.failed) << r.failure_message << "\n" << r.failure_trace;
  EXPECT_GT(r.schedules_explored, 1u);
}

// A forced join (kJoinMain/kJoinNeighbor protocol, paper §4) runs against
// an insert and a lookup: helpers may complete the join, and the §4
// publication pairing (m->gparent/otherb/neigh1 written plain before
// neigh2's release CAS, read after its acquire) is verified dynamically
// by the race detector at every interleaving.
TEST(SimScenario, JoinVsInsertLookup) {
  sim::Result r = run_reported("JoinVsInsertLookup", dfs_options(800), [] {
    Domain domain;
    {
      LfcaTree tree(domain);
      for (Key k = 0; k < 12; ++k) tree.insert(k, k);
      tree.force_split(6);
      cats::sim_thread joiner([&] {
        tree.force_join(3);
        domain.detach_current_thread();
      });
      cats::sim_thread writer([&] {
        tree.insert(12, 120);
        sim::check(tree.lookup(7), "lookup(7) lost during join");
        domain.detach_current_thread();
      });
      joiner.join();
      writer.join();
      for (Key k = 0; k <= 12; ++k) {
        sim::check(tree.lookup(k), "key lost across join");
      }
      sim::check(tree.check_integrity(), "route/container invariants");
    }
  });
  EXPECT_FALSE(r.failed) << r.failure_message << "\n" << r.failure_trace;
  EXPECT_GT(r.schedules_explored, 1u);
}

// Join helpers vs reclamation.  The joiner's force_join unlinks b, the
// neighbor, neigh1 and parent, and detaches so its retirements become
// orphans.  The helper's insert lands on the join_neighbor, so it enters
// complete_join and reads neigh1 and parent through m's plain fields.  The
// drainer calls drain() the way EbrAdvanceRetire does: once while the join
// runs, which lets the helper's guard start one epoch after the joiner's
// unlinks, and once after joining the joiner, which frees its orphans.  The
// helper holds an outer guard until the drainer is done, standing in for a
// helper preempted inside its operation.  If complete_join retired before
// publishing DONE, the second drain frees neigh1 with no happens-before
// edge from the helper's read of it: one preemption (the joiner just
// before DONE -> the drainer) reaches that in either CATS_OBS build.  The
// joiner's adaptation-trace hook reads only its own base's item count; a
// hook that acquire-loaded the tree (a route-depth walk from the root did)
// would synchronize with the helper's retry CAS and hide the race in every
// one-preemption schedule, so CI also runs this suite in an OBS-off build.
// JoinVsInsertLookup cannot catch the bug at all: EBR only tries to
// advance on every 64th retirement per thread (Domain::kDrainThreshold),
// so nothing is freed mid-execution there.
TEST(SimScenario, JoinHelperVsDrain) {
  sim::Result r = run_reported("JoinHelperVsDrain", dfs_options(4000), [] {
    Domain domain;
    {
      LfcaTree tree(domain);
      for (Key k = 0; k < 12; ++k) tree.insert(k, k);
      tree.force_split(6);
      cats::sim_thread joiner([&] {
        tree.force_join(3);
        domain.detach_current_thread();
      });
      cats::sim_thread drainer([&] {
        domain.drain();
        joiner.join();
        domain.drain();
        domain.detach_current_thread();
      });
      cats::sim_thread helper([&] {
        {
          Domain::Guard guard(domain);
          tree.insert(9, 90);
          drainer.join();
        }
        domain.detach_current_thread();
      });
      helper.join();
      for (Key k = 0; k < 12; ++k) {
        sim::check(tree.lookup(k), "key lost across join");
      }
      sim::check(tree.check_integrity(), "route/container invariants");
    }
  });
  EXPECT_FALSE(r.failed) << r.failure_message << "\n" << r.failure_trace;
  EXPECT_GT(r.schedules_explored, 1u);
}

// EBR: a reader inside a guard overlaps retire + drain.  The epoch
// machinery must order the eventual free after the reader's last access
// in every schedule (quarantined frees are checked against the reader's
// vector clock).
struct TestObj {
  int v = 0;
  explicit TestObj(int x) : v(x) {}
  static void* operator new(std::size_t n) {
    void* p = ::operator new(n);
    cats::sim_note_alloc(p, n);
    return p;
  }
  static void operator delete(void* p, std::size_t n) {
    if (cats::sim_quarantine_free(
            p, n, [](void* q, std::size_t) { ::operator delete(q); }))
      return;
    ::operator delete(p);
  }
};

TEST(SimScenario, EbrAdvanceRetire) {
  // Bound 2: the interesting window (reader between guard exit and detach
  // while the writer drains) takes two preemptions to reach — mirrored by
  // the fire twin below, which must find its planted bug there.
  sim::Result r =
      run_reported("EbrAdvanceRetire", dfs_options(4000, 2), [] {
    Domain domain;
    cats::atomic<TestObj*> slot{new TestObj(42)};
    cats::sim_thread reader([&] {
      {
        Domain::Guard g(domain);
        TestObj* p = slot.load(std::memory_order_acquire);
        if (p != nullptr) {
          sim::check(cats::sim_plain_read(p->v) == 42, "torn read");
        }
      }
      domain.detach_current_thread();
    });
    TestObj* p = slot.exchange(nullptr, std::memory_order_acq_rel);
    domain.retire(p);
    domain.drain();  // may be blocked by the reader's guard: that is the point
    reader.join();
    domain.drain();
  });
  EXPECT_FALSE(r.failed) << r.failure_message << "\n" << r.failure_trace;
  EXPECT_GT(r.schedules_explored, 1u);
}

// KiWi baseline: two writers prune one hot key's version chain while a scan
// holds an announced version.  The first pruner reads the announced version
// and picks an older cut than the second, which reads the advanced one; the
// second detaches a suffix that contains the first's.  Every superseded
// record must still be retired exactly once: a duplicate retire shows as a
// double free of the quarantined record when the domain is torn down.  An
// overwrite must also see the key present even when a pruner cuts the
// chain right below the overwrite's own record.
TEST(SimScenario, VskipHotKeyPruneRetiresOnce) {
  sim::Result r =
      run_reported("VskipHotKeyPruneRetiresOnce", dfs_options(4000, 2), [] {
        Domain domain;
        {
          vskip::VersionedSkipList map(domain);
          for (Value i = 0; i < 3; ++i) map.insert(1, i);  // 3-record chain
          cats::sim_thread w1([&] {
            sim::check(!map.insert(1, 10), "overwrite saw the key absent");
            domain.detach_current_thread();
          });
          cats::sim_thread w2([&] {
            sim::check(!map.insert(1, 20), "overwrite saw the key absent");
            domain.detach_current_thread();
          });
          std::size_t n = 0;
          map.range_query(1, 1, [&](Key, Value) { ++n; });
          sim::check(n == 1, "scan lost the hot key");
          w2.join();
          w1.join();
        }
      });
  EXPECT_FALSE(r.failed) << r.failure_message << "\n" << r.failure_trace;
  EXPECT_GT(r.schedules_explored, 1u);
}

// --- planted-bug twins: the simulator must find these -----------------------

// Planted bug: the reader drops its guard and touches the node afterwards.
// In schedules where the writer's drain lands in that window, the
// quarantined free precedes the read with no happens-before edge.
TEST(SimScenario, EbrEarlyGuardExitFires) {
  sim::Result r =
      run_reported("EbrEarlyGuardExitFires", dfs_options(4000, 2), [] {
        Domain domain;
        cats::atomic<TestObj*> slot{new TestObj(42)};
        cats::sim_thread reader([&] {
          TestObj* p = nullptr;
          {
            Domain::Guard g(domain);
            p = slot.load(std::memory_order_acquire);
          }  // planted bug: guard released before the access below
          if (p != nullptr) (void)cats::sim_plain_read(p->v);
          domain.detach_current_thread();
        });
        TestObj* p = slot.exchange(nullptr, std::memory_order_acq_rel);
        domain.retire(p);
        domain.drain();
        reader.join();
        domain.drain();
      });
  ASSERT_TRUE(r.failed) << "planted early-guard-exit bug not found in "
                        << r.schedules_explored << " schedules";
  const bool mentions_free =
      r.failure_message.find("free") != std::string::npos ||
      r.failure_message.find("reclaim") != std::string::npos;
  EXPECT_TRUE(mentions_free) << r.failure_message;
  EXPECT_FALSE(r.failure_schedule.empty());  // replayable
}

// Miniature of the split-publication protocol.  A node's payload is
// plain-written, then the node is published through an atomic slot.  With
// a release store the reader's acquire load orders the payload write
// before the read (clean); the weakened relaxed publish has no such edge
// and the race detector must flag the payload access.
struct PNode {
  int payload = 0;
  static void* operator new(std::size_t n) {
    void* p = ::operator new(n);
    cats::sim_note_alloc(p, n);
    return p;
  }
  static void operator delete(void* p, std::size_t n) {
    if (cats::sim_quarantine_free(
            p, n, [](void* q, std::size_t) { ::operator delete(q); }))
      return;
    ::operator delete(p);
  }
};

void publish_scenario(std::memory_order publish_order) {
  cats::atomic<PNode*> slot{nullptr};
  cats::sim_thread publisher([&] {
    auto* n = new PNode;
    cats::sim_plain_write(n->payload, 7);
    slot.store(n, publish_order);
  });
  PNode* p = slot.load(std::memory_order_acquire);
  if (p != nullptr) {
    sim::check(cats::sim_plain_read(p->payload) == 7,
               "published node read before initialization");
  }
  publisher.join();
  delete slot.load(std::memory_order_relaxed);
}

TEST(SimScenario, WeakenedPublishOrderFires) {
  sim::Result r =
      run_reported("WeakenedPublishOrderFires", dfs_options(400), [] {
        publish_scenario(std::memory_order_relaxed);  // planted bug
      });
  ASSERT_TRUE(r.failed) << "planted relaxed publish not found in "
                        << r.schedules_explored << " schedules";
  EXPECT_NE(r.failure_message.find("data race"), std::string::npos)
      << r.failure_message;
  EXPECT_FALSE(r.failure_schedule.empty());
}

TEST(SimScenario, ReleasePublishOrderPasses) {
  sim::Result r =
      run_reported("ReleasePublishOrderPasses", dfs_options(400), [] {
        publish_scenario(std::memory_order_release);
      });
  EXPECT_FALSE(r.failed) << r.failure_message << "\n" << r.failure_trace;
}

// Miniature of the join-help protocol (help_if_needed/complete_join): a
// descriptor goes through phases prepare(0) -> published(1) ->
// completed(2).  Any thread that observes phase 1 must help it to 2
// before relying on the result.  The twin that skips the help step trips
// the phase assertion in schedules where the owner is preempted between
// publishing and completing.
void help_scenario(bool skip_help_step) {
  cats::atomic<int> phase{0};
  cats::sim_thread owner([&] {
    phase.store(1, std::memory_order_release);
    // The owner may be preempted here: helpers must be able to finish.
    int expected = 1;
    phase.compare_exchange_strong(expected, 2, std::memory_order_acq_rel,
                                  std::memory_order_acquire);
  });
  int seen = phase.load(std::memory_order_acquire);
  if (seen >= 1) {
    if (!skip_help_step) {
      int expected = 1;
      phase.compare_exchange_strong(expected, 2, std::memory_order_acq_rel,
                                    std::memory_order_acquire);
    }
    sim::check(phase.load(std::memory_order_acquire) == 2,
               "used join result before completion");
  }
  owner.join();
}

TEST(SimScenario, SkippedHelpStepFires) {
  sim::Result r =
      run_reported("SkippedHelpStepFires", dfs_options(400), [] {
        help_scenario(/*skip_help_step=*/true);  // planted bug
      });
  ASSERT_TRUE(r.failed) << "planted skipped-help bug not found in "
                        << r.schedules_explored << " schedules";
  EXPECT_NE(r.failure_message.find("completion"), std::string::npos)
      << r.failure_message;
  EXPECT_FALSE(r.failure_schedule.empty());
}

TEST(SimScenario, HelpStepPasses) {
  sim::Result r = run_reported("HelpStepPasses", dfs_options(400), [] {
    help_scenario(/*skip_help_step=*/false);
  });
  EXPECT_FALSE(r.failed) << r.failure_message << "\n" << r.failure_trace;
}

// --- StageGate twins (tests/lfca_test.cpp, LfcaRangeRetry) ------------------
//
// The StageGate tests drive ONE specific interleaving of the range-query
// retry protocol with a condition-variable gate.  These twins hand the
// same two-query situations to the model checker instead: every reachable
// interleaving up to the preemption bound is explored, and the exact-count
// assertion must hold in all of them (lost CAS -> help the wider in-flight
// query; a helper-marked base must count as progress, not a retry loop).

// Twin of LfcaRangeRetry.LostCasThenHelpsWiderInFlightQuery.
TEST(SimScenario, StageGateTwinNarrowWideRangeHelp) {
  sim::Result r =
      run_reported("StageGateTwinNarrowWide", dfs_options(800), [] {
        Domain domain;
        {
          LfcaTree tree(domain, non_optimistic());
          for (Key k = 0; k < 12; ++k) tree.insert(k, 1);
          tree.force_split(6);
          cats::sim_thread wide([&] {
            sim::check(count_range(tree, 0, 11) == 12,
                       "wide query snapshot wrong");
            domain.detach_current_thread();
          });
          sim::check(count_range(tree, 0, 5) == 6,
                     "narrow query snapshot wrong");
          wide.join();
        }
      });
  EXPECT_FALSE(r.failed) << r.failure_message << "\n" << r.failure_trace;
  EXPECT_GT(r.schedules_explored, 1u);
}

// Twin of LfcaRangeRetry.HelperMarkedBaseCountsAsAdvanced: two identical
// full-range queries over three base nodes; whichever falls behind must
// treat the other's markers as progress and both must return the exact
// snapshot.
TEST(SimScenario, StageGateTwinOwnerHelperAdvance) {
  sim::Result r =
      run_reported("StageGateTwinOwnerHelper", dfs_options(800), [] {
        Domain domain;
        {
          LfcaTree tree(domain, non_optimistic());
          for (Key k = 0; k < 12; ++k) tree.insert(k, 1);
          tree.force_split(6);
          tree.force_split(3);  // three base nodes
          cats::sim_thread helper([&] {
            sim::check(count_range(tree, 0, 11) == 12,
                       "helper query snapshot wrong");
            domain.detach_current_thread();
          });
          sim::check(count_range(tree, 0, 11) == 12,
                     "owner query snapshot wrong");
          helper.join();
        }
      });
  EXPECT_FALSE(r.failed) << r.failure_message << "\n" << r.failure_trace;
  EXPECT_GT(r.schedules_explored, 1u);
}

}  // namespace
}  // namespace cats::lfca

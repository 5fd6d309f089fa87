// Tests of the CATS_CHECKED correctness tooling (src/check): the Report
// accumulator, the structural validators (treap, chunk, LFCA route tree),
// the canary protocol and the retired-pointer registry — including negative
// death tests proving each checker class actually fires on a deliberately
// planted bug.  In CATS_CHECKED=OFF builds only the always-available
// surface (Report, the container validators and the route-tree validator
// without its canary checks) is exercised.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "alloc/pool.hpp"
#include "check/check.hpp"
#include "check/tree_check.hpp"
#include "chunk/chunk.hpp"
#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "lfca/lfca_tree.hpp"
#include "reclaim/ebr.hpp"
#include "treap/treap.hpp"

namespace {

using cats::Key;
using cats::Value;
using Treap = cats::treap::Impl;
using Chunk = cats::chunk::Impl;

// --- Always-available surface (both gate settings). ------------------------

TEST(CheckReport, AccumulatesFormattedFailures) {
  cats::check::Report report;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.failure_count(), 0u);
  EXPECT_EQ(report.text(), "");
  report.add("first %d", 1);
  report.add("second %s", "two");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failure_count(), 2u);
  EXPECT_EQ(report.failures()[0], "first 1");
  EXPECT_EQ(report.failures()[1], "second two");
  EXPECT_EQ(report.text(), "first 1\nsecond two");
}

TEST(CheckGate, MacrosAreSafeStatements) {
  // Compiles and runs under both gate settings; with the gate off both
  // macros must expand to empty statements with unevaluated arguments.
  int evaluations = 0;
  auto touch = [&] { return ++evaluations > 0; };
  (void)touch;  // with the gate off no macro below evaluates it
  CATS_CHECK(touch(), "never fails");
  CATS_CHECKED_ONLY((void)touch());
  if (cats::check::kCheckedEnabled) {
    EXPECT_EQ(evaluations, 2);
  } else {
    EXPECT_EQ(evaluations, 0);
  }
}

TEST(TreapValidator, AcceptsWellFormedTree) {
  Treap::Ref tree;
  for (Key k = 0; k < 500; ++k) {
    tree = Treap::insert(tree.get(), k * 3, static_cast<Value>(k));
  }
  cats::check::Report report;
  EXPECT_TRUE(Treap::validate(tree.get(), &report)) << report.text();
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(Treap::validate(nullptr, &report));
}

TEST(ChunkValidator, AcceptsWellFormedChunk) {
  Chunk::Ref chunk;
  for (Key k = 0; k < 100; ++k) {
    chunk = Chunk::insert(chunk.get(), k * 7, static_cast<Value>(k));
  }
  cats::check::Report report;
  EXPECT_TRUE(Chunk::validate(chunk.get(), &report)) << report.text();
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(Chunk::validate(nullptr, &report));
}

TEST(TreeValidator, AcceptsQuiescentTreeWithStructure) {
  cats::lfca::LfcaTree tree;
  for (Key k = 1; k < 2000; ++k) tree.insert(k, static_cast<Value>(k) + 1);
  // Build real route structure plus join/neighbor leftovers.
  EXPECT_TRUE(tree.force_split(500));
  EXPECT_TRUE(tree.force_split(1500));
  tree.force_join(500);
  std::uint64_t sum = 0;
  tree.range_query(100, 1900, [&](Key, Value v) { sum += v; });
  EXPECT_GT(sum, 0u);
  std::string diagnostics;
  EXPECT_TRUE(tree.validate(&diagnostics)) << diagnostics;
  EXPECT_TRUE(diagnostics.empty());
}

TEST(TreeValidator, AcceptsChunkPolicyTree) {
  cats::lfca::LfcaTreeChunk tree;
  for (Key k = 1; k < 300; ++k) tree.insert(k, static_cast<Value>(k));
  EXPECT_TRUE(tree.force_split(150));
  std::string diagnostics;
  EXPECT_TRUE(tree.validate(&diagnostics)) << diagnostics;
}

TEST(TreeValidator, ConcurrentModeHoldsUnderLoad) {
  cats::lfca::LfcaTree tree;
  for (Key k = 1; k < 4000; k += 2) tree.insert(k, 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&tree, &stop, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ull * (t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Key k = static_cast<Key>(x % 4000) + 1;
        if ((x & 2) != 0) {
          tree.insert(k, 1);
        } else {
          tree.remove(k);
        }
        if ((x & 1023) == 0) {
          tree.range_query(k, k + 64, [](Key, Value) {});
        }
      }
    });
  }
  for (int i = 0; i < 40; ++i) {
    std::string diagnostics;
    EXPECT_TRUE(tree.validate(&diagnostics, /*expect_quiescent=*/false))
        << diagnostics;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  // Now quiescent: the full invariant set must hold too.
  std::string diagnostics;
  EXPECT_TRUE(tree.validate(&diagnostics)) << diagnostics;
}

TEST(TreeValidator, ReportsContainmentAndParentFaults) {
  // A hand-built route tree: route(10) whose left base holds key 20
  // (outside its path interval [-inf, 10)) and whose right base names the
  // wrong parent.  Both faults are quiescent-only invariants.
  using C = cats::lfca::TreapContainer;
  using Node = cats::lfca::detail::Node<C>;
  using cats::lfca::detail::NodeType;
  auto* route = new Node(NodeType::kRoute);
  route->key = 10;
  auto* left = new Node(NodeType::kNormal);
  left->data = C::insert(nullptr, 20, 1).release();
  left->parent = route;
  auto* right = new Node(NodeType::kNormal);
  right->parent = left;
  route->left.store(left, std::memory_order_relaxed);
  route->right.store(right, std::memory_order_relaxed);

  cats::check::Report report;
  EXPECT_FALSE(cats::check::validate_tree<C>(
      route, cats::check::TreeValidateMode::kQuiescent, &report));
  EXPECT_EQ(report.failure_count(), 2u) << report.text();
  EXPECT_NE(report.text().find("escape the path interval"), std::string::npos)
      << report.text();
  EXPECT_NE(report.text().find("parent pointer"), std::string::npos)
      << report.text();
  cats::check::Report concurrent;
  EXPECT_TRUE(cats::check::validate_tree<C>(
      route, cats::check::TreeValidateMode::kConcurrent, &concurrent))
      << concurrent.text();

  delete left;
  delete right;
  delete route;
}

TEST(Harness, CheckEveryNOpsRunsInsideWorkload) {
  // Exercises the --check-every-n-ops path: each worker validates the tree
  // in concurrent mode every 512 of its own operations, and the run must
  // complete normally.
  cats::harness::g_check_every_n_ops.store(512, std::memory_order_relaxed);
  cats::lfca::LfcaTree tree;
  cats::harness::prefill(tree, 1024);
  cats::harness::Mix mix;
  mix.update_permille = 500;
  mix.lookup_permille = 450;
  mix.range_max = 64;
  const cats::harness::RunResult result =
      cats::harness::run_mix(tree, 2, mix, 1024, 0.1);
  cats::harness::g_check_every_n_ops.store(0, std::memory_order_relaxed);
  EXPECT_GT(result.total_ops, 0u);
}

#if CATS_CHECKED_ENABLED

// --- Canary protocol. ------------------------------------------------------

TEST(Canary, StateClassification) {
  using namespace cats::check;
  EXPECT_EQ(canary_state(kCanaryAlive), CanaryState::kAlive);
  EXPECT_EQ(canary_state(kCanaryRetired), CanaryState::kRetired);
  EXPECT_EQ(canary_state(kPoisonWord), CanaryState::kDead);
  EXPECT_EQ(canary_state(0), CanaryState::kDead);
  EXPECT_STREQ(canary_name(kCanaryAlive), "alive");
  EXPECT_STREQ(canary_name(kCanaryRetired), "retired");
  EXPECT_STREQ(canary_name(kPoisonWord), "freed (poison)");
  EXPECT_STREQ(canary_name(42), "corrupt");
}

TEST(CanaryDeath, CatsCheckAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(CATS_CHECK(1 == 2, "boom %d", 42),
               "CATS_CHECKED failure.*boom 42");
}

TEST(CanaryDeath, DoubleRetireOfCanaryAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        cats::check::Canary canary{cats::check::kCanaryAlive};
        cats::check::canary_mark_retired(canary, "test node");
        cats::check::canary_mark_retired(canary, "test node");
      },
      "double retire of test node");
}

// --- Validators fire on planted corruption. --------------------------------

TEST(TreapValidator, DetectsCorruptedLeafKey) {
  Treap::Ref tree;
  for (Key k = 0; k < 300; ++k) {
    tree = Treap::insert(tree.get(), k * 10, static_cast<Value>(k));
  }
  cats::treap::testing::corrupt_first_leaf_key(tree.get());
  cats::check::Report report;
  EXPECT_FALSE(Treap::validate(tree.get(), &report));
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.text().find("min_key"), std::string::npos)
      << report.text();
  EXPECT_FALSE(Treap::check_invariants(tree.get()));
}

TEST(TreapValidator, DetectsCorruptedPivot) {
  Treap::Ref tree;
  for (Key k = 0; k < 300; ++k) {
    tree = Treap::insert(tree.get(), k * 10, static_cast<Value>(k));
  }
  ASSERT_GT(Treap::leaf_count(tree.get()), 1u);
  ASSERT_TRUE(Treap::validate(tree.get(), nullptr));
  cats::treap::testing::corrupt_pivot(tree.get());
  cats::check::Report report;
  EXPECT_FALSE(Treap::validate(tree.get(), &report));
  EXPECT_NE(report.text().find("pivot"), std::string::npos) << report.text();
  EXPECT_FALSE(Treap::check_invariants(tree.get()));
}

TEST(TreapValidator, ReportsCorruptCanaryWithoutAborting) {
  // validate() is the non-fatal path: a smashed canary becomes a report
  // line, not an abort.  The corrupted tree is deliberately leaked — the
  // destructor's decref would (correctly) die on the dead canary.
  Treap::Ref tree;
  for (Key k = 0; k < 10; ++k) {
    tree = Treap::insert(tree.get(), k, static_cast<Value>(k));
  }
  const Treap::Node* raw = tree.release();
  cats::treap::testing::corrupt_canary(raw);
  cats::check::Report report;
  EXPECT_FALSE(Treap::validate(raw, &report));
  EXPECT_NE(report.text().find("canary"), std::string::npos) << report.text();
}

TEST(TreapValidatorDeath, IncrefOfCorruptCanaryAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Treap::Ref tree = Treap::insert(nullptr, 1, 2);
        cats::treap::testing::corrupt_canary(tree.get());
        Treap::Ref copy = tree;  // incref hits the canary check
      },
      "treap node \\(incref\\) touched while its canary is");
}

TEST(PoolPoisonDeath, UseAfterFreeOfPooledNodeHitsPoison) {
  // Pool-owned memory is never returned to the OS: a freed node's storage
  // sits poisoned in a free list instead of being unmapped.  That makes
  // the poison *observable* — a stale pointer dereferenced after the free
  // must die on the canary check with a "freed (poison)" diagnosis rather
  // than segfault or silently read recycled bytes.  (With the pool
  // compiled out the same access is a genuine use-after-free that ASan,
  // not the canary, is responsible for catching.)
  if (!cats::alloc::kPoolEnabled) {
    GTEST_SKIP() << "pool compiled out: storage is unmapped, not poisoned";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Treap::Ref tree = Treap::insert(nullptr, 1, 2);
        const Treap::Node* stale = tree.get();
        tree = Treap::Ref();  // last ref: poison, then back to pool
        Treap::incref(stale);
      },
      "treap node \\(incref\\) touched while its canary is freed "
      "\\(poison\\)");
}

// --- Retired-pointer registry / reclamation checker. -----------------------

std::size_t retirements_from_this_file() {
  std::size_t total = 0;
  for (const cats::check::CensusEntry& entry : cats::check::census()) {
    if (entry.site.find("check_test.cpp") != std::string::npos) {
      total += entry.count;
    }
  }
  return total;
}

TEST(ReclamationChecker, CensusTracksRetireAndReclaim) {
  const std::size_t before = retirements_from_this_file();
  {
    cats::reclaim::Domain domain;
    for (int i = 0; i < 32; ++i) domain.retire(new int(i));
    EXPECT_EQ(retirements_from_this_file(), before + 32);
    domain.drain();
    // drain() frees everything pending; every on_reclaim must have
    // unregistered its pointer.
    EXPECT_EQ(retirements_from_this_file(), before);
  }
  EXPECT_EQ(retirements_from_this_file(), before);
}

TEST(ReclamationChecker, DomainDestructionReclaimsOrphans) {
  const std::size_t before = retirements_from_this_file();
  {
    cats::reclaim::Domain domain;
    for (int i = 0; i < 8; ++i) domain.retire(new int(i));
    EXPECT_EQ(retirements_from_this_file(), before + 8);
  }  // ~Domain frees the still-pending retirements of this thread
  EXPECT_EQ(retirements_from_this_file(), before);
}

TEST(ReclamationChecker, SharedRetireToleratesAliasedReferences) {
  // Refcounted objects (deleter = decref) may be retired once per owner
  // while earlier retirements of the same address are still pending — the
  // registry counts them instead of aborting, and each decref balances one.
  const std::size_t before = retirements_from_this_file();
  {
    cats::reclaim::Domain domain;
    auto* counter = new std::atomic<int>(3);
    auto decref = +[](void* p) {
      auto* c = static_cast<std::atomic<int>*>(p);
      if (c->fetch_sub(1, std::memory_order_acq_rel) == 1) delete c;
    };
    domain.retire_shared(static_cast<void*>(counter), decref);
    domain.retire_shared(static_cast<void*>(counter), decref);
    domain.retire_shared(static_cast<void*>(counter), decref);
    EXPECT_EQ(retirements_from_this_file(), before + 3);
    domain.drain();
    EXPECT_EQ(retirements_from_this_file(), before);
  }
  EXPECT_EQ(retirements_from_this_file(), before);
}

TEST(ReclamationCheckerDeath, SharedRetireAliasingExclusiveAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        cats::reclaim::Domain domain;
        int* p = new int(7);
        auto noop = [](void*) {};
        domain.retire(static_cast<void*>(p), +noop);
        domain.retire_shared(static_cast<void*>(p), +noop);
      },
      "aliases an exclusive retirement");
}

TEST(ReclamationCheckerDeath, DoubleRetireAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        cats::reclaim::Domain domain;
        int* p = new int(7);
        auto noop = [](void*) {};
        domain.retire(static_cast<void*>(p), +noop);
        domain.retire(static_cast<void*>(p), +noop);
      },
      "double retire of");
}

TEST(ReclamationCheckerDeath, ReclaimWithoutRetireAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      cats::check::on_reclaim(reinterpret_cast<void*>(0x12345678)),
      "never retired");
}

#else  // !CATS_CHECKED_ENABLED

TEST(CheckGate, TreeValidatorRunsWithGateOff) {
  EXPECT_FALSE(cats::check::kCheckedEnabled);
  // Only the canary checks compile away: validate() still walks the tree,
  // replaces the caller's diagnostics, and is what check_integrity() runs.
  cats::lfca::LfcaTree tree;
  for (Key k = 1; k < 200; ++k) tree.insert(k, 2);
  ASSERT_TRUE(tree.force_split(100));
  std::string diagnostics = "sentinel";
  EXPECT_TRUE(tree.validate(&diagnostics)) << diagnostics;
  EXPECT_TRUE(diagnostics.empty());
  EXPECT_TRUE(tree.check_integrity());
}

#endif  // CATS_CHECKED_ENABLED

}  // namespace

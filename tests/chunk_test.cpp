// Unit and property tests for the immutable sorted-array container
// (src/chunk) and for the LFCA tree instantiated with it — the paper's
// "Flexible" property exercised end to end.
#include "chunk/chunk.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "lfca/lfca_tree.hpp"

namespace cats::chunk {
namespace {

TEST(ChunkBasic, EmptyContainer) {
  Ref c;
  EXPECT_TRUE(Impl::empty(c.get()));
  EXPECT_EQ(Impl::size(c.get()), 0u);
  EXPECT_FALSE(Impl::lookup(c.get(), 5, nullptr));
  EXPECT_TRUE(Impl::check_invariants(c.get()));
}

TEST(ChunkBasic, InsertLookupRemove) {
  bool replaced = true;
  Ref c = Impl::insert(nullptr, 5, 50, &replaced);
  EXPECT_FALSE(replaced);
  Value v = 0;
  ASSERT_TRUE(Impl::lookup(c.get(), 5, &v));
  EXPECT_EQ(v, 50u);
  Ref c2 = Impl::insert(c.get(), 5, 51, &replaced);
  EXPECT_TRUE(replaced);
  ASSERT_TRUE(Impl::lookup(c2.get(), 5, &v));
  EXPECT_EQ(v, 51u);
  // Persistence.
  ASSERT_TRUE(Impl::lookup(c.get(), 5, &v));
  EXPECT_EQ(v, 50u);
  bool removed = false;
  Ref c3 = Impl::remove(c2.get(), 5, &removed);
  EXPECT_TRUE(removed);
  EXPECT_TRUE(Impl::empty(c3.get()));
}

TEST(ChunkBasic, RemoveAbsentSharesNode) {
  Ref c = Impl::insert(nullptr, 1, 1);
  bool removed = true;
  Ref c2 = Impl::remove(c.get(), 9, &removed);
  EXPECT_FALSE(removed);
  EXPECT_EQ(c2.get(), c.get());  // unchanged version is shared
}

TEST(ChunkBasic, JoinAndSplit) {
  Ref a;
  Ref b;
  for (Key k = 0; k < 10; ++k) a = Impl::insert(a.get(), k, 1);
  for (Key k = 100; k < 110; ++k) b = Impl::insert(b.get(), k, 2);
  Ref j = Impl::join(a.get(), b.get());
  EXPECT_EQ(Impl::size(j.get()), 20u);
  EXPECT_TRUE(Impl::check_invariants(j.get()));
  Ref l, r;
  Key pivot = 0;
  Impl::split_evenly(j.get(), &l, &r, &pivot);
  EXPECT_EQ(Impl::size(l.get()), 10u);
  EXPECT_EQ(Impl::size(r.get()), 10u);
  EXPECT_EQ(Impl::min_key(r.get()), pivot);
  EXPECT_LT(Impl::max_key(l.get()), pivot);
}

TEST(ChunkBasic, ForRangeBounds) {
  Ref c;
  for (Key k = 0; k < 100; k += 10) c = Impl::insert(c.get(), k, 1);
  std::vector<Key> seen;
  Impl::for_range(c.get(), 15, 55, [&](Key k, Value) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<Key>{20, 30, 40, 50}));
}

TEST(ChunkBasic, NoLeak) {
  const std::size_t before = live_nodes();
  {
    Ref c;
    std::vector<Ref> versions;
    for (Key k = 0; k < 300; ++k) {
      c = Impl::insert(c.get(), k * 3 % 301, static_cast<Value>(k));
      if (k % 50 == 0) versions.push_back(c);
    }
    for (Key k = 0; k < 300; k += 2) c = Impl::remove(c.get(), k);
  }
  EXPECT_EQ(live_nodes(), before);
}

// --- The LFCA tree on chunk containers (Flexible property). ----------------

TEST(LfcaChunk, BasicSemantics) {
  lfca::LfcaTreeChunk tree;
  EXPECT_TRUE(tree.insert(10, 1));
  EXPECT_FALSE(tree.insert(10, 2));
  EXPECT_TRUE(tree.lookup(10));
  EXPECT_TRUE(tree.remove(10));
  EXPECT_FALSE(tree.lookup(10));
  EXPECT_TRUE(tree.check_integrity());
}

TEST(LfcaChunk, ModelComparison) {
  lfca::LfcaTreeChunk tree;
  std::map<Key, Value> model;
  Xoshiro256 rng(77);
  for (int i = 0; i < 5000; ++i) {
    const Key k = rng.next_in(0, 2000);
    if (rng.next_below(2) == 0) {
      const Value v = rng.next();
      EXPECT_EQ(tree.insert(k, v), model.count(k) == 0);
      model[k] = v;
    } else {
      EXPECT_EQ(tree.remove(k), model.erase(k) == 1);
    }
  }
  EXPECT_EQ(tree.size(), model.size());
  std::vector<Item> items;
  tree.range_query(kKeyMin, kKeyMax,
                   [&](Key k, Value v) { items.push_back({k, v}); });
  ASSERT_EQ(items.size(), model.size());
  std::size_t i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(items[i].key, k);
    EXPECT_EQ(items[i].value, v);
    ++i;
  }
  EXPECT_TRUE(tree.check_integrity());
}

TEST(LfcaChunk, SplitsKeepChunksSmall) {
  // With an aggressive split threshold, contention splits keep the flat
  // arrays short, which is the point of pairing chunks with adaptation.
  lfca::Config config;
  config.high_cont = 0;
  lfca::LfcaTreeChunk tree(reclaim::Domain::global(), config);
  for (Key k = 0; k < 10'000; ++k) tree.insert(k, 1);
  EXPECT_EQ(tree.size(), 10'000u);
  EXPECT_TRUE(tree.check_integrity());
}

TEST(LfcaTreap, CheckIntegrityAfterChurn) {
  lfca::LfcaTree tree;
  Xoshiro256 rng(3);
  for (int i = 0; i < 30'000; ++i) {
    const Key k = rng.next_in(-5000, 5000);
    if (rng.next_below(3) == 0) {
      tree.remove(k);
    } else {
      tree.insert(k, 1);
    }
  }
  EXPECT_TRUE(tree.check_integrity());
}

}  // namespace
}  // namespace cats::chunk

// Unit and property tests for the immutable fat-leaf container
// (src/treap).  Persistence, ordering, balance, reference counting and the
// split/join operations the LFCA tree depends on.
#include "treap/treap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace cats::treap {
namespace {

std::vector<Item> items_of(const Ref& t) {
  std::vector<Item> out;
  for_all(t.get(), [&](Key k, Value v) { out.push_back({k, v}); });
  return out;
}

Ref build(const std::vector<Key>& keys) {
  Ref t;
  for (Key k : keys) t = insert(t, k, static_cast<Value>(k) * 3);
  return t;
}

TEST(TreapBasic, EmptyTree) {
  Ref t;
  EXPECT_TRUE(empty(t));
  EXPECT_EQ(size(t), 0u);
  EXPECT_TRUE(less_than_two_items(t.get()));
  EXPECT_FALSE(lookup(t, 42, nullptr));
  EXPECT_TRUE(check_invariants(t.get()));
}

TEST(TreapBasic, SingleInsertLookup) {
  Ref t = insert(Ref().get(), 10, 99, nullptr);
  Value v = 0;
  EXPECT_TRUE(lookup(t, 10, &v));
  EXPECT_EQ(v, 99u);
  EXPECT_FALSE(lookup(t, 9, &v));
  EXPECT_FALSE(lookup(t, 11, &v));
  EXPECT_EQ(size(t), 1u);
  EXPECT_TRUE(less_than_two_items(t.get()));
}

TEST(TreapBasic, InsertReportsReplacement) {
  bool replaced = true;
  Ref t = insert(nullptr, 5, 1, &replaced);
  EXPECT_FALSE(replaced);
  Ref t2 = insert(t.get(), 5, 2, &replaced);
  EXPECT_TRUE(replaced);
  Value v = 0;
  ASSERT_TRUE(lookup(t2, 5, &v));
  EXPECT_EQ(v, 2u);
  // Persistence: the old version still sees the old value.
  ASSERT_TRUE(lookup(t, 5, &v));
  EXPECT_EQ(v, 1u);
}

TEST(TreapBasic, RemoveReportsPresence) {
  Ref t = build({1, 2, 3});
  bool removed = false;
  Ref t2 = remove(t.get(), 2, &removed);
  EXPECT_TRUE(removed);
  EXPECT_EQ(size(t2), 2u);
  Ref t3 = remove(t2.get(), 2, &removed);
  EXPECT_FALSE(removed);
  EXPECT_EQ(size(t3), 2u);
  // Old version untouched.
  EXPECT_TRUE(lookup(t, 2, nullptr));
}

TEST(TreapBasic, RemoveLastItemYieldsEmpty) {
  Ref t = build({7});
  bool removed = false;
  Ref t2 = remove(t.get(), 7, &removed);
  EXPECT_TRUE(removed);
  EXPECT_TRUE(empty(t2));
}

TEST(TreapBasic, MinMaxSelect) {
  Ref t = build({5, 1, 9, 3, 7});
  EXPECT_EQ(min_key(t.get()), 1);
  EXPECT_EQ(max_key(t.get()), 9);
  EXPECT_EQ(select(t.get(), 0), 1);
  EXPECT_EQ(select(t.get(), 2), 5);
  EXPECT_EQ(select(t.get(), 4), 9);
}

TEST(TreapBasic, ForRangeBounds) {
  Ref t = build({10, 20, 30, 40, 50});
  std::vector<Key> seen;
  for_range(t.get(), 15, 45, [&](Key k, Value) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<Key>{20, 30, 40}));
  seen.clear();
  for_range(t.get(), 20, 20, [&](Key k, Value) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<Key>{20}));
  seen.clear();
  for_range(t.get(), 51, 100, [&](Key k, Value) { seen.push_back(k); });
  EXPECT_TRUE(seen.empty());
  seen.clear();
  for_range(t.get(), kKeyMin, kKeyMax, [&](Key k, Value) { seen.push_back(k); });
  EXPECT_EQ(seen.size(), 5u);
}

TEST(TreapBasic, LeafOverflowSplits) {
  // Insert more than one leaf's worth of ascending keys and check shape.
  Ref t;
  const int n = static_cast<int>(kLeafCapacity) * 3;
  for (int i = 0; i < n; ++i) t = insert(t.get(), i, 0, nullptr);
  EXPECT_EQ(size(t), static_cast<std::size_t>(n));
  EXPECT_GE(leaf_count(t.get()), 3u);
  EXPECT_TRUE(check_invariants(t.get()));
}

TEST(TreapJoin, JoinsDisjointTrees) {
  Ref l = build({1, 2, 3});
  Ref r = build({10, 11});
  Ref j = join(l, r);
  EXPECT_EQ(size(j), 5u);
  EXPECT_TRUE(check_invariants(j.get()));
  auto items = items_of(j);
  EXPECT_EQ(items.front().key, 1);
  EXPECT_EQ(items.back().key, 11);
  // Inputs unchanged.
  EXPECT_EQ(size(l), 3u);
  EXPECT_EQ(size(r), 2u);
}

TEST(TreapJoin, JoinWithEmpty) {
  Ref l = build({1, 2});
  Ref e;
  Ref a = join(l, e);
  Ref b = join(e, l);
  EXPECT_EQ(size(a), 2u);
  EXPECT_EQ(size(b), 2u);
}

TEST(TreapJoin, JoinSkewedHeights) {
  Ref small = build({1});
  std::vector<Key> big_keys;
  for (Key k = 100; k < 5000; ++k) big_keys.push_back(k);
  Ref big = build(big_keys);
  Ref j = join(small, big);
  EXPECT_EQ(size(j), big_keys.size() + 1);
  EXPECT_TRUE(check_invariants(j.get()));
  Ref j2 = join(big, build({100000}));
  EXPECT_EQ(size(j2), big_keys.size() + 1);
  EXPECT_TRUE(check_invariants(j2.get()));
}

TEST(TreapSplit, SplitByKey) {
  Ref t = build({1, 2, 3, 4, 5, 6, 7, 8});
  Ref l, r;
  split(t.get(), 5, &l, &r);
  EXPECT_EQ(size(l), 4u);
  EXPECT_EQ(size(r), 4u);
  EXPECT_EQ(max_key(l.get()), 4);
  EXPECT_EQ(min_key(r.get()), 5);
  EXPECT_TRUE(check_invariants(l.get()));
  EXPECT_TRUE(check_invariants(r.get()));
}

TEST(TreapSplit, SplitBoundaries) {
  Ref t = build({10, 20, 30});
  Ref l, r;
  split(t.get(), 10, &l, &r);  // everything >= 10 goes right
  EXPECT_TRUE(empty(l));
  EXPECT_EQ(size(r), 3u);
  split(t.get(), 31, &l, &r);
  EXPECT_EQ(size(l), 3u);
  EXPECT_TRUE(empty(r));
}

TEST(TreapSplit, SplitEvenlyBalancesAndKeys) {
  for (int n : {2, 3, 64, 65, 500, 1001}) {
    std::vector<Key> keys;
    for (int i = 0; i < n; ++i) keys.push_back(i * 2);
    Ref t = build(keys);
    Ref l, r;
    Key pivot = 0;
    split_evenly(t.get(), &l, &r, &pivot);
    EXPECT_EQ(size(l) + size(r), static_cast<std::size_t>(n));
    EXPECT_GE(size(l), static_cast<std::size_t>(n) / 4) << "n=" << n;
    EXPECT_GE(size(r), static_cast<std::size_t>(n) / 4) << "n=" << n;
    EXPECT_LT(max_key(l.get()), pivot);
    EXPECT_EQ(min_key(r.get()), pivot);
    EXPECT_TRUE(check_invariants(l.get()));
    EXPECT_TRUE(check_invariants(r.get()));
  }
}

TEST(TreapRefcount, NoLeakAcrossVersions) {
  const std::size_t before = live_nodes();
  {
    Ref t;
    std::vector<Ref> versions;
    for (Key k = 0; k < 1000; ++k) {
      t = insert(t.get(), k, 0, nullptr);
      if (k % 100 == 0) versions.push_back(t);
    }
    for (Key k = 0; k < 1000; k += 2) t = remove(t.get(), k, nullptr);
    EXPECT_GT(live_nodes(), before);
  }
  EXPECT_EQ(live_nodes(), before);
}

// Removing an absent key allocates nothing: the result is the original
// root with one more reference, wherever the key would have been.
TEST(TreapRefcount, AbsentKeyRemoveSharesTheRoot) {
  std::vector<Key> keys;
  for (Key k = 0; k < 300; ++k) keys.push_back(k * 10);
  const Ref t = build(keys);
  ASSERT_FALSE(t.get()->is_leaf);
  const Impl::Inner* root = Impl::as_inner(t.get());
  const Node* first_leaf = t.get();
  while (!first_leaf->is_leaf) first_leaf = Impl::as_inner(first_leaf)->left;
  ASSERT_GE(Impl::as_leaf(first_leaf)->count, 2u);
  const struct {
    const char* where;
    Key key;
  } cases[] = {
      {"below the minimum", min_key(t.get()) - 5},
      {"above the maximum", max_key(t.get()) + 5},
      {"between two leaves", root->left->max_key + 5},
      {"inside a leaf", Impl::as_leaf(first_leaf)->items[0].key + 5},
  };
  for (const auto& c : cases) {
    const std::size_t nodes = live_nodes();
    const std::uint64_t refs = t.get()->rc.load(std::memory_order_relaxed);
    bool removed = true;
    Ref r = remove(t, c.key, &removed);
    EXPECT_EQ(r.get(), t.get()) << c.where;
    EXPECT_FALSE(removed) << c.where;
    EXPECT_EQ(live_nodes(), nodes) << c.where;
    EXPECT_EQ(t.get()->rc.load(std::memory_order_relaxed), refs + 1) << c.where;
  }
  EXPECT_EQ(size(t), keys.size());
}

TEST(TreapRefcount, JoinSplitNoLeak) {
  const std::size_t before = live_nodes();
  {
    Ref a = build([] {
      std::vector<Key> v;
      for (Key k = 0; k < 500; ++k) v.push_back(k);
      return v;
    }());
    Ref b = build([] {
      std::vector<Key> v;
      for (Key k = 1000; k < 1500; ++k) v.push_back(k);
      return v;
    }());
    Ref j = join(a, b);
    Ref l, r;
    split(j.get(), 750, &l, &r);
    EXPECT_EQ(size(l), 500u);
    EXPECT_EQ(size(r), 500u);
  }
  EXPECT_EQ(live_nodes(), before);
}

TEST(TreapConfig, LeafFillKnobClamps) {
  set_leaf_fill(1);
  EXPECT_EQ(leaf_fill(), 2u);
  set_leaf_fill(10'000);
  EXPECT_EQ(leaf_fill(), kLeafCapacity);
  set_leaf_fill(16);
  EXPECT_EQ(leaf_fill(), 16u);
  Ref t;
  for (Key k = 0; k < 200; ++k) t = insert(t.get(), k, 0, nullptr);
  EXPECT_TRUE(check_invariants(t.get()));
  EXPECT_GE(leaf_count(t.get()), 200u / 16u);
  set_leaf_fill(kLeafCapacity);
}

// --- Property tests: random operation sequences vs std::map. --------------

struct RandomOpsParams {
  std::uint64_t seed;
  int operations;
  Key key_range;
};

class TreapRandomOps : public ::testing::TestWithParam<RandomOpsParams> {};

TEST_P(TreapRandomOps, MatchesReferenceModel) {
  const auto param = GetParam();
  Xoshiro256 rng(param.seed);
  Ref t;
  std::map<Key, Value> model;

  for (int i = 0; i < param.operations; ++i) {
    const Key key = rng.next_in(0, param.key_range - 1);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {  // insert
        const Value value = rng.next();
        bool replaced = false;
        t = insert(t.get(), key, value, &replaced);
        EXPECT_EQ(replaced, model.count(key) == 1);
        model[key] = value;
        break;
      }
      case 2: {  // remove
        bool removed = false;
        t = remove(t.get(), key, &removed);
        EXPECT_EQ(removed, model.erase(key) == 1);
        break;
      }
      default: {  // lookup
        Value value = 0;
        const bool found = lookup(t, key, &value);
        auto it = model.find(key);
        EXPECT_EQ(found, it != model.end());
        if (found && it != model.end()) {
          EXPECT_EQ(value, it->second);
        }
        break;
      }
    }
    if (i % 512 == 0) {
      ASSERT_TRUE(check_invariants(t.get())) << "seed=" << param.seed;
      ASSERT_EQ(size(t), model.size());
    }
  }

  // Full content comparison at the end.
  auto items = items_of(t);
  ASSERT_EQ(items.size(), model.size());
  std::size_t index = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(items[index].key, k);
    EXPECT_EQ(items[index].value, v);
    ++index;
  }
  ASSERT_TRUE(check_invariants(t.get()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreapRandomOps,
    ::testing::Values(RandomOpsParams{1, 4000, 64},       // dense collisions
                      RandomOpsParams{2, 4000, 100000},   // sparse
                      RandomOpsParams{3, 8000, 1000},     // medium
                      RandomOpsParams{4, 8000, 128},      // leaf-heavy churn
                      RandomOpsParams{5, 2000, 2},        // pathological
                      RandomOpsParams{6, 6000, 1000000},  // very sparse
                      RandomOpsParams{7, 10000, 5000}));

class TreapSplitJoinProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TreapSplitJoinProperty, SplitThenJoinIsIdentity) {
  Xoshiro256 rng(GetParam());
  std::set<Key> keys;
  Ref t;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const Key k = rng.next_in(-100000, 100000);
    keys.insert(k);
    t = insert(t.get(), k, static_cast<Value>(i), nullptr);
  }
  for (int round = 0; round < 30; ++round) {
    const Key pivot = rng.next_in(-120000, 120000);
    Ref l, r;
    split(t.get(), pivot, &l, &r);
    ASSERT_TRUE(check_invariants(l.get()));
    ASSERT_TRUE(check_invariants(r.get()));
    if (!empty(l)) {
      ASSERT_LT(max_key(l.get()), pivot);
    }
    if (!empty(r)) {
      ASSERT_GE(min_key(r.get()), pivot);
    }
    Ref joined = join(l, r);
    ASSERT_EQ(size(joined), keys.size());
    ASSERT_TRUE(check_invariants(joined.get()));
    auto items = items_of(joined);
    auto it = keys.begin();
    for (const Item& item : items) ASSERT_EQ(item.key, *it++);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreapSplitJoinProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

class TreapBalanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(TreapBalanceProperty, HeightStaysLogarithmic) {
  const int n = GetParam();
  Ref t;
  for (int i = 0; i < n; ++i) t = insert(t.get(), i, 0, nullptr);  // sorted!
  ASSERT_TRUE(check_invariants(t.get()));
  // AVL over fat leaves: height <= ~1.45 log2(leaves) + const.
  const double leaves = static_cast<double>(leaf_count(t.get()));
  EXPECT_LE(height(t.get()), 1.45 * std::log2(leaves + 1) + 3.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreapBalanceProperty,
                         ::testing::Values(100, 1000, 10000, 100000));

}  // namespace
}  // namespace cats::treap

// Unit and property tests for the immutable fat-leaf container
// (src/treap).  Persistence, ordering, balance, reference counting and the
// split/join operations the LFCA tree depends on — plus the reference-model
// test every leaf-container policy (treap and chunk, integer and string
// keys) must pass.
#include "treap/treap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "chunk/chunk.hpp"
#include "common/rng.hpp"
#include "common/strkey.hpp"

namespace cats::treap {
namespace {

std::vector<Item> items_of(const Ref& t) {
  std::vector<Item> out;
  Impl::for_all(t.get(), [&](Key k, Value v) { out.push_back({k, v}); });
  return out;
}

Ref build(const std::vector<Key>& keys) {
  Ref t;
  for (Key k : keys) t = Impl::insert(t.get(), k, static_cast<Value>(k) * 3);
  return t;
}

TEST(TreapBasic, EmptyTree) {
  Ref t;
  EXPECT_TRUE(Impl::empty(t.get()));
  EXPECT_EQ(Impl::size(t.get()), 0u);
  EXPECT_TRUE(Impl::less_than_two_items(t.get()));
  EXPECT_FALSE(Impl::lookup(t.get(), 42, nullptr));
  EXPECT_TRUE(Impl::check_invariants(t.get()));
}

TEST(TreapBasic, SingleInsertLookup) {
  Ref t = Impl::insert(Ref().get(), 10, 99, nullptr);
  Value v = 0;
  EXPECT_TRUE(Impl::lookup(t.get(), 10, &v));
  EXPECT_EQ(v, 99u);
  EXPECT_FALSE(Impl::lookup(t.get(), 9, &v));
  EXPECT_FALSE(Impl::lookup(t.get(), 11, &v));
  EXPECT_EQ(Impl::size(t.get()), 1u);
  EXPECT_TRUE(Impl::less_than_two_items(t.get()));
}

TEST(TreapBasic, InsertReportsReplacement) {
  bool replaced = true;
  Ref t = Impl::insert(nullptr, 5, 1, &replaced);
  EXPECT_FALSE(replaced);
  Ref t2 = Impl::insert(t.get(), 5, 2, &replaced);
  EXPECT_TRUE(replaced);
  Value v = 0;
  ASSERT_TRUE(Impl::lookup(t2.get(), 5, &v));
  EXPECT_EQ(v, 2u);
  // Persistence: the old version still sees the old value.
  ASSERT_TRUE(Impl::lookup(t.get(), 5, &v));
  EXPECT_EQ(v, 1u);
}

TEST(TreapBasic, RemoveReportsPresence) {
  Ref t = build({1, 2, 3});
  bool removed = false;
  Ref t2 = Impl::remove(t.get(), 2, &removed);
  EXPECT_TRUE(removed);
  EXPECT_EQ(Impl::size(t2.get()), 2u);
  Ref t3 = Impl::remove(t2.get(), 2, &removed);
  EXPECT_FALSE(removed);
  EXPECT_EQ(Impl::size(t3.get()), 2u);
  // Old version untouched.
  EXPECT_TRUE(Impl::lookup(t.get(), 2, nullptr));
}

TEST(TreapBasic, RemoveLastItemYieldsEmpty) {
  Ref t = build({7});
  bool removed = false;
  Ref t2 = Impl::remove(t.get(), 7, &removed);
  EXPECT_TRUE(removed);
  EXPECT_TRUE(Impl::empty(t2.get()));
}

TEST(TreapBasic, MinMaxSelect) {
  Ref t = build({5, 1, 9, 3, 7});
  EXPECT_EQ(Impl::min_key(t.get()), 1);
  EXPECT_EQ(Impl::max_key(t.get()), 9);
  EXPECT_EQ(Impl::select(t.get(), 0), 1);
  EXPECT_EQ(Impl::select(t.get(), 2), 5);
  EXPECT_EQ(Impl::select(t.get(), 4), 9);
}

TEST(TreapBasic, ForRangeBounds) {
  Ref t = build({10, 20, 30, 40, 50});
  std::vector<Key> seen;
  Impl::for_range(t.get(), 15, 45, [&](Key k, Value) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<Key>{20, 30, 40}));
  seen.clear();
  Impl::for_range(t.get(), 20, 20, [&](Key k, Value) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<Key>{20}));
  seen.clear();
  Impl::for_range(t.get(), 51, 100, [&](Key k, Value) { seen.push_back(k); });
  EXPECT_TRUE(seen.empty());
  seen.clear();
  Impl::for_range(t.get(), kKeyMin, kKeyMax,
                  [&](Key k, Value) { seen.push_back(k); });
  EXPECT_EQ(seen.size(), 5u);
}

TEST(TreapBasic, LeafOverflowSplits) {
  // Insert more than one leaf's worth of ascending keys and check shape.
  Ref t;
  const int n = static_cast<int>(kLeafCapacity) * 3;
  for (int i = 0; i < n; ++i) t = Impl::insert(t.get(), i, 0, nullptr);
  EXPECT_EQ(Impl::size(t.get()), static_cast<std::size_t>(n));
  EXPECT_GE(Impl::leaf_count(t.get()), 3u);
  EXPECT_TRUE(Impl::check_invariants(t.get()));
}

TEST(TreapJoin, JoinsDisjointTrees) {
  Ref l = build({1, 2, 3});
  Ref r = build({10, 11});
  Ref j = Impl::join(l.get(), r.get());
  EXPECT_EQ(Impl::size(j.get()), 5u);
  EXPECT_TRUE(Impl::check_invariants(j.get()));
  auto items = items_of(j);
  EXPECT_EQ(items.front().key, 1);
  EXPECT_EQ(items.back().key, 11);
  // Inputs unchanged.
  EXPECT_EQ(Impl::size(l.get()), 3u);
  EXPECT_EQ(Impl::size(r.get()), 2u);
}

TEST(TreapJoin, JoinWithEmpty) {
  Ref l = build({1, 2});
  Ref e;
  Ref a = Impl::join(l.get(), e.get());
  Ref b = Impl::join(e.get(), l.get());
  EXPECT_EQ(Impl::size(a.get()), 2u);
  EXPECT_EQ(Impl::size(b.get()), 2u);
}

TEST(TreapJoin, JoinSkewedHeights) {
  Ref small = build({1});
  std::vector<Key> big_keys;
  for (Key k = 100; k < 5000; ++k) big_keys.push_back(k);
  Ref big = build(big_keys);
  Ref j = Impl::join(small.get(), big.get());
  EXPECT_EQ(Impl::size(j.get()), big_keys.size() + 1);
  EXPECT_TRUE(Impl::check_invariants(j.get()));
  Ref j2 = Impl::join(big.get(), build({100000}).get());
  EXPECT_EQ(Impl::size(j2.get()), big_keys.size() + 1);
  EXPECT_TRUE(Impl::check_invariants(j2.get()));
}

TEST(TreapSplit, SplitByKey) {
  Ref t = build({1, 2, 3, 4, 5, 6, 7, 8});
  Ref l, r;
  Impl::split(t.get(), 5, &l, &r);
  EXPECT_EQ(Impl::size(l.get()), 4u);
  EXPECT_EQ(Impl::size(r.get()), 4u);
  EXPECT_EQ(Impl::max_key(l.get()), 4);
  EXPECT_EQ(Impl::min_key(r.get()), 5);
  EXPECT_TRUE(Impl::check_invariants(l.get()));
  EXPECT_TRUE(Impl::check_invariants(r.get()));
}

TEST(TreapSplit, SplitBoundaries) {
  Ref t = build({10, 20, 30});
  Ref l, r;
  Impl::split(t.get(), 10, &l, &r);  // everything >= 10 goes right
  EXPECT_TRUE(Impl::empty(l.get()));
  EXPECT_EQ(Impl::size(r.get()), 3u);
  Impl::split(t.get(), 31, &l, &r);
  EXPECT_EQ(Impl::size(l.get()), 3u);
  EXPECT_TRUE(Impl::empty(r.get()));
}

TEST(TreapSplit, SplitEvenlyBalancesAndKeys) {
  for (int n : {2, 3, 64, 65, 500, 1001}) {
    std::vector<Key> keys;
    for (int i = 0; i < n; ++i) keys.push_back(i * 2);
    Ref t = build(keys);
    Ref l, r;
    Key pivot = 0;
    Impl::split_evenly(t.get(), &l, &r, &pivot);
    const auto items = static_cast<std::size_t>(n);
    EXPECT_EQ(Impl::size(l.get()) + Impl::size(r.get()), items);
    EXPECT_GE(Impl::size(l.get()), items / 4) << "n=" << n;
    EXPECT_GE(Impl::size(r.get()), items / 4) << "n=" << n;
    EXPECT_LT(Impl::max_key(l.get()), pivot);
    EXPECT_EQ(Impl::min_key(r.get()), pivot);
    EXPECT_TRUE(Impl::check_invariants(l.get()));
    EXPECT_TRUE(Impl::check_invariants(r.get()));
  }
}

TEST(TreapRefcount, NoLeakAcrossVersions) {
  const std::size_t before = live_nodes();
  {
    Ref t;
    std::vector<Ref> versions;
    for (Key k = 0; k < 1000; ++k) {
      t = Impl::insert(t.get(), k, 0, nullptr);
      if (k % 100 == 0) versions.push_back(t);
    }
    for (Key k = 0; k < 1000; k += 2) t = Impl::remove(t.get(), k, nullptr);
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
      {"below the minimum", Impl::min_key(t.get()) - 5},
      {"above the maximum", Impl::max_key(t.get()) + 5},
      {"between two leaves", root->left->max_key + 5},
      {"inside a leaf", Impl::as_leaf(first_leaf)->items[0].key + 5},
  };
  for (const auto& c : cases) {
    const std::size_t nodes = live_nodes();
    const std::uint64_t refs = t.get()->rc.load(std::memory_order_relaxed);
    bool removed = true;
    Ref r = Impl::remove(t.get(), c.key, &removed);
    EXPECT_EQ(r.get(), t.get()) << c.where;
    EXPECT_FALSE(removed) << c.where;
    EXPECT_EQ(live_nodes(), nodes) << c.where;
    EXPECT_EQ(t.get()->rc.load(std::memory_order_relaxed), refs + 1) << c.where;
  }
  EXPECT_EQ(Impl::size(t.get()), keys.size());
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
    Ref j = Impl::join(a.get(), b.get());
    Ref l, r;
    Impl::split(j.get(), 750, &l, &r);
    EXPECT_EQ(Impl::size(l.get()), 500u);
    EXPECT_EQ(Impl::size(r.get()), 500u);
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
  for (Key k = 0; k < 200; ++k) t = Impl::insert(t.get(), k, 0, nullptr);
  EXPECT_TRUE(Impl::check_invariants(t.get()));
  EXPECT_GE(Impl::leaf_count(t.get()), 200u / 16u);
  set_leaf_fill(kLeafCapacity);
}

// --- Model test shared by both leaf containers and both key types. -------
//
// Random insert/remove/lookup sequences against std::map, for every
// container policy the LFCA tree is instantiated with: values, presence
// flags, periodic invariant checks and the full final contents must match.

struct RandomOpsParams {
  std::uint64_t seed;
  int operations;
  std::int64_t key_range;
};

constexpr RandomOpsParams kSweep[] = {
    {1, 4000, 64},       // dense collisions
    {2, 4000, 100000},   // sparse
    {3, 8000, 1000},     // medium
    {4, 8000, 128},      // leaf-heavy churn
    {5, 2000, 2},        // pathological
    {6, 6000, 1000000},  // very sparse
    {7, 10000, 5000},
};

/// Maps a sweep key onto the container's key type, order-preserving.
/// String keys are zero-padded; every third one carries a suffix past the
/// inline capacity, so interned and inline keys mix in one container.
template <class K>
K model_key(std::int64_t i) {
  if constexpr (std::is_same_v<K, StrKey>) {
    char text[48];
    std::snprintf(text, sizeof text, "%08lld%s", static_cast<long long>(i),
                  i % 3 == 0 ? "-interned-past-the-inline-capacity" : "");
    return StrKey::make(text);
  } else {
    return static_cast<K>(i);
  }
}

template <class C>
class ContainerModel : public ::testing::Test {};

using ModelContainers =
    ::testing::Types<BasicTreap<Key, Value>, chunk::BasicChunk<Key, Value>,
                     BasicTreap<StrKey, Value>,
                     chunk::BasicChunk<StrKey, Value>>;

struct ModelContainerNames {
  template <class C>
  static std::string GetName(int) {
    return std::string(C::kName) +
           (std::is_same_v<typename C::Key, StrKey> ? "_StrKey" : "_Key");
  }
};

TYPED_TEST_SUITE(ContainerModel, ModelContainers, ModelContainerNames);

TYPED_TEST(ContainerModel, MatchesReferenceModel) {
  using C = TypeParam;
  using K = typename C::Key;
  for (const RandomOpsParams& param : kSweep) {
    SCOPED_TRACE(::testing::Message() << "seed=" << param.seed);
    Xoshiro256 rng(param.seed);
    typename C::Ref t;
    std::map<K, Value> model;

    for (int i = 0; i < param.operations; ++i) {
      const K key = model_key<K>(rng.next_in(0, param.key_range - 1));
      switch (rng.next_below(4)) {
        case 0:
        case 1: {  // insert
          const Value value = rng.next();
          bool replaced = false;
          t = C::insert(t.get(), key, value, &replaced);
          EXPECT_EQ(replaced, model.count(key) == 1);
          model[key] = value;
          break;
        }
        case 2: {  // remove
          bool removed = false;
          t = C::remove(t.get(), key, &removed);
          EXPECT_EQ(removed, model.erase(key) == 1);
          break;
        }
        default: {  // lookup
          Value value = 0;
          const bool found = C::lookup(t.get(), key, &value);
          auto it = model.find(key);
          EXPECT_EQ(found, it != model.end());
          if (found && it != model.end()) {
            EXPECT_EQ(value, it->second);
          }
          break;
        }
      }
      if (i % 512 == 0) {
        ASSERT_TRUE(C::check_invariants(t.get()));
        ASSERT_EQ(C::size(t.get()), model.size());
      }
    }

    // Full content comparison at the end.
    std::vector<std::pair<K, Value>> items;
    C::for_all(t.get(), [&](K k, Value v) { items.emplace_back(k, v); });
    ASSERT_EQ(items.size(), model.size());
    std::size_t index = 0;
    for (const auto& [k, v] : model) {
      EXPECT_TRUE(items[index].first == k) << "index " << index;
      EXPECT_EQ(items[index].second, v) << "index " << index;
      ++index;
    }
    ASSERT_TRUE(C::check_invariants(t.get()));
  }
}

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
    t = Impl::insert(t.get(), k, static_cast<Value>(i), nullptr);
  }
  for (int round = 0; round < 30; ++round) {
    const Key pivot = rng.next_in(-120000, 120000);
    Ref l, r;
    Impl::split(t.get(), pivot, &l, &r);
    ASSERT_TRUE(Impl::check_invariants(l.get()));
    ASSERT_TRUE(Impl::check_invariants(r.get()));
    if (!Impl::empty(l.get())) {
      ASSERT_LT(Impl::max_key(l.get()), pivot);
    }
    if (!Impl::empty(r.get())) {
      ASSERT_GE(Impl::min_key(r.get()), pivot);
    }
    Ref joined = Impl::join(l.get(), r.get());
    ASSERT_EQ(Impl::size(joined.get()), keys.size());
    ASSERT_TRUE(Impl::check_invariants(joined.get()));
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
  for (int i = 0; i < n; ++i) {
    t = Impl::insert(t.get(), i, 0, nullptr);  // sorted!
  }
  ASSERT_TRUE(Impl::check_invariants(t.get()));
  // AVL over fat leaves: height <= ~1.45 log2(leaves) + const.
  const double leaves = static_cast<double>(Impl::leaf_count(t.get()));
  EXPECT_LE(Impl::height(t.get()), 1.45 * std::log2(leaves + 1) + 3.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreapBalanceProperty,
                         ::testing::Values(100, 1000, 10000, 100000));

}  // namespace
}  // namespace cats::treap

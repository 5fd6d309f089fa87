// Template implementation of the immutable fat-leaf leaf container (see
// treap.hpp for the design discussion).  BasicTreap<K, V, Cmp> is a
// struct-as-namespace: every node type and operation of the container lives
// inside one template, so a single explicit instantiation in treap.cpp
// centralizes all codegen for a given key type.  The struct is itself the
// LFCA tree's leaf-container policy (lfca/container_policy.hpp): it carries
// Key/Value/Compare, kName, incref/decref and the persistent operations.
//
// Ordering is defined exclusively through Compare: `a <= b` is spelled
// `!comp(b, a)`, equality `!comp(a, b) && !comp(b, a)`.  Key-domain bounds
// (full-range scans) come from KeyTraits<K>, and validator diagnostics print
// keys through KeyTraits<K>::format — no arithmetic or formatting is ever
// done on K directly, so any totally-ordered trivially-copyable key works.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>

#include "alloc/pool.hpp"
#include "check/check.hpp"
#include "common/catomic.hpp"
#include "common/container_ref.hpp"
#include "common/function_ref.hpp"
#include "common/padded.hpp"
#include "common/types.hpp"
#include "obs/counters.hpp"
#include "obs/registry.hpp"

namespace cats::treap {

/// Physical capacity of a fat leaf.  The *effective* fill limit is the
/// runtime knob `set_leaf_fill` (<= kLeafCapacity), used by the ablation
/// benchmarks; the paper's evaluation uses 64.
inline constexpr std::uint32_t kLeafCapacity = 64;

namespace detail {

/// Effective leaf fill limit and process-wide live-node counter, shared by
/// every BasicTreap instantiation (defined in treap.cpp).  Sharing keeps the
/// leak checks ("no treap node outlives its tree") meaningful across mixed
/// key-type workloads, exactly as before the template conversion.  The
/// counter is sharded: every node construction and destruction bumps it,
/// and one process-wide line would bounce between all updating threads.
extern cats::atomic<std::uint32_t> g_leaf_fill;
extern obs::ShardedCounters<1> g_live_nodes;

/// Records one violated invariant against `report` (when non-null) and
/// always evaluates to false so call sites read `ok = flag(...)`.
inline bool flag(check::Report* report, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

inline bool flag(check::Report* report, const char* fmt, ...) {
  if (report != nullptr) {
    std::va_list args;
    va_start(args, fmt);
    report->addv(fmt, args);
    va_end(args);
  }
  return false;
}

}  // namespace detail

template <class K, class V, class Cmp = std::less<K>>
struct BasicTreap {
  using Key = K;
  using Value = V;
  using Compare = Cmp;
  using Item = BasicItem<K, V>;
  using Visitor = BasicItemVisitor<K, V>;
  /// Shared-ownership handle; a default-constructed Ref is the empty tree.
  using Ref = ContainerRef<BasicTreap>;
  static constexpr const char* kName = "treap";

  // Ordering helpers: everything below uses only these, never raw operators.
  static bool lt(const K& a, const K& b) { return Compare{}(a, b); }
  static bool le(const K& a, const K& b) { return !Compare{}(b, a); }
  static bool eq(const K& a, const K& b) {
    return !Compare{}(a, b) && !Compare{}(b, a);
  }
  static std::string fmt(const K& key) { return KeyTraits<K>::format(key); }

  // -------------------------------------------------------------------------
  // Node layout.  Immutable after construction; `rc` is the only mutable
  // field.
  // -------------------------------------------------------------------------

  struct Node {
    mutable cats::atomic<std::uint64_t> rc;
    std::uint64_t size;
    K min_key;
    K max_key;
    std::uint8_t height;  // leaves have height 1
    bool is_leaf;

#if CATS_CHECKED_ENABLED
    /// Canary header: treap nodes are purely refcounted (never retired), so
    /// the states are Alive -> poison; incref/decref verify Alive.
    check::Canary check_canary{check::kCanaryAlive};
#endif

    /// Pool-backed storage: path copying allocates O(height) nodes per
    /// update, the dominant allocation cost of the whole tree (paper §7's
    /// immutable fat leaves; the JVM amortizes this in the GC nursery).
    static void* operator new(std::size_t size) {
      void* p = alloc::pool_alloc(size);
      cats::sim_note_alloc(p, size);
      return p;
    }

    /// Poison-on-free under CATS_CHECKED (after the destructor, before the
    /// block re-enters the pool): a stale pointer from a refcount bug reads
    /// 0xEF..EF instead of plausible data — the free-list link clobbers only
    /// the first word (`rc`), not the canary.  Under CATS_SIM the release is
    /// quarantined until the end of the execution.
    static void operator delete(void* p, std::size_t size) {
      CATS_CHECKED_ONLY(check::poison(p, size));
      if (cats::sim_quarantine_free(p, size, &alloc::pool_free)) return;
      alloc::pool_free(p, size);
    }

    Node(std::uint64_t size_, const K& min_, const K& max_,
         std::uint8_t height_, bool is_leaf_)
        : rc(1), size(size_), min_key(min_), max_key(max_), height(height_),
          is_leaf(is_leaf_) {
      detail::g_live_nodes.add(0);
      CATS_OBS_ONLY(obs::count(obs::GCounter::kTreapNodeAllocs));
    }
    ~Node() {
      CATS_CHECKED_ONLY(
          check::canary_expect_alive(check_canary, "treap node (destructor)"));
      detail::g_live_nodes.sub(0);
      CATS_OBS_ONLY(obs::count(obs::GCounter::kTreapNodeFrees));
    }

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;
  };

  struct Leaf : Node {
    std::uint32_t count;
    Item items[kLeafCapacity];

    Leaf(const Item* src, std::uint32_t n)
        : Node(n, src[0].key, src[n - 1].key, 1, true), count(n) {
      std::copy_n(src, n, items);
    }
  };

  /// `pivot` is the right subtree's smallest key: a descent branches on
  /// `key < pivot` and so reads only the nodes on its path, never a
  /// child's cached bounds.  With int64 keys an Inner is exactly 64 bytes
  /// (header, pivot, two children), and the pool's 64-byte-aligned blocks
  /// put it on one cache line — one line per level of a descent.
  struct Inner : Node {
    K pivot;
    const Node* left;
    const Node* right;

    Inner(const Node* l, const Node* r)
        : Node(l->size + r->size, l->min_key, r->max_key,
               static_cast<std::uint8_t>(std::max(l->height, r->height) + 1),
               false),
          pivot(r->min_key), left(l), right(r) {}
  };

  static const Leaf* as_leaf(const Node* n) {
    return static_cast<const Leaf*>(n);
  }
  static const Inner* as_inner(const Node* n) {
    return static_cast<const Inner*>(n);
  }

  // -------------------------------------------------------------------------
  // Reference counting.
  // -------------------------------------------------------------------------

  static void incref(const Node* node) noexcept {
    CATS_CHECKED_ONLY(
        check::canary_expect_alive(node->check_canary, "treap node (incref)"));
    node->rc.fetch_add(1, std::memory_order_relaxed);
  }

  static void decref(const Node* node) noexcept {
    while (node != nullptr) {
      CATS_CHECKED_ONLY(check::canary_expect_alive(node->check_canary,
                                                   "treap node (decref)"));
      const std::uint64_t prev =
          node->rc.fetch_sub(1, std::memory_order_acq_rel);
      CATS_CHECK(prev != 0, "treap node %p: refcount underflow",
                 static_cast<const void*>(node));
      if (prev != 1) return;
      // Treap nodes are immutable and refcounted: dropping the last
      // reference is the only path here, so the delete cannot race a reader
      // (any reader holds its own reference or sits behind an EBR retire of
      // the container that owns this reference).
      if (node->is_leaf) {
        // catslint: direct-delete(refcounted; last reference frees)
        delete static_cast<const Leaf*>(node);
        return;
      }
      const Inner* inner = static_cast<const Inner*>(node);
      const Node* left = inner->left;
      const Node* right = inner->right;
      delete inner;  // catslint: direct-delete(refcounted; last reference frees)
      decref(left);   // bounded by tree height
      node = right;   // iterate down the other spine
    }
  }

  // -------------------------------------------------------------------------
  // Internal builders.
  // -------------------------------------------------------------------------

  static int h(const Node* n) { return n == nullptr ? 0 : n->height; }

  static const Node* incref_ret(const Node* n) {
    incref(n);
    return n;
  }

  /// New inner node; takes ownership of both child references.
  static const Node* mk_inner(const Node* l, const Node* r) {
    return new Inner(l, r);
  }

  /// New inner node, rebalancing with AVL rotations when the height
  /// difference is 2 (it never exceeds 2 given single insert/remove/join
  /// steps).  Takes ownership of both references; children are non-null.
  static const Node* bal(const Node* l, const Node* r) {
    const int hl = h(l);
    const int hr = h(r);
    if (hl > hr + 1) {
      const Inner* li = as_inner(l);  // hl >= 3, so l is inner
      if (h(li->left) >= h(li->right)) {
        // Single rotation:    (ll, (lr, r))
        const Node* nr = mk_inner(incref_ret(li->right), r);
        const Node* res = mk_inner(incref_ret(li->left), nr);
        decref(l);
        return res;
      }
      // Double rotation:    ((ll, lrl), (lrr, r))
      const Inner* lri = as_inner(li->right);
      const Node* a = mk_inner(incref_ret(li->left), incref_ret(lri->left));
      const Node* b = mk_inner(incref_ret(lri->right), r);
      decref(l);
      return mk_inner(a, b);
    }
    if (hr > hl + 1) {
      const Inner* ri = as_inner(r);
      if (h(ri->right) >= h(ri->left)) {
        const Node* nl = mk_inner(l, incref_ret(ri->left));
        const Node* res = mk_inner(nl, incref_ret(ri->right));
        decref(r);
        return res;
      }
      const Inner* rli = as_inner(ri->left);
      const Node* a = mk_inner(l, incref_ret(rli->left));
      const Node* b = mk_inner(incref_ret(rli->right), incref_ret(ri->right));
      decref(r);
      return mk_inner(a, b);
    }
    return mk_inner(l, r);
  }

  static const Leaf* make_leaf(const Item* items, std::uint32_t n) {
    assert(n >= 1 && n <= kLeafCapacity);
    return new Leaf(items, n);
  }

  /// Builds a leaf or a two-leaf inner from a sorted item array that may
  /// exceed the fill limit by one (insert overflow).
  static const Node* build_from_items(const Item* items, std::uint32_t n) {
    if (n <= detail::g_leaf_fill.load(std::memory_order_relaxed)) {
      return make_leaf(items, n);
    }
    const std::uint32_t half = (n + 1) / 2;
    return mk_inner(make_leaf(items, half), make_leaf(items + half, n - half));
  }

  /// Concatenation with rebalancing; all keys in l precede all keys in r.
  /// Takes ownership; either side may be null.
  static const Node* join_nodes(const Node* l, const Node* r) {
    if (l == nullptr) return r;
    if (r == nullptr) return l;
    if (l->is_leaf && r->is_leaf &&
        l->size + r->size <=
            detail::g_leaf_fill.load(std::memory_order_relaxed)) {
      Item merged[kLeafCapacity];
      const Leaf* ll = as_leaf(l);
      const Leaf* rl = as_leaf(r);
      std::copy_n(ll->items, ll->count, merged);
      std::copy_n(rl->items, rl->count, merged + ll->count);
      const Node* res = make_leaf(merged, ll->count + rl->count);
      decref(l);
      decref(r);
      return res;
    }
    if (h(l) > h(r) + 1) {
      const Inner* li = as_inner(l);
      const Node* a = incref_ret(li->left);
      const Node* b = join_nodes(incref_ret(li->right), r);
      decref(l);
      return bal(a, b);
    }
    if (h(r) > h(l) + 1) {
      const Inner* ri = as_inner(r);
      const Node* a = join_nodes(l, incref_ret(ri->left));
      const Node* b = incref_ret(ri->right);
      decref(r);
      return bal(a, b);
    }
    return mk_inner(l, r);
  }

  // --- iterative path-copy builders for insert/remove -----------------------
  //
  // Updates copy the root-to-leaf path.  A recursive builder pays a call
  // frame per level and, for an absent-key remove, an incref/decref pair per
  // level on the way back up.  Instead the descent records the path in a
  // fixed stack buffer, the leaf is rewritten, and the copy is built bottom
  // up — and an absent key is answered with a single incref of the original
  // root.  `height` is a uint8_t, so 256 entries always suffice (an AVL tree
  // of height 255 would need more nodes than any machine holds).

  static constexpr std::size_t kMaxPath = 256;

  struct PathEntry {
    const Inner* node;
    bool went_left;
  };

  /// Rebuilds the path copy bottom-up.  `sub` is the owned replacement for
  /// the deepest subtree (null = became empty); siblings are increffed as
  /// they are grafted.  Returns the owned new root.
  static const Node* rebuild_path(const PathEntry* path, std::size_t depth,
                                  const Node* sub) {
    while (depth > 0) {
      const PathEntry& e = path[--depth];
      if (sub == nullptr) {
        sub = incref_ret(e.went_left ? e.node->right : e.node->left);
      } else if (e.went_left) {
        sub = bal(sub, incref_ret(e.node->right));
      } else {
        sub = bal(incref_ret(e.node->left), sub);
      }
    }
    return sub;
  }

  /// Binary search over a leaf's items.  The search's probes depend on each
  /// other, so every line of the item array is prefetched first: the line
  /// misses overlap instead of queueing behind one another.
  static const Item* leaf_lower_bound(const Leaf* leaf, const K& key) {
    const auto first = reinterpret_cast<std::uintptr_t>(leaf->items);
    const auto end =
        reinterpret_cast<std::uintptr_t>(leaf->items + leaf->count);
    for (std::uintptr_t line = first & ~(kCacheLine - 1); line < end;
         line += kCacheLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
    return std::lower_bound(
        leaf->items, leaf->items + leaf->count, key,
        [](const Item& item, const K& k) { return Compare{}(item.key, k); });
  }

  /// Walks from `tree` to the leaf responsible for `key`, recording each
  /// inner node and the side taken in `path`.
  static const Leaf* descend(const Node* tree, const K& key, PathEntry* path,
                             std::size_t* depth) {
    const Node* n = tree;
    while (!n->is_leaf) {
      const Inner* in = as_inner(n);
      const bool left = lt(key, in->pivot);
      path[(*depth)++] = {in, left};
      n = left ? in->left : in->right;
    }
    return as_leaf(n);
  }

  static const Node* insert_iter(const Node* tree, const K& key,
                                 const V& value, bool* replaced) {
    PathEntry path[kMaxPath];
    std::size_t depth = 0;
    const Leaf* leaf = descend(tree, key, path, &depth);
    const Item* end = leaf->items + leaf->count;
    const Item* pos = leaf_lower_bound(leaf, key);
    Item buffer[kLeafCapacity + 1];
    const auto prefix = static_cast<std::uint32_t>(pos - leaf->items);
    std::copy_n(leaf->items, prefix, buffer);
    buffer[prefix] = Item{key, value};
    const Node* sub;
    if (pos != end && eq(pos->key, key)) {
      *replaced = true;
      std::copy(pos + 1, end, buffer + prefix + 1);
      sub = make_leaf(buffer, leaf->count);
    } else {
      std::copy(pos, end, buffer + prefix + 1);
      sub = build_from_items(buffer, leaf->count + 1);
    }
    return rebuild_path(path, depth, sub);
  }

  /// Returns the new tree (owned, possibly null) after removing `key`; an
  /// absent key returns the original tree with one fresh reference.
  static const Node* remove_iter(const Node* tree, const K& key,
                                 bool* removed) {
    PathEntry path[kMaxPath];
    std::size_t depth = 0;
    const Leaf* leaf = descend(tree, key, path, &depth);
    const Item* end = leaf->items + leaf->count;
    const Item* pos = leaf_lower_bound(leaf, key);
    if (pos == end || !eq(pos->key, key)) return incref_ret(tree);
    *removed = true;
    const Node* sub = nullptr;
    if (leaf->count > 1) {
      Item buffer[kLeafCapacity];
      const auto prefix = static_cast<std::uint32_t>(pos - leaf->items);
      std::copy_n(leaf->items, prefix, buffer);
      std::copy(pos + 1, end, buffer + prefix);
      sub = make_leaf(buffer, leaf->count - 1);
    }
    return rebuild_path(path, depth, sub);
  }

  /// Splits into (< key, >= key); outputs owned, possibly null.
  static void split_rec(const Node* n, const K& key, const Node** lo_out,
                        const Node** hi_out) {
    if (n == nullptr) {
      *lo_out = nullptr;
      *hi_out = nullptr;
      return;
    }
    if (n->is_leaf) {
      const Leaf* leaf = as_leaf(n);
      const Item* pos = leaf_lower_bound(leaf, key);
      const auto prefix = static_cast<std::uint32_t>(pos - leaf->items);
      // A leaf that falls wholly on one side is shared, not copied.
      *lo_out = prefix == 0 ? nullptr
                : prefix == leaf->count ? incref_ret(leaf)
                                        : make_leaf(leaf->items, prefix);
      *hi_out = prefix == leaf->count ? nullptr
                : prefix == 0 ? incref_ret(leaf)
                              : make_leaf(pos, leaf->count - prefix);
      return;
    }
    const Inner* in = as_inner(n);
    if (lt(key, in->pivot)) {
      const Node* a = nullptr;
      const Node* b = nullptr;
      split_rec(in->left, key, &a, &b);
      *lo_out = a;
      *hi_out = join_nodes(b, incref_ret(in->right));
    } else {
      const Node* a = nullptr;
      const Node* b = nullptr;
      split_rec(in->right, key, &a, &b);
      *lo_out = join_nodes(incref_ret(in->left), a);
      *hi_out = b;
    }
  }

  // -------------------------------------------------------------------------
  // Public operations.  Queries take raw node pointers so lock-free readers
  // can use them on pointers protected by an epoch guard rather than a Ref;
  // persistent updates are pure (inputs not consumed).
  // -------------------------------------------------------------------------

  /// Looks up `key`; writes the value through `value_out` (may be null).
  static bool lookup(const Node* tree, const K& key, V* value_out) {
    const Node* n = tree;
    if (n == nullptr) return false;
    while (!n->is_leaf) {
      const Inner* in = as_inner(n);
      n = lt(key, in->pivot) ? in->left : in->right;
    }
    const Leaf* leaf = as_leaf(n);
    const Item* end = leaf->items + leaf->count;
    const Item* pos = leaf_lower_bound(leaf, key);
    if (pos == end || !eq(pos->key, key)) return false;
    if (value_out != nullptr) *value_out = pos->value;
    return true;
  }

  static std::size_t size(const Node* tree) {
    return tree == nullptr ? 0 : tree->size;
  }

  static bool empty(const Node* tree) { return tree == nullptr; }

  /// True if the container holds fewer than two items (split precondition).
  static bool less_than_two_items(const Node* tree) { return size(tree) < 2; }

  /// Smallest / largest key.  Precondition: !empty(tree).
  static K min_key(const Node* tree) {
    assert(tree != nullptr);
    return tree->min_key;
  }

  static K max_key(const Node* tree) {
    assert(tree != nullptr);
    return tree->max_key;
  }

  /// Visits every item with lo <= key <= hi in ascending key order.
  static void for_range(const Node* tree, const K& lo, const K& hi,
                        Visitor visit) {
    if (tree == nullptr || lt(tree->max_key, lo) || lt(hi, tree->min_key)) {
      return;
    }
    if (tree->is_leaf) {
      const Leaf* leaf = as_leaf(tree);
      const Item* end = leaf->items + leaf->count;
      // Every leaf after a scan's first starts inside the range: no search.
      const Item* first =
          le(lo, leaf->min_key) ? leaf->items : leaf_lower_bound(leaf, lo);
      for (const Item* pos = first; pos != end && le(pos->key, hi); ++pos) {
        visit(pos->key, pos->value);
      }
      return;
    }
    const Inner* in = as_inner(tree);
    for_range(in->left, lo, hi, visit);
    for_range(in->right, lo, hi, visit);
  }

  /// Visits every item in ascending key order.
  static void for_all(const Node* tree, Visitor visit) {
    for_range(tree, KeyTraits<K>::min(), KeyTraits<K>::max(), visit);
  }

  /// Key of rank `index` (0-based, ascending).  Precondition: index < size.
  static K select(const Node* tree, std::size_t index) {
    assert(tree != nullptr && index < tree->size);
    const Node* n = tree;
    while (!n->is_leaf) {
      const Inner* in = as_inner(n);
      if (index < in->left->size) {
        n = in->left;
      } else {
        index -= in->left->size;
        n = in->right;
      }
    }
    return as_leaf(n)->items[index].key;
  }

  /// Returns a version with (key, value) present.  `*replaced_out` (may be
  /// null) is set to true iff an existing item with `key` was overwritten.
  static Ref insert(const Node* tree, const K& key, const V& value,
                    bool* replaced_out = nullptr) {
    bool replaced = false;
    const Node* result;
    if (tree == nullptr) {
      const Item item{key, value};
      result = make_leaf(&item, 1);
    } else {
      result = insert_iter(tree, key, value, &replaced);
    }
    if (replaced_out != nullptr) *replaced_out = replaced;
    return Ref::adopt(result);
  }

  /// Returns a version without `key`.  `*removed_out` (may be null) is set
  /// to true iff an item was removed.
  static Ref remove(const Node* tree, const K& key,
                    bool* removed_out = nullptr) {
    bool removed = false;
    const Node* result =
        tree == nullptr ? nullptr : remove_iter(tree, key, &removed);
    if (removed_out != nullptr) *removed_out = removed;
    return Ref::adopt(result);
  }

  /// Concatenates two trees; every key in `left` must be smaller than every
  /// key in `right`.
  static Ref join(const Node* left, const Node* right) {
    assert(left == nullptr || right == nullptr ||
           lt(left->max_key, right->min_key));
    const Node* l = left;
    const Node* r = right;
    if (l != nullptr) incref(l);
    if (r != nullptr) incref(r);
    return Ref::adopt(join_nodes(l, r));
  }

  /// Splits by key: `left_out` receives keys < key, `right_out` keys >= key.
  static void split(const Node* tree, const K& key, Ref* left_out,
                    Ref* right_out) {
    const Node* lo = nullptr;
    const Node* hi = nullptr;
    split_rec(tree, key, &lo, &hi);
    *left_out = Ref::adopt(lo);
    *right_out = Ref::adopt(hi);
  }

  /// Splits into halves of (nearly) equal size.  `split_key_out` receives
  /// the smallest key of the right half (route-node semantics: < key goes
  /// left).  Precondition: size(tree) >= 2.
  static void split_evenly(const Node* tree, Ref* left_out, Ref* right_out,
                           K* split_key_out) {
    assert(size(tree) >= 2);
    const K pivot = select(tree, tree->size / 2);
    split(tree, pivot, left_out, right_out);
    *split_key_out = pivot;
  }

  /// Height of the tree (empty = 0, single leaf = 1).
  static std::size_t height(const Node* tree) {
    return tree == nullptr ? 0 : tree->height;
  }

  /// Number of fat leaves.
  static std::size_t leaf_count(const Node* tree) {
    if (tree == nullptr) return 0;
    if (tree->is_leaf) return 1;
    const Inner* in = as_inner(tree);
    return leaf_count(in->left) + leaf_count(in->right);
  }

  // -------------------------------------------------------------------------
  // Validation.
  // -------------------------------------------------------------------------

  static bool validate_rec(const Node* n, check::Report* report) {
    using detail::flag;
    const void* p = n;
#if CATS_CHECKED_ENABLED
    const std::uint64_t canary =
        n->check_canary.load(std::memory_order_relaxed);
    if (check::canary_state(canary) != check::CanaryState::kAlive) {
      // Do not read further fields of a node whose canary is gone: the rest
      // of the struct is as untrustworthy as the canary itself.
      return flag(report, "treap node %p: canary is %s (0x%016llx), not alive",
                  p, check::canary_name(canary),
                  static_cast<unsigned long long>(canary));
    }
#endif
    bool ok = true;
    if (n->rc.load(std::memory_order_relaxed) == 0) {
      ok = flag(report, "treap node %p: refcount is 0 but node is reachable",
                p);
    }
    if (n->is_leaf) {
      const Leaf* leaf = as_leaf(n);
      if (leaf->count < 1 || leaf->count > kLeafCapacity) {
        return flag(report, "treap leaf %p: count %u outside [1, %u]", p,
                    leaf->count, kLeafCapacity);
      }
      if (leaf->size != leaf->count) {
        ok = flag(report, "treap leaf %p: size cache %llu != count %u", p,
                  static_cast<unsigned long long>(leaf->size), leaf->count);
      }
      if (!eq(leaf->min_key, leaf->items[0].key)) {
        ok = flag(report,
                  "treap leaf %p: min_key cache %s != first item key %s", p,
                  fmt(leaf->min_key).c_str(), fmt(leaf->items[0].key).c_str());
      }
      if (!eq(leaf->max_key, leaf->items[leaf->count - 1].key)) {
        ok = flag(report,
                  "treap leaf %p: max_key cache %s != last item key %s", p,
                  fmt(leaf->max_key).c_str(),
                  fmt(leaf->items[leaf->count - 1].key).c_str());
      }
      for (std::uint32_t i = 1; i < leaf->count; ++i) {
        if (!lt(leaf->items[i - 1].key, leaf->items[i].key)) {
          ok = flag(report,
                    "treap leaf %p: items[%u].key %s >= items[%u].key %s "
                    "(not strictly ascending)",
                    p, i - 1, fmt(leaf->items[i - 1].key).c_str(), i,
                    fmt(leaf->items[i].key).c_str());
        }
      }
      if (leaf->height != 1) {
        ok = flag(report, "treap leaf %p: height %u != 1", p,
                  static_cast<unsigned>(leaf->height));
      }
      return ok;
    }
    const Inner* in = as_inner(n);
    if (in->left == nullptr || in->right == nullptr) {
      return flag(report, "treap inner %p: null child", p);
    }
    if (!validate_rec(in->left, report)) ok = false;
    if (!validate_rec(in->right, report)) ok = false;
    if (!ok) return false;  // child fields below are only meaningful if sound
    if (!lt(in->left->max_key, in->right->min_key)) {
      ok = flag(report,
                "treap inner %p: left max_key %s >= right min_key %s "
                "(BST order violated)",
                p, fmt(in->left->max_key).c_str(),
                fmt(in->right->min_key).c_str());
    }
    if (!eq(in->pivot, in->right->min_key)) {
      ok = flag(report, "treap inner %p: pivot %s != right min_key %s", p,
                fmt(in->pivot).c_str(), fmt(in->right->min_key).c_str());
    }
    if (in->size != in->left->size + in->right->size) {
      ok = flag(report, "treap inner %p: size cache %llu != %llu + %llu", p,
                static_cast<unsigned long long>(in->size),
                static_cast<unsigned long long>(in->left->size),
                static_cast<unsigned long long>(in->right->size));
    }
    if (!eq(in->min_key, in->left->min_key)) {
      ok = flag(report, "treap inner %p: min_key cache %s != left's %s", p,
                fmt(in->min_key).c_str(), fmt(in->left->min_key).c_str());
    }
    if (!eq(in->max_key, in->right->max_key)) {
      ok = flag(report, "treap inner %p: max_key cache %s != right's %s", p,
                fmt(in->max_key).c_str(), fmt(in->right->max_key).c_str());
    }
    if (in->height != std::max(in->left->height, in->right->height) + 1) {
      ok = flag(report, "treap inner %p: height %u != max(%u, %u) + 1", p,
                static_cast<unsigned>(in->height),
                static_cast<unsigned>(in->left->height),
                static_cast<unsigned>(in->right->height));
    }
    if (std::abs(h(in->left) - h(in->right)) > 1) {
      ok = flag(report, "treap inner %p: unbalanced (heights %d vs %d)", p,
                h(in->left), h(in->right));
    }
    return ok;
  }

  /// Verifies all structural invariants (ordering, balance, sizes, min/max
  /// caches, inner pivots, leaf fill bounds, refcount sanity; CATS_CHECKED
  /// builds also verify node canaries), appending one diagnostic line per
  /// violated invariant to `report` (may be null).  Returns true if
  /// everything holds.
  static bool validate(const Node* tree, check::Report* report) {
    return tree == nullptr || validate_rec(tree, report);
  }

  /// validate() without diagnostics.
  static bool check_invariants(const Node* tree) {
    return validate(tree, nullptr);
  }
};

}  // namespace cats::treap

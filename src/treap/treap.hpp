// Immutable (persistent) ordered leaf container with fat leaves.
//
// This is the "leaf container" of the paper (§2, §7): an immutable balanced
// search tree storing the actual items of each base node.  The paper's
// implementation uses a randomized treap whose fat leaf nodes hold arrays of
// up to 64 items; it also notes (§2) that any persistent balanced tree with
// O(log n) updates and O(log n) split/join works (red-black trees, treaps,
// ...).  We keep the fat-leaf layout — that is what gives range queries their
// cache behaviour — but balance with deterministic AVL-style heights instead
// of random priorities: identical asymptotics, reproducible shapes for
// testing.  The module keeps the paper's `treap` name since it fills exactly
// the `treap_*` role of the pseudo-code.
//
// All nodes are immutable after construction and intrusively reference
// counted.  Persistent versions share subtrees; sharing forms a DAG of
// immutable nodes, so plain reference counting is sound (no cycles).  Every
// operation is a pure function: inputs are never consumed, outputs carry
// fresh references owned by the caller (wrapped in `Ref`).
//
// The implementation is the BasicTreap<K, V, Compare> template
// (treap_impl.hpp); this header keeps the historical free-function API as
// inline wrappers over the default <int64_t, uint64_t, std::less>
// instantiation, which is explicitly instantiated in treap.cpp (the extern
// template below) — the int fast path compiles in the same translation unit
// it always did.
//
// Complexity (n items, fat leaves of up to kLeafCapacity items):
//   lookup                O(log n)
//   insert / remove       O(log n)        (path copying)
//   join / split          O(log n)
//   split_evenly          O(log n)
//   for_range             O(log n + k)    (k items reported)
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "check/check.hpp"
#include "common/function_ref.hpp"
#include "common/types.hpp"
#include "treap/treap_impl.hpp"

namespace cats::treap {

/// The default (integer-key) instantiation; codegen lives in treap.cpp.
using Impl = BasicTreap<Key, Value, std::less<Key>>;
extern template struct BasicTreap<Key, Value, std::less<Key>>;

/// Sets the effective leaf fill limit (clamped to [2, kLeafCapacity]).
/// Affects leaves created afterwards; existing trees remain valid.  The
/// knob is shared by every BasicTreap instantiation.
void set_leaf_fill(std::uint32_t fill);
std::uint32_t leaf_fill();

using Node = Impl::Node;
using Ref = Impl::Ref;

namespace detail {
inline void incref(const Node* node) noexcept { Impl::incref(node); }
inline void decref(const Node* node) noexcept { Impl::decref(node); }
}  // namespace detail

// --- Queries (accept raw node pointers so lock-free readers can use them
// --- on pointers protected by an epoch guard rather than a Ref). ----------

/// Looks up `key`; writes the value through `value_out` (may be null).
inline bool lookup(const Node* tree, Key key, Value* value_out) {
  return Impl::lookup(tree, key, value_out);
}

inline std::size_t size(const Node* tree) { return Impl::size(tree); }
inline bool empty(const Node* tree) { return Impl::empty(tree); }
/// True if the container holds fewer than two items (split precondition).
inline bool less_than_two_items(const Node* tree) {
  return Impl::less_than_two_items(tree);
}
/// Smallest / largest key.  Precondition: !empty(tree).
inline Key min_key(const Node* tree) { return Impl::min_key(tree); }
inline Key max_key(const Node* tree) { return Impl::max_key(tree); }

/// Visits every item with lo <= key <= hi in ascending key order.
inline void for_range(const Node* tree, Key lo, Key hi, ItemVisitor visit) {
  Impl::for_range(tree, lo, hi, visit);
}
/// Visits every item in ascending key order.
inline void for_all(const Node* tree, ItemVisitor visit) {
  Impl::for_all(tree, visit);
}

/// Key of rank `index` (0-based, ascending).  Precondition: index < size.
inline Key select(const Node* tree, std::size_t index) {
  return Impl::select(tree, index);
}

// --- Persistent updates (pure; inputs not consumed). ----------------------

/// Returns a version with (key, value) present.  `*replaced_out` (may be
/// null) is set to true iff an existing item with `key` was overwritten.
inline Ref insert(const Node* tree, Key key, Value value,
                  bool* replaced_out = nullptr) {
  return Impl::insert(tree, key, value, replaced_out);
}

/// Returns a version without `key`.  `*removed_out` (may be null) is set to
/// true iff an item was removed.
inline Ref remove(const Node* tree, Key key, bool* removed_out = nullptr) {
  return Impl::remove(tree, key, removed_out);
}

/// Concatenates two trees; every key in `left` must be smaller than every
/// key in `right`.
inline Ref join(const Node* left, const Node* right) {
  return Impl::join(left, right);
}

/// Splits by key: `left_out` receives keys < key, `right_out` keys >= key.
inline void split(const Node* tree, Key key, Ref* left_out, Ref* right_out) {
  Impl::split(tree, key, left_out, right_out);
}

/// Splits into halves of (nearly) equal size.  `split_key_out` receives the
/// smallest key of the right half (route-node semantics: < key goes left).
/// Precondition: size(tree) >= 2.
inline void split_evenly(const Node* tree, Ref* left_out, Ref* right_out,
                         Key* split_key_out) {
  Impl::split_evenly(tree, left_out, right_out, split_key_out);
}

// --- Introspection for tests and statistics. ------------------------------

/// Height of the tree (empty = 0, single leaf = 1).
inline std::size_t height(const Node* tree) { return Impl::height(tree); }
/// Number of fat leaves.
inline std::size_t leaf_count(const Node* tree) {
  return Impl::leaf_count(tree);
}
/// Verifies all structural invariants (ordering, balance, sizes, min/max
/// caches, inner pivots, leaf fill bounds).  Returns true if they all hold.
inline bool check_invariants(const Node* tree) {
  return Impl::check_invariants(tree);
}
/// Same checks with one diagnostic line per violated invariant appended to
/// `report` (CATS_CHECKED builds additionally verify node canaries and
/// refcount sanity).  Returns true if everything holds.
inline bool validate(const Node* tree, check::Report* report) {
  return Impl::validate(tree, report);
}
/// Total live node count across all trees — and all key-type instantiations
/// (leak detection in tests).
std::size_t live_nodes();

#if CATS_CHECKED_ENABLED
namespace testing {
/// Deliberately corrupts the leftmost leaf's first key so ordering and the
/// min-key cache break — negative tests prove the validators fire.  Integer
/// keys only (the corruption is arithmetic), hence outside the template.
void corrupt_first_leaf_key(const Node* tree);
/// Shifts the root's pivot (precondition: the root is an inner node), so
/// descents route keys to the wrong subtree while every other cache holds.
void corrupt_pivot(const Node* tree);
/// Smashes the root node's canary — negative tests of the canary protocol.
void corrupt_canary(const Node* tree);
}  // namespace testing
#endif

// Convenience overloads on Ref.
inline bool lookup(const Ref& t, Key k, Value* v) { return lookup(t.get(), k, v); }
inline std::size_t size(const Ref& t) { return size(t.get()); }
inline bool empty(const Ref& t) { return empty(t.get()); }
inline Ref insert(const Ref& t, Key k, Value v, bool* r = nullptr) {
  return insert(t.get(), k, v, r);
}
inline Ref remove(const Ref& t, Key k, bool* r = nullptr) {
  return remove(t.get(), k, r);
}
inline Ref join(const Ref& l, const Ref& r) { return join(l.get(), r.get()); }

}  // namespace cats::treap

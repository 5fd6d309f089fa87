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
// The implementation is the BasicTreap<K, V, Cmp> template (treap_impl.hpp),
// whose statics are the whole API and which is itself the LFCA tree's
// leaf-container policy.  This header names the default <int64_t, uint64_t,
// std::less> instantiation `Impl`; it is explicitly instantiated in
// treap.cpp (the extern template below), so the int fast path's codegen
// lives in one translation unit.
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

}  // namespace cats::treap

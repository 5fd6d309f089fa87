// Leaf-container policies for BasicLfcaTree — the paper's "Flexible"
// property (§1): "Performance characteristics of an LFCA tree can be
// changed by providing a different set implementation."
//
// A policy supplies an immutable, reference-counted ordered container with
// O(log n)-or-better lookup and persistent insert/remove/join/split, plus
// the key/value/comparator types the tree is instantiated over (the
// LeafContainer concept below).  The two container templates are the
// policies themselves, each generic in <K, V, Cmp>:
//
//   treap::BasicTreap — the paper's choice: balanced fat-leaf tree,
//                       O(log n) updates and splits/joins (src/treap).
//   chunk::BasicChunk — a flat immutable sorted array as used by the k-ary
//                       tree and the Leaplist: O(n) updates, unbeatable
//                       scan locality (src/chunk).  §3 explains why this
//                       degrades when base nodes grow — `bench_paper
//                       ablation` measures it.
//
// TreapContainer / ChunkContainer are the integer-key aliases; the Str*
// aliases carry the interned string-key instantiation.
#pragma once

#include <concepts>
#include <cstddef>
#include <functional>

#include "chunk/chunk.hpp"
#include "common/strkey.hpp"
#include "common/types.hpp"
#include "treap/treap.hpp"

namespace cats::lfca {

/// What BasicLfcaTree requires of a leaf-container policy.  (The ordered-map
/// semantics — persistence, refcounting, Compare-consistent ordering — are
/// contracts the type system cannot express; tests/differential_test.cpp
/// checks them behaviourally.)
template <class C>
concept LeafContainer = requires(const typename C::Node* n,
                                 typename C::Key k, typename C::Value v,
                                 typename C::Ref ref, bool* flag,
                                 typename C::Key* key_out,
                                 BasicItemVisitor<typename C::Key,
                                                  typename C::Value> visit) {
  typename C::Key;
  typename C::Value;
  typename C::Compare;
  { C::kName } -> std::convertible_to<const char*>;
  { C::incref(n) };
  { C::decref(n) };
  { C::insert(n, k, v, flag) } -> std::same_as<typename C::Ref>;
  { C::remove(n, k, flag) } -> std::same_as<typename C::Ref>;
  { C::lookup(n, k, &v) } -> std::same_as<bool>;
  { C::join(n, n) } -> std::same_as<typename C::Ref>;
  { C::split_evenly(n, &ref, &ref, key_out) };
  { C::for_range(n, k, k, visit) };
  { C::empty(n) } -> std::same_as<bool>;
  { C::less_than_two_items(n) } -> std::same_as<bool>;
  { C::min_key(n) } -> std::same_as<typename C::Key>;
  { C::max_key(n) } -> std::same_as<typename C::Key>;
  { C::size(n) } -> std::same_as<std::size_t>;
};

/// Integer-key policies (the paper's configuration).
using TreapContainer = treap::BasicTreap<Key, Value, std::less<Key>>;
using ChunkContainer = chunk::BasicChunk<Key, Value, std::less<Key>>;

/// Interned string-key policies (see common/strkey.hpp).
using StrTreapContainer = treap::BasicTreap<StrKey, Value, std::less<StrKey>>;
using StrChunkContainer = chunk::BasicChunk<StrKey, Value, std::less<StrKey>>;

static_assert(LeafContainer<TreapContainer>);
static_assert(LeafContainer<ChunkContainer>);
static_assert(LeafContainer<StrTreapContainer>);
static_assert(LeafContainer<StrChunkContainer>);

}  // namespace cats::lfca

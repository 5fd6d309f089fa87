#include "treap/treap.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "common/catomic.hpp"
#include "common/strkey.hpp"

namespace cats::treap {

namespace detail {

// Shared by every BasicTreap instantiation (see treap_impl.hpp).
cats::atomic<std::uint32_t> g_leaf_fill{kLeafCapacity};
constinit obs::ShardedCounters<1> g_live_nodes;

}  // namespace detail

// All member-function codegen for the supported key types lives here: the
// wrappers in treap.hpp (and generic users elsewhere) link against these
// instantiations instead of re-instantiating per translation unit.
template struct BasicTreap<Key, Value, std::less<Key>>;
template struct BasicTreap<StrKey, Value, std::less<StrKey>>;

#if !CATS_CHECKED_ENABLED
// One cache line per descent level: the pool hands out 64-byte-aligned
// blocks, so an Inner that fits the 64-byte class is read with one miss.
// (Checked builds add a canary word and move Inner to the next class.)
static_assert(sizeof(Impl::Inner) <= 64,
              "int64 treap inner node outgrew one cache line");
#endif

void set_leaf_fill(std::uint32_t fill) {
  detail::g_leaf_fill.store(std::clamp<std::uint32_t>(fill, 2, kLeafCapacity),
                            std::memory_order_relaxed);
}

std::uint32_t leaf_fill() {
  return detail::g_leaf_fill.load(std::memory_order_relaxed);
}

std::size_t live_nodes() {
  return static_cast<std::size_t>(detail::g_live_nodes.read(0));
}

#if CATS_CHECKED_ENABLED
namespace testing {

// Test-only mutations of nominally-immutable nodes: negative tests use them
// to prove the validators actually fire.  const_cast is confined to here.
// These stay integer-key-only free functions (not template members): the
// key corruption is arithmetic, and keeping them outside BasicTreap keeps
// the explicit instantiations free of int-specific code.

void corrupt_first_leaf_key(const Node* tree) {
  assert(tree != nullptr);
  const Node* n = tree;
  while (!n->is_leaf) n = Impl::as_inner(n)->left;
  auto* leaf = const_cast<Impl::Leaf*>(Impl::as_leaf(n));
  // Breaks the min-key cache of every ancestor; with count > 1 it may also
  // break intra-leaf ordering.
  leaf->items[0].key += 1;
}

void corrupt_pivot(const Node* tree) {
  assert(tree != nullptr && !tree->is_leaf);
  auto* inner = const_cast<Impl::Inner*>(Impl::as_inner(tree));
  // Keys and both subtrees stay intact; only the descent's routing key
  // stops matching the right subtree's minimum.
  inner->pivot += 1;
}

void corrupt_canary(const Node* tree) {
  assert(tree != nullptr);
  const_cast<Node*>(tree)->check_canary.store(0xBAD0BAD0'BAD0BAD0ull,
                                              std::memory_order_relaxed);
}

}  // namespace testing
#endif  // CATS_CHECKED_ENABLED

}  // namespace cats::treap

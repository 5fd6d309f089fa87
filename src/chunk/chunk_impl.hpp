// Template implementation of the immutable sorted-array container (see
// chunk.hpp for the design discussion).  BasicChunk<K, V, Cmp> mirrors
// BasicTreap's struct-as-namespace shape: one explicit instantiation per key
// type in chunk.cpp carries all codegen, and the struct is itself the LFCA
// tree's leaf-container policy (lfca/container_policy.hpp).
//
// The node is a flexible-array-member allocation that is never constructed —
// fields are written with plain stores into raw pool storage — so K and V
// must be trivially copyable and trivially destructible (enforced below;
// StrKey qualifies by design).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>

#include "alloc/pool.hpp"
#include "check/check.hpp"
#include "common/catomic.hpp"
#include "common/container_ref.hpp"
#include "common/function_ref.hpp"
#include "common/types.hpp"
#include "obs/counters.hpp"

namespace cats::chunk {

namespace detail {

/// Process-wide live-node counter shared by every BasicChunk instantiation
/// (defined in chunk.cpp), keeping leak checks meaningful across mixed
/// key-type workloads.  Sharded like the treap's: every chunk rebuild
/// allocates one node and frees another.
extern obs::ShardedCounters<1> g_live_nodes;

}  // namespace detail

template <class K, class V, class Cmp = std::less<K>>
struct BasicChunk {
  static_assert(std::is_trivially_copyable_v<K> &&
                    std::is_trivially_destructible_v<K>,
                "chunk keys are raw-copied into unconstructed storage");
  static_assert(std::is_trivially_copyable_v<V> &&
                    std::is_trivially_destructible_v<V>,
                "chunk values are raw-copied into unconstructed storage");

  using Key = K;
  using Value = V;
  using Compare = Cmp;
  using Item = BasicItem<K, V>;
  using Visitor = BasicItemVisitor<K, V>;
  /// Shared-ownership handle; a default-constructed Ref is the empty chunk.
  using Ref = ContainerRef<BasicChunk>;
  static constexpr const char* kName = "chunk";

  static bool lt(const K& a, const K& b) { return Compare{}(a, b); }
  static bool le(const K& a, const K& b) { return !Compare{}(b, a); }
  static bool eq(const K& a, const K& b) {
    return !Compare{}(a, b) && !Compare{}(b, a);
  }

  /// One immutable, exactly-sized sorted array of items.
  struct Node {
    mutable cats::atomic<std::uint64_t> rc;
    std::uint32_t count;
#if CATS_CHECKED_ENABLED
    /// Canary header; see check/check.hpp.  Like `rc`, initialized by a
    /// plain store in allocate() — the node is raw storage, never
    /// constructed.
    check::Canary check_canary;
#endif
    Item items[];  // flexible array member (GNU extension, exact allocation)
  };

  static std::size_t allocation_bytes(std::uint32_t count) {
    return sizeof(Node) + count * sizeof(Item);
  }

  static Node* allocate(std::uint32_t count) {
    // Chunk nodes are rebuilt wholesale on every update; route the common
    // sizes through the slab pool (oversize chunks fall through to the heap
    // inside pool_alloc).
    void* memory = alloc::pool_alloc(allocation_bytes(count));
    cats::sim_note_alloc(memory, allocation_bytes(count));
    Node* node = static_cast<Node*>(memory);
    node->rc.store(1, std::memory_order_relaxed);
    node->count = count;
    CATS_CHECKED_ONLY(node->check_canary.store(check::kCanaryAlive,
                                               std::memory_order_relaxed));
    detail::g_live_nodes.add(0);
    return node;
  }

  static const Item* lower_bound(const Node* node, const K& key) {
    return std::lower_bound(
        node->items, node->items + node->count, key,
        [](const Item& item, const K& k) { return Compare{}(item.key, k); });
  }

  static void incref(const Node* node) noexcept {
    CATS_CHECKED_ONLY(
        check::canary_expect_alive(node->check_canary, "chunk node (incref)"));
    node->rc.fetch_add(1, std::memory_order_relaxed);
  }

  static void decref(const Node* node) noexcept {
    CATS_CHECKED_ONLY(
        check::canary_expect_alive(node->check_canary, "chunk node (decref)"));
    const std::uint64_t prev = node->rc.fetch_sub(1, std::memory_order_acq_rel);
    CATS_CHECK(prev != 0, "chunk node %p: refcount underflow",
               static_cast<const void*>(node));
    if (prev == 1) {
      detail::g_live_nodes.sub(0);
      // Compute the size before the poison overwrites `count`; pool_free
      // needs it too (the pool's size classes are keyed on it).
      const std::size_t bytes = allocation_bytes(node->count);
      CATS_CHECKED_ONLY(check::poison(const_cast<Node*>(node), bytes));
      if (!cats::sim_quarantine_free(const_cast<Node*>(node), bytes,
                                     &alloc::pool_free))
        alloc::pool_free(const_cast<Node*>(node), bytes);
    }
  }

  static bool lookup(const Node* chunk, const K& key, V* value_out) {
    if (chunk == nullptr) return false;
    const Item* pos = lower_bound(chunk, key);
    if (pos == chunk->items + chunk->count || !eq(pos->key, key)) return false;
    if (value_out != nullptr) *value_out = pos->value;
    return true;
  }

  static std::size_t size(const Node* chunk) {
    return chunk == nullptr ? 0 : chunk->count;
  }

  static bool empty(const Node* chunk) { return chunk == nullptr; }

  static bool less_than_two_items(const Node* chunk) {
    return size(chunk) < 2;
  }

  static K min_key(const Node* chunk) {
    assert(chunk != nullptr);
    return chunk->items[0].key;
  }

  static K max_key(const Node* chunk) {
    assert(chunk != nullptr);
    return chunk->items[chunk->count - 1].key;
  }

  static void for_range(const Node* chunk, const K& lo, const K& hi,
                        Visitor visit) {
    if (chunk == nullptr) return;
    const Item* end = chunk->items + chunk->count;
    for (const Item* pos = lower_bound(chunk, lo);
         pos != end && le(pos->key, hi); ++pos) {
      visit(pos->key, pos->value);
    }
  }

  static void for_all(const Node* chunk, Visitor visit) {
    for_range(chunk, KeyTraits<K>::min(), KeyTraits<K>::max(), visit);
  }

  static Ref insert(const Node* chunk, const K& key, const V& value,
                    bool* replaced_out = nullptr) {
    if (chunk == nullptr) {
      Node* fresh = allocate(1);
      fresh->items[0] = Item{key, value};
      if (replaced_out != nullptr) *replaced_out = false;
      return Ref::adopt(fresh);
    }
    const Item* pos = lower_bound(chunk, key);
    const auto prefix = static_cast<std::uint32_t>(pos - chunk->items);
    const bool replaces =
        pos != chunk->items + chunk->count && eq(pos->key, key);
    if (replaced_out != nullptr) *replaced_out = replaces;
    Node* fresh = allocate(chunk->count + (replaces ? 0 : 1));
    std::copy_n(chunk->items, prefix, fresh->items);
    fresh->items[prefix] = Item{key, value};
    std::copy(chunk->items + prefix + (replaces ? 1 : 0),
              chunk->items + chunk->count, fresh->items + prefix + 1);
    return Ref::adopt(fresh);
  }

  static Ref remove(const Node* chunk, const K& key,
                    bool* removed_out = nullptr) {
    if (removed_out != nullptr) *removed_out = false;
    if (chunk == nullptr) return Ref();
    const Item* pos = lower_bound(chunk, key);
    if (pos == chunk->items + chunk->count || !eq(pos->key, key)) {
      incref(chunk);
      return Ref::adopt(chunk);  // unchanged version
    }
    if (removed_out != nullptr) *removed_out = true;
    if (chunk->count == 1) return Ref();
    const auto prefix = static_cast<std::uint32_t>(pos - chunk->items);
    Node* fresh = allocate(chunk->count - 1);
    std::copy_n(chunk->items, prefix, fresh->items);
    std::copy(pos + 1, chunk->items + chunk->count, fresh->items + prefix);
    return Ref::adopt(fresh);
  }

  static Ref join(const Node* left, const Node* right) {
    if (left == nullptr) {
      if (right != nullptr) incref(right);
      return Ref::adopt(right);
    }
    if (right == nullptr) {
      incref(left);
      return Ref::adopt(left);
    }
    assert(lt(max_key(left), min_key(right)));
    Node* fresh = allocate(left->count + right->count);
    std::copy_n(left->items, left->count, fresh->items);
    std::copy_n(right->items, right->count, fresh->items + left->count);
    return Ref::adopt(fresh);
  }

  static void split_evenly(const Node* chunk, Ref* left_out, Ref* right_out,
                           K* split_key_out) {
    assert(size(chunk) >= 2);
    const std::uint32_t half = chunk->count / 2;
    Node* left = allocate(half);
    Node* right = allocate(chunk->count - half);
    std::copy_n(chunk->items, half, left->items);
    std::copy(chunk->items + half, chunk->items + chunk->count, right->items);
    *left_out = Ref::adopt(left);
    *right_out = Ref::adopt(right);
    *split_key_out = right->items[0].key;
  }

  /// Structural checks (sorted, unique, non-empty, refcount sanity; the
  /// node canary in CATS_CHECKED builds), appending one diagnostic line per
  /// violated invariant to `report` (may be null).  Returns true if
  /// everything holds.
  static bool validate(const Node* chunk, check::Report* report) {
    if (chunk == nullptr) return true;
    const void* p = chunk;
#if CATS_CHECKED_ENABLED
    const std::uint64_t canary =
        chunk->check_canary.load(std::memory_order_relaxed);
    if (check::canary_state(canary) != check::CanaryState::kAlive) {
      if (report != nullptr) {
        report->add("chunk node %p: canary is %s (0x%016llx), not alive", p,
                    check::canary_name(canary),
                    static_cast<unsigned long long>(canary));
      }
      return false;  // remaining fields are as untrustworthy as the canary
    }
#endif
    bool ok = true;
    if (chunk->count == 0) {  // empty is represented as null
      if (report != nullptr) {
        report->add("chunk node %p: count is 0 (empty must be null)", p);
      }
      ok = false;
    }
    if (chunk->rc.load(std::memory_order_relaxed) == 0) {
      if (report != nullptr) {
        report->add("chunk node %p: refcount is 0 but node is reachable", p);
      }
      ok = false;
    }
    for (std::uint32_t i = 1; i < chunk->count; ++i) {
      if (!lt(chunk->items[i - 1].key, chunk->items[i].key)) {
        if (report != nullptr) {
          report->add(
              "chunk node %p: items[%u].key %s >= items[%u].key %s "
              "(not strictly ascending)",
              p, i - 1, KeyTraits<K>::format(chunk->items[i - 1].key).c_str(),
              i, KeyTraits<K>::format(chunk->items[i].key).c_str());
        }
        ok = false;
      }
    }
    return ok;
  }

  /// validate() without diagnostics.
  static bool check_invariants(const Node* chunk) {
    return validate(chunk, nullptr);
  }
};

}  // namespace cats::chunk

// Lock-free skiplist index shared by the two skiplist baselines.
//
// NonAtomicSL (skiplist.hpp) and the KiWi stand-in (vskip/) both keep one
// tower node per key in a Herlihy-Shavit skiplist.  This header holds what
// they share: the sentinel ranks, the tower heights, the window search
// that snips marked nodes, find-or-insert with upper-level linking, and the
// seek to the first bottom-level node of a range.  Each owner adds its
// per-key state as the node's `Payload` base (a value cell for SkipList, a
// version-record chain for VersionedSkipList).
//
// A marked next pointer (LSB set) means the owning node is logically
// deleted at that level; the pointer part still identifies the successor so
// that helpers can splice the node out.  Only SkipList::remove marks nodes;
// VersionedSkipList never removes one, so its searches never snip.
//
// The head/tail sentinels carry an out-of-band rank instead of stealing the
// extreme key values: kHead orders before every key and kTail after every
// key, so kKeyMin and kKeyMax are ordinary insertable keys in every build
// type (the key-domain contract of common/types.hpp).
//
// Every member except construction and destruction runs under the owner's
// EBR guard.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "common/catomic.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace cats::skiplist {

inline constexpr int kMaxLevel = 20;  // supports ~2^20 items at p = 1/2

/// Tower height of `key`'s node: the trailing ones of a hash of the key, so
/// geometric with p = 1/2, capped at kMaxLevel.  A pure function of the key,
/// so a replayed cats-sim schedule rebuilds the same towers.
inline int tower_height(Key key) {
  const std::uint64_t word =
      mix64(static_cast<std::uint64_t>(key) ^ 0x5bd1e995u);
  return std::min(std::countr_one(word), kMaxLevel);
}

template <class Payload>
class SkipIndex {
 public:
  struct Node : Payload {
    enum Rank : std::int8_t { kHead = -1, kItem = 0, kTail = 1 };

    const Key key;
    const std::int8_t rank;
    const int top_level;
    cats::atomic<std::uintptr_t> next[kMaxLevel + 1];

    template <class... Args>
    Node(Key k, Rank r, int levels, Args&&... args)
        : Payload(std::forward<Args>(args)...),
          key(k),
          rank(r),
          top_level(levels) {
      for (auto& word : next) word.store(0, std::memory_order_relaxed);
    }

    /// Position strictly before `k` (head before everything, tail after).
    bool before(Key k) const {
      return rank == kHead || (rank == kItem && key < k);
    }
    /// Holds exactly `k` (sentinels hold no key at all).
    bool holds(Key k) const { return rank == kItem && key == k; }
    bool is_item() const { return rank == kItem; }
  };

  /// Per-level insertion window of a key: preds[l] < key <= succs[l].
  struct Window {
    Node* preds[kMaxLevel + 1];
    Node* succs[kMaxLevel + 1];
  };

  static constexpr std::uintptr_t kMarkBit = 1;

  static Node* ptr_of(std::uintptr_t word) {
    return reinterpret_cast<Node*>(word & ~kMarkBit);
  }
  static bool is_marked(std::uintptr_t word) {
    return (word & kMarkBit) != 0;
  }
  static std::uintptr_t word_of(Node* node) {
    return reinterpret_cast<std::uintptr_t>(node);
  }

  /// Bottom-level successor of `n` (mark stripped).
  // catslint: under-guard(callers hold the owner's guard)
  static Node* successor(const Node* n) {
    return ptr_of(n->next[0].load(std::memory_order_acquire));
  }

  SkipIndex() : head_(new Node(Key{}, Node::kHead, kMaxLevel)) {
    Node* tail = new Node(Key{}, Node::kTail, kMaxLevel);
    for (auto& word : head_->next) {
      word.store(word_of(tail), std::memory_order_relaxed);
    }
  }

  // catslint: quiescent(destructor; the owner guarantees no concurrent access)
  ~SkipIndex() {
    Node* cur = head_;
    while (cur != nullptr) {
      Node* next = ptr_of(cur->next[0].load(std::memory_order_relaxed));
      delete cur;  // catslint: direct-delete(quiescent teardown)
      cur = next;
    }
  }

  SkipIndex(const SkipIndex&) = delete;
  SkipIndex& operator=(const SkipIndex&) = delete;

  /// First node of the bottom level (the tail sentinel when empty).
  Node* first() const { return successor(head_); }

  /// Herlihy-Shavit `find`: fills the window of `key` on every level,
  /// physically unlinking marked nodes on the way (restarts when a snip
  /// loses its CAS).  Returns true iff an unmarked node holding `key` is
  /// present; then w.succs[0] is that node.
  // catslint: under-guard(callers hold the owner's guard)
  bool find(Key key, Window& w) {
  retry:
    Node* pred = head_;
    for (int level = kMaxLevel; level >= 0; --level) {
      Node* curr = ptr_of(pred->next[level].load(std::memory_order_acquire));
      while (true) {
        std::uintptr_t succ_word =
            curr->next[level].load(std::memory_order_acquire);
        while (is_marked(succ_word)) {
          // curr is logically deleted at this level: splice it out.
          std::uintptr_t expected = word_of(curr);
          if (!pred->next[level].compare_exchange_strong(
                  expected, word_of(ptr_of(succ_word)),
                  std::memory_order_acq_rel)) {
            goto retry;
          }
          curr = ptr_of(succ_word);
          succ_word = curr->next[level].load(std::memory_order_acquire);
        }
        if (!curr->before(key)) break;
        pred = curr;
        curr = ptr_of(succ_word);
      }
      w.preds[level] = pred;
      w.succs[level] = curr;
    }
    return w.succs[0]->holds(key);
  }

  /// Returns the node holding `key` and false, or links a new node built
  /// from `args` and returns it and true.  The new node linearizes when it
  /// is linked on the bottom level.
  template <class... Args>
  std::pair<Node*, bool> find_or_insert(Key key, Args&&... args) {
    Window w;
    while (true) {
      if (find(key, w)) return {w.succs[0], false};
      auto* node = new Node(key, Node::kItem, tower_height(key), args...);
      for (int level = 0; level <= node->top_level; ++level) {
        node->next[level].store(word_of(w.succs[level]),
                                std::memory_order_relaxed);
      }
      std::uintptr_t expected = word_of(w.succs[0]);
      if (!w.preds[0]->next[0].compare_exchange_strong(
              expected, word_of(node), std::memory_order_acq_rel)) {
        delete node;  // catslint: direct-delete(never published; CAS lost)
        continue;
      }
      link_upper_levels(node, w);
      return {node, true};
    }
  }

  /// First bottom-level node at or after `lo` (the tail sentinel when
  /// none).  Does not snip: the node may be marked.
  // catslint: under-guard(callers hold the owner's guard)
  Node* seek(Key lo) const {
    Node* pred = head_;
    Node* curr = nullptr;
    for (int level = kMaxLevel; level >= 0; --level) {
      curr = ptr_of(pred->next[level].load(std::memory_order_acquire));
      while (curr->before(lo)) {
        pred = curr;
        curr = ptr_of(curr->next[level].load(std::memory_order_acquire));
      }
    }
    return curr;
  }

 private:
  /// Links a node already on the bottom level into levels 1..top_level.  A
  /// concurrent remove may mark the node at any moment; a marked forward
  /// pointer stops the linking (the node is logically gone, higher links
  /// would resurrect it).
  // catslint: under-guard(callers hold the owner's guard)
  void link_upper_levels(Node* node, Window& w) {
    for (int level = 1; level <= node->top_level; ++level) {
      while (true) {
        std::uintptr_t node_next =
            node->next[level].load(std::memory_order_acquire);
        if (is_marked(node_next)) return;  // removed concurrently
        Node* succ = w.succs[level];
        if (ptr_of(node_next) != succ) {
          // Refresh our forward pointer to the current window first.
          if (!node->next[level].compare_exchange_strong(
                  node_next, word_of(succ), std::memory_order_acq_rel)) {
            continue;  // raced with a marker; re-check
          }
        }
        std::uintptr_t expected = word_of(succ);
        if (w.preds[level]->next[level].compare_exchange_strong(
                expected, word_of(node), std::memory_order_acq_rel)) {
          break;  // linked at this level
        }
        find(node->key, w);              // window moved: recompute
        if (w.succs[0] != node) return;  // node was removed meanwhile
      }
    }
  }

  Node* const head_;
};

}  // namespace cats::skiplist

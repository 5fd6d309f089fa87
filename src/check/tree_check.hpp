// Structural validator for the LFCA route tree (every build; the canary
// checks need CATS_CHECKED, which gives nodes their canary word).
//
// Walks every node reachable from the root — inside one EBR guard supplied
// by the caller — and verifies the invariants the paper's proofs rest on:
//
//   * Route-key BST order: every route key lies inside the key interval its
//     path implies.  Route keys are immutable and both adaptations preserve
//     search-tree order, so this holds even while updates, range queries and
//     adaptations run concurrently with the walk.
//   * Base-node containment: every container key lies inside the base
//     node's path interval.  Only checked in quiescent mode: the join
//     protocol intentionally publishes the joined container at the
//     neighbor's old slot (line 254) *before* splicing out the parent
//     (lines 255-265), so a concurrent walker can legitimately observe a
//     base node holding the union of two sibling ranges.
//   * Joining/invalidated reachability rules: in a quiescent tree no route
//     node is invalid or join-marked, every join_main is aborted (a
//     preparing/secured state would mean an operation returned with its
//     join unfinished), every join_neighbor's main node is done or aborted,
//     and every range base has a computed result.
//   * Container invariants: the policy's own deep check (treap
//     ordering/balance/size/fill/refcount, chunk sortedness) on every base
//     node's immutable container — safe in both modes.
//   * Canary sanity (CATS_CHECKED builds): reachable nodes are Alive
//     (quiescent) or at worst Retired (concurrent: a guard-protected walker
//     may hold a pointer into a subtree that was unlinked mid-walk); a
//     Dead/poison canary means use-after-free and is reported in both
//     modes.
//   * parent pointers (quiescent): each base node's parent field names its
//     actual route parent — the field try_replace's unlink CAS depends on.
//
// The walker only reads: immutable fields directly, mutable fields through
// their atomics.  It never blocks writers and introduces no synchronization
// beyond the caller's guard.  It is marked cold: it is instantiated into
// lfca_tree.cpp next to the tree's operations, and without the attribute
// GCC spends that translation unit's inlining budget differently on the hot
// paths (range_query, do_update and all_in_range compile to different code
// than without the validator).
#pragma once

#include <string>

#include "check/check.hpp"
#include "common/types.hpp"
#include "lfca/node.hpp"

namespace cats::check {

enum class TreeValidateMode {
  /// Full check; caller promises no concurrent operations.
  kQuiescent,
  /// Subset that holds mid-operation (used by --check-every-n-ops).
  kConcurrent,
};

namespace detail {

/// Formats a bound pointer for diagnostics ("-unbounded-" when nullptr).
template <class K>
std::string format_bound(const K* bound) {
  return bound == nullptr ? std::string("-unbounded-")
                          : cats::KeyTraits<K>::format(*bound);
}

// Path bounds are pointers into route keys — `lo` inclusive, `hi`
// exclusive, nullptr = unbounded — so any key type works, including its
// KeyTraits extremes (the former __int128 widening was integer-only).
template <class C>
[[gnu::cold]] void validate_tree_rec(lfca::detail::Node<C>* n,
                                     lfca::detail::Node<C>* parent_route,
                                     const typename C::Key* lo,
                                     const typename C::Key* hi,
                                     TreeValidateMode mode, Report& report) {
  using lfca::detail::NodeType;
  using Node = lfca::detail::Node<C>;
  using K = typename C::Key;
  const auto lt = [](const K& a, const K& b) {
    return typename C::Compare{}(a, b);
  };

  if (!lfca::detail::is_real<C>(n)) {
    report.add("node %p: sentinel or null pointer reachable from the tree",
               static_cast<void*>(n));
    return;
  }

#if CATS_CHECKED_ENABLED
  // Canary first: everything else reads fields that poison would trash.
  const std::uint64_t canary =
      n->check_canary.load(std::memory_order_relaxed);
  switch (canary_state(canary)) {
    case CanaryState::kAlive:
      break;
    case CanaryState::kRetired:
      if (mode == TreeValidateMode::kQuiescent) {
        report.add("node %p: retired node still reachable in a quiescent "
                   "tree (premature retire)",
                   static_cast<void*>(n));
      }
      break;
    case CanaryState::kDead:
      report.add("node %p: canary is %s (0x%016llx) — reachable node was "
                 "freed or corrupted",
                 static_cast<void*>(n), canary_name(canary),
                 static_cast<unsigned long long>(canary));
      return;  // fields are not trustworthy past this point
  }
#endif

  if (n->type == NodeType::kRoute) {
    if ((lo != nullptr && lt(n->key, *lo)) ||
        (hi != nullptr && !lt(n->key, *hi))) {
      report.add("route %p: key %s outside its path interval [%s, %s)",
                 static_cast<void*>(n),
                 cats::KeyTraits<K>::format(n->key).c_str(),
                 format_bound(lo).c_str(), format_bound(hi).c_str());
    }
    if (mode == TreeValidateMode::kQuiescent) {
      if (!n->valid.load(std::memory_order_acquire)) {
        report.add("route %p: invalidated route node reachable in a "
                   "quiescent tree",
                   static_cast<void*>(n));
      }
      if (n->join_id.load(std::memory_order_acquire) != nullptr) {
        report.add("route %p: join-marked route node in a quiescent tree "
                   "(unrolled join mark)",
                   static_cast<void*>(n));
      }
    }
    validate_tree_rec<C>(n->left.load(std::memory_order_acquire), n, lo,
                         &n->key, mode, report);
    validate_tree_rec<C>(n->right.load(std::memory_order_acquire), n,
                         &n->key, hi, mode, report);
    return;
  }

  // --- base node ----------------------------------------------------------
  if (mode == TreeValidateMode::kQuiescent && n->parent != parent_route) {
    report.add("base %p: parent pointer %p does not name its actual route "
               "parent %p",
               static_cast<void*>(n), static_cast<void*>(n->parent),
               static_cast<void*>(parent_route));
  }

  switch (n->type) {
    case NodeType::kNormal:
      break;
    case NodeType::kJoinMain: {
      Node* state = n->neigh2.load(std::memory_order_acquire);
      if (mode == TreeValidateMode::kQuiescent &&
          state != Node::aborted()) {
        report.add("join_main %p: state is %s in a quiescent tree (join "
                   "never completed or rolled back)",
                   static_cast<void*>(n),
                   state == Node::preparing() ? "preparing"
                   : state == Node::done_mark()
                       ? "done but still reachable"
                       : "secured");
      }
      const std::uint32_t refs =
          n->main_refs.load(std::memory_order_relaxed);
      if (refs == 0) {
        report.add("join_main %p: main_refs is 0 while reachable",
                   static_cast<void*>(n));
      }
      break;
    }
    case NodeType::kJoinNeighbor: {
      Node* main = n->main_node;
      if (main == nullptr) {
        report.add("join_neighbor %p: null main_node",
                   static_cast<void*>(n));
        break;
      }
#if CATS_CHECKED_ENABLED
      const std::uint64_t main_canary =
          main->check_canary.load(std::memory_order_relaxed);
      if (canary_state(main_canary) == CanaryState::kDead) {
        report.add("join_neighbor %p: main_node %p was freed under it "
                   "(canary %s) — main_refs protocol broken",
                   static_cast<void*>(n), static_cast<void*>(main),
                   canary_name(main_canary));
        break;
      }
#endif
      if (main->main_refs.load(std::memory_order_relaxed) == 0) {
        report.add("join_neighbor %p: main_node %p has main_refs 0 while "
                   "still referenced",
                   static_cast<void*>(n), static_cast<void*>(main));
      }
      Node* state = main->neigh2.load(std::memory_order_acquire);
      if (mode == TreeValidateMode::kQuiescent &&
          state != Node::done_mark() && state != Node::aborted()) {
        report.add("join_neighbor %p: main_node %p state is neither done "
                   "nor aborted in a quiescent tree",
                   static_cast<void*>(n), static_cast<void*>(main));
      }
      break;
    }
    case NodeType::kRange: {
      if (n->storage == nullptr) {
        report.add("range_base %p: null result storage",
                   static_cast<void*>(n));
        break;
      }
      if (n->storage->rc.load(std::memory_order_relaxed) == 0) {
        report.add("range_base %p: result storage refcount is 0",
                   static_cast<void*>(n));
      }
      if (mode == TreeValidateMode::kQuiescent &&
          n->storage->result.load(std::memory_order_acquire) ==
              lfca::detail::not_set<C>()) {
        report.add("range_base %p: unlinearized range query left in a "
                   "quiescent tree",
                   static_cast<void*>(n));
      }
      break;
    }
    case NodeType::kRoute:
      break;  // unreachable
  }

  // Container: deep policy invariants always (immutable data), containment
  // only in quiescence (see file comment).
  if (!C::validate(n->data, &report)) {
    report.add("base %p: container failed its invariant checks (see above)",
               static_cast<void*>(n));
  } else if (!C::empty(n->data)) {
    if (mode == TreeValidateMode::kQuiescent) {
      const K first = C::min_key(n->data);
      const K last = C::max_key(n->data);
      if ((lo != nullptr && lt(first, *lo)) ||
          (hi != nullptr && !lt(last, *hi))) {
        report.add("base %p: container keys [%s, %s] escape the path "
                   "interval [%s, %s)",
                   static_cast<void*>(n),
                   cats::KeyTraits<K>::format(first).c_str(),
                   cats::KeyTraits<K>::format(last).c_str(),
                   format_bound(lo).c_str(), format_bound(hi).c_str());
      }
    }
  }
}

}  // namespace detail

/// Validates every invariant of the route tree under `root`.  Must be
/// called inside an EBR guard of the tree's domain.  Returns true if all
/// checks pass; failures are appended to `report` when non-null.
template <class C>
[[gnu::cold]] bool validate_tree(lfca::detail::Node<C>* root,
                                 TreeValidateMode mode,
                                 Report* report = nullptr) {
  Report local;
  Report& out = report != nullptr ? *report : local;
  const std::size_t before = out.failure_count();
  if (root == nullptr) {
    out.add("tree root is null");
  } else {
    detail::validate_tree_rec<C>(root, nullptr, nullptr, nullptr, mode, out);
  }
  return out.failure_count() == before;
}

}  // namespace cats::check

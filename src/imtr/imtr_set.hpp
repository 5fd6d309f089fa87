// Im-Tr-Coarse: the coarse-grained snapshot baseline from the paper's
// introduction (§1).
//
// A single mutable reference points at an immutable balanced tree (the same
// fat-leaf container the LFCA tree uses).  Updates build a new version in
// O(log n) by path copying and install it with one CAS on the root; range
// queries read the root once — a constant conflict time — and then traverse
// the snapshot at leisure.  This is the scheme Herlihy [9] describes and the
// upper-right corner of the granularity trade-off: unbeatable for large
// range queries, a single global hot spot for updates.
#pragma once

#include <atomic>
#include <cstddef>

#include "common/function_ref.hpp"
#include "common/types.hpp"
#include "reclaim/ebr.hpp"
#include "treap/treap.hpp"

namespace cats::imtr {

class ImTreeSet {
 public:
  explicit ImTreeSet(reclaim::Domain& domain = reclaim::Domain::global())
      : domain_(domain), root_(nullptr) {}

  // catslint: quiescent(destructor; caller guarantees no concurrent access)
  ~ImTreeSet() {
    const treap::Node* root = root_.load(std::memory_order_relaxed);
    if (root != nullptr) treap::Impl::decref(root);
  }

  ImTreeSet(const ImTreeSet&) = delete;
  ImTreeSet& operator=(const ImTreeSet&) = delete;

  /// Lock-free; returns true iff the key was not present before.
  bool insert(Key key, Value value) {
    reclaim::Domain::Guard guard(domain_);
    while (true) {
      const treap::Node* old_root = root_.load(std::memory_order_acquire);
      bool replaced = false;
      treap::Ref next = treap::Impl::insert(old_root, key, value, &replaced);
      if (publish(old_root, next)) return !replaced;
    }
  }

  /// Lock-free; returns true iff the key was present.
  bool remove(Key key) {
    reclaim::Domain::Guard guard(domain_);
    while (true) {
      const treap::Node* old_root = root_.load(std::memory_order_acquire);
      bool removed = false;
      treap::Ref next = treap::Impl::remove(old_root, key, &removed);
      if (!removed) return false;  // nothing to publish
      if (publish(old_root, next)) return true;
    }
  }

  /// Wait-free.
  bool lookup(Key key, Value* value_out = nullptr) const {
    reclaim::Domain::Guard guard(domain_);
    return treap::Impl::lookup(root_.load(std::memory_order_acquire), key,
                               value_out);
  }

  /// Wait-free snapshot range query with O(1) conflict time.
  void range_query(Key lo, Key hi, ItemVisitor visit) const {
    reclaim::Domain::Guard guard(domain_);
    treap::Impl::for_range(root_.load(std::memory_order_acquire), lo, hi,
                           visit);
  }

  std::size_t size() const {
    reclaim::Domain::Guard guard(domain_);
    return treap::Impl::size(root_.load(std::memory_order_acquire));
  }

  /// O(1) linearizable clone — the multi-item operation the paper contrasts
  /// with SnapTree's (§3): with a persistent container behind one mutable
  /// reference, cloning is just sharing the current version.
  ImTreeSet clone() const {
    reclaim::Domain::Guard guard(domain_);
    ImTreeSet copy(domain_);
    const treap::Node* root = root_.load(std::memory_order_acquire);
    if (root != nullptr) {
      treap::Impl::incref(root);
      copy.root_.store(root, std::memory_order_release);
    }
    return copy;
  }

  ImTreeSet(ImTreeSet&& other) noexcept
      : domain_(other.domain_),
        root_(other.root_.exchange(nullptr, std::memory_order_acq_rel)) {}

  reclaim::Domain& domain() const { return domain_; }

 private:
  /// Installs `next` over `expected`; on success the old version is retired
  /// (its reference released once no reader can hold it).
  bool publish(const treap::Node* expected, treap::Ref& next) {
    const treap::Node* desired = next.get();
    if (root_.compare_exchange_strong(expected, desired,
                                      std::memory_order_acq_rel)) {
      next.release();  // ownership moved into root_
      if (expected != nullptr) {
        // Shared retire: the deleter is a decref, and path-copying updates
        // can briefly leave the displaced root reachable as a subtree of a
        // later version that is itself retired.
        domain_.retire_shared(
            const_cast<treap::Node*>(expected), +[](void* p) {
              treap::Impl::decref(static_cast<const treap::Node*>(p));
            });
      }
      return true;
    }
    return false;
  }

  reclaim::Domain& domain_;
  std::atomic<const treap::Node*> root_;
};

}  // namespace cats::imtr

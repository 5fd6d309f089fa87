#include "kary/kary_tree.hpp"

#include <cassert>

namespace cats::kary {

// Route nodes are immutable except for their child pointers and, once
// created, are never unlinked (no joins): a leaf's parent pointer is
// permanent, which keeps try_replace simple.
struct KaryTree::Node {
  const bool is_route;
  // route
  const Key key;
  std::atomic<Node*> left{nullptr};
  std::atomic<Node*> right{nullptr};
  // leaf
  const treap::Node* data;  // owned reference, <= k items
  Node* const parent;

  Node(Key route_key)  // route
      : is_route(true), key(route_key), data(nullptr), parent(nullptr) {}
  Node(const treap::Node* d, Node* p)  // leaf (takes ownership of d)
      : is_route(false), key(0), data(d), parent(p) {}
  ~Node() {
    if (data != nullptr) treap::Impl::decref(data);
  }
};

namespace {

// catslint: direct-delete(EBR deleter; runs after the grace period)
void node_deleter(void* p) { delete static_cast<KaryTree::Node*>(p); }

}  // namespace

KaryTree::KaryTree(reclaim::Domain& domain, std::uint32_t k)
    : domain_(domain), k_(k) {
  root_.store(new Node(nullptr, nullptr), std::memory_order_release);
}

namespace {

// catslint: quiescent(destructor-only teardown; no concurrent operations)
void destroy_rec(KaryTree::Node* n) {
  if (n == nullptr) return;
  if (n->is_route) {
    destroy_rec(n->left.load(std::memory_order_relaxed));
    destroy_rec(n->right.load(std::memory_order_relaxed));
  }
  delete n;  // catslint: direct-delete(quiescent teardown; tree is private)
}

}  // namespace

// catslint: quiescent(destructor; caller guarantees no concurrent access)
KaryTree::~KaryTree() { destroy_rec(root_.load(std::memory_order_relaxed)); }

KaryTree::Node* KaryTree::find_leaf(Key key) const {
  Node* n = root_.load(std::memory_order_acquire);
  while (n->is_route) {
    n = (key < n->key ? n->left : n->right).load(std::memory_order_acquire);
  }
  return n;
}

bool KaryTree::try_replace(Node* leaf, Node* replacement) {
  bool done = false;
  if (leaf->parent == nullptr) {
    Node* expected = leaf;
    done = root_.compare_exchange_strong(expected, replacement,
                                         std::memory_order_acq_rel);
  } else if (leaf->parent->left.load(std::memory_order_acquire) == leaf) {
    Node* expected = leaf;
    done = leaf->parent->left.compare_exchange_strong(
        expected, replacement, std::memory_order_acq_rel);
  } else if (leaf->parent->right.load(std::memory_order_acquire) == leaf) {
    Node* expected = leaf;
    done = leaf->parent->right.compare_exchange_strong(
        expected, replacement, std::memory_order_acq_rel);
  }
  if (done) domain_.retire(leaf, &node_deleter);
  return done;
}

bool KaryTree::insert(Key key, Value value) {
  reclaim::Domain::Guard guard(domain_);
  while (true) {
    Node* leaf = find_leaf(key);
    bool replaced = false;
    treap::Ref next = treap::Impl::insert(leaf->data, key, value, &replaced);
    if (treap::Impl::size(next.get()) <= k_) {
      auto* fresh = new Node(next.release(), leaf->parent);
      if (try_replace(leaf, fresh)) return !replaced;
      delete fresh;  // catslint: direct-delete(never published; CAS lost)
      continue;
    }
    // Overflow: split into two leaves under a new (permanent) route node.
    treap::Ref left_half;
    treap::Ref right_half;
    Key pivot = 0;
    treap::Impl::split_evenly(next.get(), &left_half, &right_half, &pivot);
    auto* route = new Node(pivot);
    auto* lleaf = new Node(left_half.release(), route);
    auto* rleaf = new Node(right_half.release(), route);
    route->left.store(lleaf, std::memory_order_relaxed);
    route->right.store(rleaf, std::memory_order_relaxed);
    // route->parent is unused for routes; leaves carry the parent.
    if (try_replace(leaf, route)) return !replaced;
    // All three were built locally and the CAS lost: never published.
    delete lleaf;  // catslint: direct-delete(never published; CAS lost)
    delete rleaf;  // catslint: direct-delete(never published; CAS lost)
    delete route;  // catslint: direct-delete(never published; CAS lost)
  }
}

bool KaryTree::remove(Key key) {
  reclaim::Domain::Guard guard(domain_);
  while (true) {
    Node* leaf = find_leaf(key);
    bool removed = false;
    treap::Ref next = treap::Impl::remove(leaf->data, key, &removed);
    if (!removed) return false;
    auto* fresh = new Node(next.release(), leaf->parent);
    if (try_replace(leaf, fresh)) return true;
    delete fresh;  // catslint: direct-delete(never published; CAS lost)
  }
}

bool KaryTree::lookup(Key key, Value* value_out) const {
  reclaim::Domain::Guard guard(domain_);
  return treap::Impl::lookup(find_leaf(key)->data, key, value_out);
}

void KaryTree::collect(Node* n, Key lo, Key hi,
                       std::vector<Node*>& leaves) const {
  if (n->is_route) {
    if (lo < n->key) {
      collect(n->left.load(std::memory_order_acquire), lo, hi, leaves);
    }
    if (hi >= n->key) {
      collect(n->right.load(std::memory_order_acquire), lo, hi, leaves);
    }
    return;
  }
  leaves.push_back(n);
}

// Brown & Avni scan-validate: two identical consecutive collects of
// immutable leaves form a consistent snapshot (no pointer can recycle while
// we hold the epoch guard).  Retries indefinitely under interference — this
// baseline's documented weakness.
void KaryTree::range_query(Key lo, Key hi, ItemVisitor visit) const {
  reclaim::Domain::Guard guard(domain_);
  std::vector<Node*> scan1;
  std::vector<Node*> scan2;
  while (true) {
    scan1.clear();
    collect(root_.load(std::memory_order_acquire), lo, hi, scan1);
    scan2.clear();
    collect(root_.load(std::memory_order_acquire), lo, hi, scan2);
    if (scan1 == scan2) break;
    range_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  for (Node* leaf : scan1) treap::Impl::for_range(leaf->data, lo, hi, visit);
}

namespace {

std::size_t count_items(KaryTree::Node* n) {
  if (n->is_route) {
    return count_items(n->left.load(std::memory_order_acquire)) +
           count_items(n->right.load(std::memory_order_acquire));
  }
  return treap::Impl::size(n->data);
}

std::size_t count_routes(KaryTree::Node* n) {
  if (!n->is_route) return 0;
  return 1 + count_routes(n->left.load(std::memory_order_acquire)) +
         count_routes(n->right.load(std::memory_order_acquire));
}

}  // namespace

std::size_t KaryTree::size() const {
  reclaim::Domain::Guard guard(domain_);
  return count_items(root_.load(std::memory_order_acquire));
}

std::size_t KaryTree::route_node_count() const {
  reclaim::Domain::Guard guard(domain_);
  return count_routes(root_.load(std::memory_order_acquire));
}

}  // namespace cats::kary

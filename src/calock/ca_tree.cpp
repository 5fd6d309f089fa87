#include "calock/ca_tree.hpp"

#include <cassert>

#include "common/rng.hpp"

namespace cats::calock {

struct CaTree::Node {
  const bool is_route;

  // --- route fields -------------------------------------------------------
  const Key key;
  std::atomic<Node*> left{nullptr};
  std::atomic<Node*> right{nullptr};

  // --- base fields ----------------------------------------------------------
  std::mutex lock;
  std::atomic<bool> valid{true};
  int stat = 0;  // guarded by `lock`
  /// Owned reference to the immutable container; swapped under `lock`, read
  /// lock-free by lookups and (post-lock) range queries.
  std::atomic<const treap::Node*> data{nullptr};

  explicit Node(Key route_key) : is_route(true), key(route_key) {}
  explicit Node(const treap::Node* d) : is_route(false), key(0) {
    data.store(d, std::memory_order_relaxed);
  }
  ~Node() {
    const treap::Node* d = data.load(std::memory_order_relaxed);
    if (d != nullptr) treap::Impl::decref(d);
  }
};

namespace {

using Node = CaTree::Node;

// catslint: direct-delete(EBR deleter; runs after the grace period)
void node_deleter(void* p) { delete static_cast<Node*>(p); }

void release_container(reclaim::Domain& domain, const treap::Node* root) {
  if (root == nullptr) return;
  // Shared retire: after a split both halves can reuse subtrees of the old
  // root (and a join can hand an unchanged root onward), so the same
  // address may legitimately be pending retirement from several owners.
  domain.retire_shared(
      const_cast<treap::Node*>(root), +[](void* p) {
        treap::Impl::decref(static_cast<const treap::Node*>(p));
      });
}

Xoshiro256& thread_rng() {
  thread_local Xoshiro256 rng(mix64(reinterpret_cast<std::uintptr_t>(&rng)));
  return rng;
}

// catslint: quiescent(destructor-only teardown; no concurrent operations)
void destroy_rec(Node* n) {
  if (n == nullptr) return;
  if (n->is_route) {
    destroy_rec(n->left.load(std::memory_order_relaxed));
    destroy_rec(n->right.load(std::memory_order_relaxed));
  }
  delete n;  // catslint: direct-delete(quiescent teardown; tree is private)
}

}  // namespace

CaTree::CaTree(reclaim::Domain& domain, const Config& config)
    : domain_(domain), config_(config) {
  root_.store(new Node(static_cast<const treap::Node*>(nullptr)),
              std::memory_order_release);
}

// catslint: quiescent(destructor; caller guarantees no concurrent access)
CaTree::~CaTree() { destroy_rec(root_.load(std::memory_order_relaxed)); }

CaTree::Node* CaTree::find_base(Key key) const {
  Node* n = root_.load(std::memory_order_acquire);
  while (n->is_route) {
    n = (key < n->key ? n->left : n->right).load(std::memory_order_acquire);
  }
  return n;
}

CaTree::Node* CaTree::find_base_with_bound(Key key, Key* upper_bound,
                                           bool* bounded) const {
  Key bound{};
  bool has_bound = false;
  Node* n = root_.load(std::memory_order_acquire);
  while (n->is_route) {
    if (key < n->key) {
      bound = n->key;
      has_bound = true;
      n = n->left.load(std::memory_order_acquire);
    } else {
      n = n->right.load(std::memory_order_acquire);
    }
  }
  *upper_bound = bound;
  *bounded = has_bound;
  return n;
}

// Locates the parent (and grandparent) of `target` by descending with
// `hint`, a key the route nodes direct to `target`.  Caller holds
// structure_mutex_, so the route structure is frozen; `target` is valid and
// locked, hence reachable.  Returns null when target is the root.
CaTree::Node* CaTree::parent_of(Node* target, Key hint,
                                Node** gparent) const {
  Node* gp = nullptr;
  Node* prev = nullptr;
  Node* cur = root_.load(std::memory_order_acquire);
  while (cur != target) {
    assert(cur->is_route);
    gp = prev;
    prev = cur;
    cur = (hint < cur->key ? cur->left : cur->right)
              .load(std::memory_order_acquire);
  }
  if (gparent != nullptr) *gparent = gp;
  return prev;
}

bool CaTree::do_update(UpdateKind kind, Key key, Value value) {
  reclaim::Domain::Guard guard(domain_);
  while (true) {
    Node* base = find_base(key);
    bool contended = false;
    if (!base->lock.try_lock()) {
      base->lock.lock();
      contended = true;  // the statistics signal of the CA tree
    }
    if (!base->valid.load(std::memory_order_relaxed)) {
      base->lock.unlock();
      continue;  // base was split/joined away; retry from the root
    }
    const treap::Node* old = base->data.load(std::memory_order_relaxed);
    bool changed = false;
    treap::Ref next = kind == UpdateKind::kInsert
                          ? treap::Impl::insert(old, key, value, &changed)
                          : treap::Impl::remove(old, key, &changed);
    base->data.store(next.release(), std::memory_order_release);
    release_container(domain_, old);
    if (contended) {
      if (base->stat <= config_.high_cont) base->stat += config_.cont_contrib;
    } else {
      if (base->stat >= config_.low_cont) base->stat -= config_.low_cont_contrib;
    }
    adapt(base, key);
    base->lock.unlock();
    return kind == UpdateKind::kInsert ? !changed : changed;
  }
}

bool CaTree::insert(Key key, Value value) {
  return do_update(UpdateKind::kInsert, key, value);
}

bool CaTree::remove(Key key) {
  return do_update(UpdateKind::kRemove, key, Value{});
}

bool CaTree::lookup(Key key, Value* value_out) const {
  reclaim::Domain::Guard guard(domain_);
  while (true) {
    Node* base = find_base(key);
    const treap::Node* d = base->data.load(std::memory_order_acquire);
    if (!base->valid.load(std::memory_order_acquire)) continue;
    // `base` was still current when we read `d`: linearize at that read.
    return treap::Impl::lookup(d, key, value_out);
  }
}

void CaTree::range_query(Key lo, Key hi, ItemVisitor visit) const {
  auto* self = const_cast<CaTree*>(this);
  reclaim::Domain::Guard guard(domain_);

  std::vector<Node*> locked;
  std::vector<Key> cursors;  // search key that reached each locked base
  std::vector<const treap::Node*> snapshots;
  while (true) {
    locked.clear();
    cursors.clear();
    Key cursor = lo;
    bool restart = false;
    while (true) {
      Key bound{};
      bool bounded = false;
      Node* base = find_base_with_bound(cursor, &bound, &bounded);
      base->lock.lock();  // ascending key order: deadlock-free vs. ranges
      if (!base->valid.load(std::memory_order_relaxed)) {
        base->lock.unlock();
        // The tree changed under this segment.  Already-locked bases are
        // still valid (invalidation needs their lock), so only this
        // segment needs a retry — but the route that produced `bound` may
        // be gone; restart the whole collection for simplicity.
        restart = true;
        break;
      }
      locked.push_back(base);
      cursors.push_back(cursor);
      if (!bounded || bound > hi) break;
      cursor = bound;
    }
    if (!restart) break;
    for (Node* b : locked) b->lock.unlock();
  }

  // All covered bases are locked simultaneously: snapshot and release.
  snapshots.reserve(locked.size());
  for (Node* b : locked) {
    snapshots.push_back(b->data.load(std::memory_order_relaxed));
  }
  if (locked.size() > 1) {
    // Multi-base range query: steer the heuristics toward coarser leaves.
    for (Node* b : locked) {
      if (b->stat >= config_.low_cont) b->stat -= config_.range_contrib;
    }
  }
  for (Node* b : locked) b->lock.unlock();

  // Scan outside the locks — the conflict-time optimization of [22].
  for (const treap::Node* snapshot : snapshots) {
    treap::Impl::for_range(snapshot, lo, hi, visit);
  }

  // Adaptation probe on one random covered base (single lock: safe).
  if (locked.size() > 1) {
    const std::size_t pick = thread_rng().next_below(locked.size());
    Node* probe = locked[pick];
    probe->lock.lock();
    if (probe->valid.load(std::memory_order_relaxed)) {
      self->adapt(probe, cursors[pick]);
    }
    probe->lock.unlock();
  }
}

std::size_t CaTree::range_update(Key lo, Key hi,
                                 FunctionRef<Value(Key, Value)> f) {
  reclaim::Domain::Guard guard(domain_);

  // Lock every covered base in ascending key order (as range_query does).
  std::vector<Node*> locked;
  while (true) {
    locked.clear();
    Key cursor = lo;
    bool restart = false;
    while (true) {
      Key bound{};
      bool bounded = false;
      Node* base = find_base_with_bound(cursor, &bound, &bounded);
      base->lock.lock();
      if (!base->valid.load(std::memory_order_relaxed)) {
        base->lock.unlock();
        restart = true;
        break;
      }
      locked.push_back(base);
      if (!bounded || bound > hi) break;
      cursor = bound;
    }
    if (!restart) break;
    for (Node* b : locked) b->lock.unlock();
  }

  // Rebuild each container with the transformed values while holding all
  // the locks: the whole multi-base update appears atomic.
  std::size_t updated = 0;
  for (Node* base : locked) {
    const treap::Node* old = base->data.load(std::memory_order_relaxed);
    if (old == nullptr) continue;
    treap::Ref next;
    const treap::Node* old_root = old;
    treap::Impl::for_range(old_root, kKeyMin, kKeyMax, [&](Key k, Value v) {
      const Value nv = (k >= lo && k <= hi) ? f(k, v) : v;
      if (k >= lo && k <= hi) ++updated;
      next = treap::Impl::insert(next.get(), k, nv, nullptr);
    });
    base->data.store(next.release(), std::memory_order_release);
    release_container(domain_, old);
  }
  for (Node* b : locked) b->lock.unlock();
  return updated;
}

// Caller holds base->lock and base is valid.
void CaTree::adapt(Node* base, Key hint) {
  if (base->stat > config_.high_cont) {
    split(base, hint);
  } else if (base->stat < config_.low_cont) {
    join(base, hint);
  }
}

bool CaTree::split(Node* base, Key hint) {
  const treap::Node* d = base->data.load(std::memory_order_relaxed);
  if (treap::Impl::less_than_two_items(d)) return false;
  std::lock_guard<std::mutex> structure(structure_mutex_);
  Node* parent = parent_of(base, hint, nullptr);

  treap::Ref left_data;
  treap::Ref right_data;
  Key pivot = 0;
  treap::Impl::split_evenly(d, &left_data, &right_data, &pivot);
  auto* route = new Node(pivot);
  route->left.store(new Node(left_data.release()), std::memory_order_relaxed);
  route->right.store(new Node(right_data.release()),
                     std::memory_order_relaxed);

  base->valid.store(false, std::memory_order_release);
  if (parent == nullptr) {
    root_.store(route, std::memory_order_release);
  } else if (parent->left.load(std::memory_order_relaxed) == base) {
    parent->left.store(route, std::memory_order_release);
  } else {
    parent->right.store(route, std::memory_order_release);
  }
  domain_.retire(base, &node_deleter);
  splits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool CaTree::join(Node* base, Key hint) {
  std::lock_guard<std::mutex> structure(structure_mutex_);
  Node* gparent = nullptr;
  Node* parent = parent_of(base, hint, &gparent);
  if (parent == nullptr) return false;  // the root base node cannot join

  const bool left_child =
      parent->left.load(std::memory_order_relaxed) == base;
  Node* sibling =
      (left_child ? parent->right : parent->left).load(std::memory_order_relaxed);
  // Neighbor: the base adjacent to `base` inside the sibling subtree.
  Node* np = parent;
  Node* neighbor = sibling;
  while (neighbor->is_route) {
    np = neighbor;
    neighbor = (left_child ? neighbor->left : neighbor->right)
                   .load(std::memory_order_relaxed);
  }
  if (!neighbor->lock.try_lock()) {
    return false;  // avoid deadlock: abort instead
  }
  if (!neighbor->valid.load(std::memory_order_relaxed)) {
    neighbor->lock.unlock();
    return false;
  }

  const treap::Node* base_data = base->data.load(std::memory_order_relaxed);
  const treap::Node* neigh_data =
      neighbor->data.load(std::memory_order_relaxed);
  treap::Ref merged_data = left_child
                               ? treap::Impl::join(base_data, neigh_data)
                               : treap::Impl::join(neigh_data, base_data);
  auto* merged = new Node(merged_data.release());

  base->valid.store(false, std::memory_order_release);
  neighbor->valid.store(false, std::memory_order_release);

  Node* replacement;
  if (sibling == neighbor) {
    replacement = merged;
  } else {
    // Replace the neighbor inside the sibling subtree, promote the sibling.
    if (np->left.load(std::memory_order_relaxed) == neighbor) {
      np->left.store(merged, std::memory_order_release);
    } else {
      np->right.store(merged, std::memory_order_release);
    }
    replacement = sibling;
  }
  if (gparent == nullptr) {
    root_.store(replacement, std::memory_order_release);
  } else if (gparent->left.load(std::memory_order_relaxed) == parent) {
    gparent->left.store(replacement, std::memory_order_release);
  } else {
    gparent->right.store(replacement, std::memory_order_release);
  }
  domain_.retire(parent, &node_deleter);
  domain_.retire(base, &node_deleter);
  domain_.retire(neighbor, &node_deleter);
  neighbor->lock.unlock();
  joins_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool CaTree::force_split(Key hint) {
  reclaim::Domain::Guard guard(domain_);
  while (true) {
    Node* base = find_base(hint);
    base->lock.lock();
    if (!base->valid.load(std::memory_order_relaxed)) {
      base->lock.unlock();
      continue;
    }
    const bool done = split(base, hint);
    base->lock.unlock();
    return done;
  }
}

bool CaTree::force_join(Key hint) {
  reclaim::Domain::Guard guard(domain_);
  while (true) {
    Node* base = find_base(hint);
    base->lock.lock();
    if (!base->valid.load(std::memory_order_relaxed)) {
      base->lock.unlock();
      continue;
    }
    const bool done = join(base, hint);
    base->lock.unlock();
    return done;
  }
}

namespace {

std::size_t count_items(Node* n) {
  if (n->is_route) {
    return count_items(n->left.load(std::memory_order_acquire)) +
           count_items(n->right.load(std::memory_order_acquire));
  }
  return treap::Impl::size(n->data.load(std::memory_order_acquire));
}

std::size_t count_routes(Node* n) {
  if (!n->is_route) return 0;
  return 1 + count_routes(n->left.load(std::memory_order_acquire)) +
         count_routes(n->right.load(std::memory_order_acquire));
}

}  // namespace

std::size_t CaTree::size() const {
  reclaim::Domain::Guard guard(domain_);
  return count_items(root_.load(std::memory_order_acquire));
}

std::size_t CaTree::route_node_count() const {
  reclaim::Domain::Guard guard(domain_);
  return count_routes(root_.load(std::memory_order_acquire));
}

}  // namespace cats::calock

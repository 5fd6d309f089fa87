// Implementation of BasicLfcaTree.  Included only by lfca_tree.cpp, which
// explicitly instantiates the supported container policies — keep it out of
// other translation units.
//
// Function and variable names follow the paper's pseudo-code (Figs. 3-5 and
// 7); comments cite the corresponding line numbers.  Differences from the
// pseudo-code:
//
//  * Memory reclamation is explicit: the thread whose CAS unlinks a node
//    retires it through the EBR domain (the Java original relies on GC),
//    and join_main nodes carry a reference count because reachable
//    join_neighbor nodes point at them indefinitely (see node.hpp).
//  * `new_stat` with no contention info subtracts RANGE_CONTRIB for
//    multi-base range queries, following the paper's prose (§4
//    "Adaptations") rather than the pseudo-code's bare `return n->stat`,
//    which would make line 213's adaptation call a no-op for range-driven
//    joins.
//  * The §6 optimistic range query updates the statistics of one random
//    traversed base node in place (a relaxed fetch_sub) when it spanned
//    more than one base node.  The published algorithm only feeds range
//    information into the statistics when range_base nodes are later
//    replaced by updates; with the read-only fast path those nodes never
//    exist, so without this nudge a range-dominated workload would never
//    trigger joins.  Statistics are heuristic only, so the in-place update
//    cannot affect correctness.
#pragma once

#include <cassert>

#include "check/tree_check.hpp"
#include "common/catomic.hpp"
#include "common/rng.hpp"
#include "lfca/lfca_tree.hpp"
#include "lfca/scratch.hpp"
#include "obs/flight/annot.hpp"
#include "obs/registry.hpp"

namespace cats::lfca {

namespace detail {

/// Per-thread generator for the random adaptation probe (paper line 213).
inline Xoshiro256& thread_rng() {
  thread_local Xoshiro256 rng(mix64(reinterpret_cast<std::uintptr_t>(&rng)));
#if CATS_SIM_ENABLED
  // Deterministic replay: the simulator replays a scenario many times in
  // one process, but thread_local state survives across executions (and the
  // seed above depends on the TLS address, which varies run to run).
  // Re-seed from the simulated thread id whenever a new execution begins so
  // every adaptation probe is a pure function of the schedule.
  thread_local std::uint64_t seeded_generation = 0;
  if (cats::sim_thread_active()) {
    const std::uint64_t generation = cats::sim_execution_generation();
    if (seeded_generation != generation) {
      seeded_generation = generation;
      rng = Xoshiro256(cats::sim_deterministic_seed());
    }
  }
#endif
  return rng;
}

template <class C>
Node<C>* extreme_base(Node<C>* n, bool leftmost,
                      std::vector<Node<C>*>* stack) {
  while (n->type == NodeType::kRoute) {
    if (stack != nullptr) stack->push_back(n);
    n = (leftmost ? n->left : n->right).load(std::memory_order_acquire);
  }
  if (stack != nullptr) stack->push_back(n);
  return n;
}

template <class C>
// catslint: quiescent(destructor-only teardown; no concurrent operations)
void destroy_reachable(Node<C>* n) {
  if (!is_real<C>(n)) return;
  if (n->type == NodeType::kRoute) {
    destroy_reachable<C>(n->left.load(std::memory_order_relaxed));
    destroy_reachable<C>(n->right.load(std::memory_order_relaxed));
    delete n;  // catslint: direct-delete(quiescent teardown)
  } else if (n->type == NodeType::kJoinMain) {
    // Drop the tree-slot reference; a retired-but-unfreed join_neighbor may
    // still hold one, in which case its deleter frees n later.
    release_join_main<C>(n);
  } else {
    delete n;  // catslint: direct-delete(quiescent teardown)
  }
}

template <class C>
Node<C>* new_range_base(Node<C>* b, typename C::Key lo, typename C::Key hi,
                        ResultStorage<C>* storage) {
  auto* n = new Node<C>(NodeType::kRange);
  cats::sim_plain_write(n->parent, cats::sim_plain_read(b->parent));
  cats::sim_plain_write(n->data, cats::sim_plain_read(b->data));
  if (n->data != nullptr) C::incref(n->data);
  n->stat.store(b->stat.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  CATS_OBS_ONLY(heat_inherit<C>(n, b));
  cats::sim_plain_write(n->lo, lo);
  cats::sim_plain_write(n->hi, hi);
  storage->add_ref();
  cats::sim_plain_write(n->storage, storage);
  return n;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Construction / destruction.
// ---------------------------------------------------------------------------

template <class C>
BasicLfcaTree<C>::BasicLfcaTree(reclaim::Domain& domain, const Config& config)
    : domain_(domain), config_(config) {
  auto* base = new Node(NodeType::kNormal);  // empty root base node
  root_.store(base, std::memory_order_release);
}

template <class C>
// catslint: quiescent(destructor; caller guarantees no concurrent access)
BasicLfcaTree<C>::~BasicLfcaTree() {
  // Precondition: quiescent.  Joins always finish phase 2 before their
  // initiating operation returns, so no node reachable here is duplicated
  // in an uninstalled `neigh2`; unreachable (retired) nodes are freed by
  // the domain.
  detail::destroy_reachable<C>(root_.load(std::memory_order_relaxed));
}

// ---------------------------------------------------------------------------
// Help functions (paper Fig. 3, lines 54-72 and Fig. 4, lines 74-104).
// ---------------------------------------------------------------------------

// Retires an unlinked node.  A join_main node's tree-slot reference is
// dropped only after the grace period (direct in-guard holders), and the
// node itself is deleted once the join_neighbor nodes referencing it are
// gone too — see release_join_main in node.hpp.
template <class C>
void BasicLfcaTree<C>::retire(Node* n) {
  // Canary Alive -> Retired before the domain takes over: a second retire of
  // the same node (the bug class the canary exists for) fails immediately.
  CATS_CHECKED_ONLY(check::canary_mark_retired(n->check_canary, "lfca node"));
  if (n->type == NodeType::kJoinMain) {
    domain_.retire(n, &detail::join_main_unlink_deleter<C>);
  } else {
    domain_.retire(n, &detail::node_deleter<C>);
  }
}

// Paper lines 54-62.  On success the unlinked node is retired here, which
// also makes every call site's "winner frees" rule uniform.
template <class C>
bool BasicLfcaTree<C>::try_replace(Node* b, Node* new_b) {
  bool done = false;
  Node* parent = cats::sim_plain_read(b->parent);
  if (parent == nullptr) {
    Node* expected = b;
    done = root_.compare_exchange_strong(expected, new_b,
                                         std::memory_order_acq_rel);
  } else if (parent->left.load(std::memory_order_acquire) == b) {
    Node* expected = b;
    done = parent->left.compare_exchange_strong(expected, new_b,
                                                std::memory_order_acq_rel);
  } else if (parent->right.load(std::memory_order_acquire) == b) {
    Node* expected = b;
    done = parent->right.compare_exchange_strong(expected, new_b,
                                                 std::memory_order_acq_rel);
  }
  if (done) retire(b);
  return done;
}

// Paper lines 63-72.
template <class C>
bool BasicLfcaTree<C>::is_replaceable(const Node* n) {
  switch (n->type) {
    case NodeType::kNormal:
      return true;
    case NodeType::kJoinMain:
      return n->neigh2.load(std::memory_order_acquire) == Node::aborted();
    case NodeType::kJoinNeighbor: {
      Node* state =
          cats::sim_plain_read(n->main_node)
              ->neigh2.load(std::memory_order_acquire);
      return state == Node::aborted() || state == Node::done_mark();
    }
    case NodeType::kRange:
      return n->storage->result.load(std::memory_order_acquire) !=
             detail::not_set<C>();
    case NodeType::kRoute:
      break;
  }
  return false;
}

// Paper lines 74-86.
template <class C>
void BasicLfcaTree<C>::help_if_needed(Node* n) {
  if (n->type == NodeType::kJoinNeighbor) n = cats::sim_plain_read(n->main_node);
  if (n->type == NodeType::kJoinMain) {
    Node* state = n->neigh2.load(std::memory_order_acquire);
    if (state == Node::preparing()) {
      // Kill the unsecured join so our own operation can proceed.
      Node* expected = Node::preparing();
      n->neigh2.compare_exchange_strong(expected, Node::aborted(),
                                        std::memory_order_acq_rel);
    } else if (detail::is_real<C>(state)) {
      count(TreeCounter::kHelps);
      count_obs(TreeCounter::kHelpJoins);
      CATS_OBS_ONLY(n->heat_helps.fetch_add(1, std::memory_order_relaxed));
      complete_join(n);
    }
  } else if (n->type == NodeType::kRange &&
             cats::sim_plain_read(n->storage)
                     ->result.load(std::memory_order_acquire) ==
                 detail::not_set<C>()) {
    count(TreeCounter::kHelps);
    count_obs(TreeCounter::kHelpRanges);
    CATS_OBS_ONLY(n->heat_helps.fetch_add(1, std::memory_order_relaxed));
    all_in_range(cats::sim_plain_read(n->lo), cats::sim_plain_read(n->hi),
                 cats::sim_plain_read(n->storage));
  }
}

// Paper lines 87-97 (with the prose semantics for the no-info case, see the
// file comment).
template <class C>
int BasicLfcaTree<C>::new_stat(const Node* n, ContentionInfo info) const {
  int range_sub = 0;
  if (n->type == NodeType::kRange &&
      n->storage->more_than_one_base.load(std::memory_order_relaxed)) {
    range_sub = config_.range_contrib;
  }
  const int stat = n->stat.load(std::memory_order_relaxed);
  int next = stat - range_sub;
  if (info == ContentionInfo::kContended && stat <= config_.high_cont) {
    next = stat + config_.cont_contrib - range_sub;
  } else if (info == ContentionInfo::kUncontended &&
             stat >= config_.low_cont) {
    next = stat - config_.low_cont_contrib - range_sub;
  }
  // A parentless base node spans the whole key space and can never join
  // (line 269's parent check), so negative drift at the root serves no
  // adaptation: it only delays future splits.  Left unfloored, the prefill
  // phase alone sinks the root's statistics to low_cont - 1, and contention
  // then has to climb the full |low_cont| + high_cont distance before the
  // first split — on machines where conflicts are rare (few cores), that
  // masks real contention indefinitely (diagnosed via the
  // contention_events-vs-splits counters and the adaptation trace).
  if (n->parent == nullptr && next < 0) next = 0;
  return next;
}

// Paper lines 98-104.
template <class C>
void BasicLfcaTree<C>::adapt_if_needed(Node* b) {
  if (!is_replaceable(b)) return;
  const int stat = new_stat(b, ContentionInfo::kNoInfo);
  if (stat > config_.high_cont) {
    high_contention_adaptation(b);
  } else if (stat < config_.low_cont) {
    low_contention_adaptation(b);
  }
}

// ---------------------------------------------------------------------------
// Single-item operations (paper Fig. 4, lines 106-138).
// ---------------------------------------------------------------------------

template <class C>
typename BasicLfcaTree<C>::Node* BasicLfcaTree<C>::find_base_node(
    Key key) const {
  Node* n = root_.load(std::memory_order_acquire);
  while (n->type == NodeType::kRoute) {
    n = (Compare{}(key, cats::sim_plain_read(n->key)) ? n->left : n->right)
            .load(std::memory_order_acquire);
  }
  return n;
}

template <class C>
bool BasicLfcaTree<C>::do_update(UpdateKind kind, Key key, Value value) {
  reclaim::Domain::Guard guard(domain_);
  ContentionInfo info = ContentionInfo::kUncontended;
#if CATS_OBS_ENABLED
  // Heatmap carry: a lost CAS means `base` was just replaced, so charging
  // the failure to it would write to a retired node and lose the tally.
  // Accumulate locally and charge the next base found on retry — it is live
  // (we just loaded it) and covers the same key.
  std::uint64_t pending_cas_fails = 0;
#endif
  while (true) {
    Node* base = find_base_node(key);
#if CATS_OBS_ENABLED
    if (pending_cas_fails != 0) {
      base->heat_cas_fails.fetch_add(pending_cas_fails,
                                     std::memory_order_relaxed);
      pending_cas_fails = 0;
    }
#endif
    if (is_replaceable(base)) {
      bool changed = false;
      typename C::Ref new_data =
          kind == UpdateKind::kInsert
              ? C::insert(cats::sim_plain_read(base->data), key, value,
                          &changed)
              : C::remove(cats::sim_plain_read(base->data), key, &changed);
      // `changed` means replaced-an-existing-item for insert and
      // removed-an-item for remove.
      auto* newb = new Node(NodeType::kNormal);
      cats::sim_plain_write(newb->parent, cats::sim_plain_read(base->parent));
      cats::sim_plain_write(newb->data, new_data.release());
      newb->stat.store(new_stat(base, info), std::memory_order_relaxed);
      CATS_OBS_ONLY(detail::heat_inherit<C>(newb, base));
      if (try_replace(base, newb)) {
        adapt_if_needed(newb);
        return kind == UpdateKind::kInsert ? !changed : changed;
      }
      delete newb;  // catslint: direct-delete(never published; CAS lost)
      count_obs(TreeCounter::kUpdateCasFails);
      CATS_OBS_ONLY({
        ++pending_cas_fails;
        obs::flight::note_cas_fail();
      });
    } else {
      count_obs(TreeCounter::kUpdateBlockedRetries);
    }
    info = ContentionInfo::kContended;
    // Feed the conflict into the current base node's statistics at event
    // time (in place, bounded by high_cont like line 92's guard).  The
    // pseudo-code records contention only in the replacement node of the
    // final successful attempt, which collapses any number of lost rounds
    // into a single cont_contrib and discards the evidence entirely when
    // the losing thread moves on — under bursty conflicts (e.g. a
    // preempted range query holding its span irreplaceable) the surviving
    // single contribution is cancelled by the uncontended decrements that
    // follow, and the split threshold is never reached.  In-place
    // statistics updates cannot affect correctness (see the file comment on
    // the §6 nudge); if `base` was already unlinked by the winning thread
    // the write lands on a retired node and is simply lost, which matches
    // the pseudo-code's behaviour.
    if (base->stat.load(std::memory_order_relaxed) <= config_.high_cont) {
      base->stat.fetch_add(config_.cont_contrib, std::memory_order_relaxed);
      count_obs(TreeCounter::kContentionEvents);
    }
    help_if_needed(base);
  }
}

template <class C>
bool BasicLfcaTree<C>::insert(Key key, Value value) {
  return do_update(UpdateKind::kInsert, key, value);
}

template <class C>
bool BasicLfcaTree<C>::remove(Key key) {
  return do_update(UpdateKind::kRemove, key, Value{});
}

template <class C>
bool BasicLfcaTree<C>::lookup(Key key, Value* value_out) const {
  reclaim::Domain::Guard guard(domain_);
  Node* base = find_base_node(key);
  return C::lookup(cats::sim_plain_read(base->data), key, value_out);
}

// ---------------------------------------------------------------------------
// Adaptations (paper Fig. 7).
// ---------------------------------------------------------------------------

// Paper lines 277-287.
template <class C>
bool BasicLfcaTree<C>::high_contention_adaptation(Node* b) {
  count_obs(TreeCounter::kSplitAttempts);
  const typename C::Node* b_data = cats::sim_plain_read(b->data);
  if (C::less_than_two_items(b_data)) {
    count_obs(TreeCounter::kSplitRefusedSmall);
    return false;
  }
  [[maybe_unused]] const int stat = b->stat.load(std::memory_order_relaxed);
  typename C::Ref left_data;
  typename C::Ref right_data;
  Key split_key{};
  C::split_evenly(b_data, &left_data, &right_data, &split_key);

  auto* r = new Node(NodeType::kRoute);
  cats::sim_plain_write(r->key, split_key);
  auto* lb = new Node(NodeType::kNormal);
  cats::sim_plain_write(lb->parent, r);
  cats::sim_plain_write(lb->data, left_data.release());
  auto* rb = new Node(NodeType::kNormal);
  cats::sim_plain_write(rb->parent, r);
  cats::sim_plain_write(rb->data, right_data.release());
  r->left.store(lb, std::memory_order_relaxed);
  r->right.store(rb, std::memory_order_relaxed);
#if CATS_OBS_ENABLED
  // Split the heat tallies between the halves so the heatmap's totals are
  // conserved across the adaptation (half each; odd remainder to the right).
  {
    const std::uint64_t cf = b->heat_cas_fails.load(std::memory_order_relaxed);
    const std::uint64_t hp = b->heat_helps.load(std::memory_order_relaxed);
    lb->heat_cas_fails.store(cf / 2, std::memory_order_relaxed);
    rb->heat_cas_fails.store(cf - cf / 2, std::memory_order_relaxed);
    lb->heat_helps.store(hp / 2, std::memory_order_relaxed);
    rb->heat_helps.store(hp - hp / 2, std::memory_order_relaxed);
  }
#endif

  if (try_replace(b, r)) {
    count(TreeCounter::kSplits);
    CATS_OBS_ONLY({
      obs::record(obs::GHistogram::kSplitLeafItems, C::size(b->data));
      obs::trace_adapt(obs::AdaptKind::kSplit, depth_of(split_key), stat);
    });
    return true;
  }
  delete lb;  // catslint: direct-delete(never published; split CAS lost)
  delete rb;  // catslint: direct-delete(never published; split CAS lost)
  delete r;   // catslint: direct-delete(never published; split CAS lost)
  count_obs(TreeCounter::kSplitFailedCas);
  CATS_OBS_ONLY(
      obs::trace_adapt(obs::AdaptKind::kSplitFailed, depth_of(split_key),
                       stat));
  return false;
}

// Paper lines 268-276.
template <class C>
bool BasicLfcaTree<C>::low_contention_adaptation(Node* b) {
  Node* parent = cats::sim_plain_read(b->parent);
  if (parent == nullptr) return false;
  count_obs(TreeCounter::kJoinAttempts);
  [[maybe_unused]] const int stat = b->stat.load(std::memory_order_relaxed);
  [[maybe_unused]] const Key probe = cats::sim_plain_read(parent->key);
  Node* m = nullptr;
  if (parent->left.load(std::memory_order_acquire) == b) {
    m = secure_join(b, /*left_child=*/true);
  } else if (parent->right.load(std::memory_order_acquire) == b) {
    m = secure_join(b, /*left_child=*/false);
  }
  if (m != nullptr) {
    complete_join(m);
    count(TreeCounter::kJoins);
    CATS_OBS_ONLY(
        obs::trace_adapt(obs::AdaptKind::kJoin, depth_of(probe), stat));
    return true;
  }
  count(TreeCounter::kAbortedJoins);
  CATS_OBS_ONLY(
      obs::trace_adapt(obs::AdaptKind::kJoinAborted, depth_of(probe), stat));
  return false;
}

template <class C>
bool BasicLfcaTree<C>::force_split(Key hint) {
  reclaim::Domain::Guard guard(domain_);
  Node* base = find_base_node(hint);
  if (!is_replaceable(base)) return false;
  return high_contention_adaptation(base);
}

template <class C>
bool BasicLfcaTree<C>::force_join(Key hint) {
  reclaim::Domain::Guard guard(domain_);
  Node* base = find_base_node(hint);
  if (!is_replaceable(base)) return false;
  return low_contention_adaptation(base);
}

// Paper lines 216-250 (secure_join_left; the right-child case is the mirror
// image, folded in via `left_child`).
template <class C>
typename BasicLfcaTree<C>::Node* BasicLfcaTree<C>::secure_join(
    Node* b, bool left_child) {
  Node* parent = cats::sim_plain_read(b->parent);
  // Line 217: the neighbor is the leaf closest to b on the other side of
  // its parent.
  Node* n0 =
      left_child
          ? detail::extreme_base<C>(
                parent->right.load(std::memory_order_acquire),
                /*leftmost=*/true, nullptr)
          : detail::extreme_base<C>(
                parent->left.load(std::memory_order_acquire),
                /*leftmost=*/false, nullptr);
  if (!is_replaceable(n0)) return nullptr;  // line 218

  // Lines 219-222: replace b with the join_main node m.
  auto* m = new Node(NodeType::kJoinMain);
  cats::sim_plain_write(m->parent, parent);
  cats::sim_plain_write(m->data, cats::sim_plain_read(b->data));
  if (m->data != nullptr) C::incref(m->data);
  m->stat.store(b->stat.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  CATS_OBS_ONLY(detail::heat_inherit<C>(m, b));
  m->neigh2.store(Node::preparing(), std::memory_order_relaxed);
  {
    auto& slot = left_child ? parent->left : parent->right;
    Node* expected = b;
    if (!slot.compare_exchange_strong(expected, m,
                                      std::memory_order_acq_rel)) {
      delete m;  // catslint: direct-delete(never published; CAS lost)
      return nullptr;
    }
    retire(b);
  }

  // Lines 223-227: replace the neighbor n0 with the join_neighbor node n1.
  auto* n1 = new Node(NodeType::kJoinNeighbor);
  cats::sim_plain_write(n1->parent, cats::sim_plain_read(n0->parent));
  cats::sim_plain_write(n1->data, cats::sim_plain_read(n0->data));
  if (n1->data != nullptr) C::incref(n1->data);
  n1->stat.store(n0->stat.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  CATS_OBS_ONLY(detail::heat_inherit<C>(n1, n0));
  cats::sim_plain_write(n1->main_node, m);
  m->main_refs.fetch_add(1, std::memory_order_relaxed);  // held by n1
  if (!try_replace(n0, n1)) {
    delete n1;  // catslint: direct-delete(never published; CAS lost)
    m->neigh2.store(Node::aborted(), std::memory_order_release);  // fail0
    return nullptr;
  }

  // Lines 228-229: mark the parent with the unique join id m.
  {
    Node* expected = nullptr;
    if (!parent->join_id.compare_exchange_strong(
            expected, m, std::memory_order_acq_rel)) {
      m->neigh2.store(Node::aborted(), std::memory_order_release);  // fail0
      return nullptr;
    }
  }

  // Lines 230-233: find and mark the grandparent.
  Node* gparent = parent_of(parent);
  if (gparent == Node::not_found()) {
    parent->join_id.store(nullptr, std::memory_order_release);      // fail1
    m->neigh2.store(Node::aborted(), std::memory_order_release);    // fail0
    return nullptr;
  }
  if (gparent != nullptr) {
    Node* expected = nullptr;
    if (!gparent->join_id.compare_exchange_strong(
            expected, m, std::memory_order_acq_rel)) {
      parent->join_id.store(nullptr, std::memory_order_release);    // fail1
      m->neigh2.store(Node::aborted(), std::memory_order_release);  // fail0
      return nullptr;
    }
  }

  // Lines 234-236.  m is already reachable, but helpers read these three
  // fields only after observing neigh2 != preparing(), and the neigh2
  // store below line 243 is the release edge that publishes them.
  // catslint: pre-publish(read only after neigh2's release store; neigh2 is still preparing())
  cats::sim_plain_write(m->gparent, gparent);
  Node* otherb = (left_child ? parent->right : parent->left)
                     .load(std::memory_order_acquire);
  // catslint: pre-publish(read only after neigh2's release store; neigh2 is still preparing())
  cats::sim_plain_write(m->otherb, otherb);
  // catslint: pre-publish(read only after neigh2's release store; neigh2 is still preparing())
  cats::sim_plain_write(m->neigh1, n1);

  // Lines 237-243: build the joined base node n2 and attempt to secure the
  // join by publishing it in m->neigh2.
  Node* joinedp = otherb == n1 ? gparent : cats::sim_plain_read(n1->parent);
  auto* n2 = new Node(NodeType::kJoinNeighbor);
  cats::sim_plain_write(n2->parent, joinedp);
  cats::sim_plain_write(n2->main_node, m);
  m->main_refs.fetch_add(1, std::memory_order_relaxed);  // held by n2
  cats::sim_plain_write(
      n2->data, (left_child ? C::join(m->data, cats::sim_plain_read(n1->data))
                            : C::join(cats::sim_plain_read(n1->data), m->data))
                    .release());
#if CATS_OBS_ENABLED
  // The joined base covers both intervals: its heat is the sum.
  n2->heat_cas_fails.store(
      m->heat_cas_fails.load(std::memory_order_relaxed) +
          n1->heat_cas_fails.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  n2->heat_helps.store(m->heat_helps.load(std::memory_order_relaxed) +
                           n1->heat_helps.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
#endif
  {
    Node* expected = Node::preparing();
    if (m->neigh2.compare_exchange_strong(expected, n2,
                                          std::memory_order_acq_rel)) {
      return m;
    }
  }

  // Lines 245-248: another thread aborted the join; roll back the marks.
  // catslint: direct-delete(never published; releases main_refs reference)
  delete n2;
  if (gparent != nullptr) {
    gparent->join_id.store(nullptr, std::memory_order_release);
  }
  parent->join_id.store(nullptr, std::memory_order_release);    // fail1
  m->neigh2.store(Node::aborted(), std::memory_order_release);  // fail0
  return nullptr;
}

// Paper lines 251-267.  May be executed concurrently by several threads for
// the same m; every step is idempotent or guarded by a CAS whose winner
// retires the unlinked nodes.
template <class C>
void BasicLfcaTree<C>::complete_join(Node* m) {
  Node* n2 = m->neigh2.load(std::memory_order_acquire);
  if (n2 == Node::done_mark()) return;
  assert(detail::is_real<C>(n2));
  // The plain fields below were published by neigh2's release store (the
  // pre-publish protocol secured above); each is immutable afterwards, so a
  // helper may cache them in locals.  The sim_plain_read hooks let the
  // simulator's race detector verify exactly that pairing.
  Node* neigh1 = cats::sim_plain_read(m->neigh1);
  Node* parent = cats::sim_plain_read(m->parent);
  Node* gparent = cats::sim_plain_read(m->gparent);
  Node* otherb = cats::sim_plain_read(m->otherb);
  try_replace(neigh1, n2);                              // line 254
  parent->valid.store(false, std::memory_order_release);  // line 255
  Node* replacement = otherb == neigh1 ? n2 : otherb;
  if (gparent == nullptr) {
    Node* expected = parent;
    if (root_.compare_exchange_strong(expected, replacement,
                                      std::memory_order_acq_rel)) {
      retire(parent);
      retire(m);
    }
  } else if (gparent->left.load(std::memory_order_acquire) == parent) {
    Node* expected = parent;
    if (gparent->left.compare_exchange_strong(expected, replacement,
                                              std::memory_order_acq_rel)) {
      retire(parent);
      retire(m);
    }
    Node* expected_id = m;
    gparent->join_id.compare_exchange_strong(expected_id, nullptr,
                                             std::memory_order_acq_rel);
  } else if (gparent->right.load(std::memory_order_acquire) == parent) {
    Node* expected = parent;
    if (gparent->right.compare_exchange_strong(expected, replacement,
                                               std::memory_order_acq_rel)) {
      retire(parent);
      retire(m);
    }
    Node* expected_id = m;
    gparent->join_id.compare_exchange_strong(expected_id, nullptr,
                                             std::memory_order_acq_rel);
  }
  m->neigh2.store(Node::done_mark(), std::memory_order_release);  // line 266
}

// Finds the parent of route node r by searching from the root (the paper's
// parent_of).  Returns null when r is the root and not_found() when r is no
// longer reachable.
//
// Liveness audit (this PR): not_found() is terminal for the join attempt,
// never retried against the same node.  The only caller is secure_join,
// which aborts the join (fail1/fail0 stores) on not_found(); its own caller
// low_contention_adaptation makes at most two secure_join attempts (left
// then right neighbor) and returns.  A route node invalidated by a helped
// join therefore costs the next adaptation one aborted attempt — the next
// operation re-descends from the root and reaches only live route nodes, so
// no loop can spin on a permanently-invalid parent.  The join-after-join
// test in lfca_test.cpp pins this down deterministically.
template <class C>
typename BasicLfcaTree<C>::Node* BasicLfcaTree<C>::parent_of(Node* r) const {
  Node* prev = nullptr;
  Node* cur = root_.load(std::memory_order_acquire);
  while (cur != r && cur->type == NodeType::kRoute) {
    prev = cur;
    cur = (Compare{}(cats::sim_plain_read(r->key),
                     cats::sim_plain_read(cur->key))
               ? cur->left
               : cur->right)
              .load(std::memory_order_acquire);
  }
  return cur == r ? prev : Node::not_found();
}

// ---------------------------------------------------------------------------
// Range queries (paper Fig. 5 and §6).
// ---------------------------------------------------------------------------

template <class C>
typename BasicLfcaTree<C>::Node* BasicLfcaTree<C>::find_base_stack(
    Key key, std::vector<Node*>& stack) const {
  Node* n = root_.load(std::memory_order_acquire);
  while (n->type == NodeType::kRoute) {
    stack.push_back(n);
    n = (Compare{}(key, cats::sim_plain_read(n->key)) ? n->left : n->right)
            .load(std::memory_order_acquire);
  }
  stack.push_back(n);
  return n;
}

template <class C>
typename BasicLfcaTree<C>::Node* BasicLfcaTree<C>::leftmost_and_stack(
    Node* n, std::vector<Node*>& stack) {
  return detail::extreme_base<C>(n, /*leftmost=*/true, &stack);
}

// Paper lines 144-157.
template <class C>
typename BasicLfcaTree<C>::Node* BasicLfcaTree<C>::find_next_base_stack(
    std::vector<Node*>& stack) {
  Node* base = stack.back();
  stack.pop_back();
  if (stack.empty()) return nullptr;
  Node* t = stack.back();
  if (t->left.load(std::memory_order_acquire) == base) {
    return leftmost_and_stack(t->right.load(std::memory_order_acquire),
                              stack);
  }
  const Key be_greater_than = t->key;
  while (!stack.empty()) {
    t = stack.back();
    if (t->valid.load(std::memory_order_acquire) &&
        Compare{}(be_greater_than, t->key)) {
      return leftmost_and_stack(t->right.load(std::memory_order_acquire),
                                stack);
    }
    stack.pop_back();
  }
  return nullptr;
}

template <class C>
void BasicLfcaTree<C>::count_range_query(std::size_t bases_traversed) const {
  count(TreeCounter::kRangeQueries);
  count(TreeCounter::kRangeBasesTraversed, bases_traversed);
  CATS_OBS_ONLY(obs::record(obs::GHistogram::kRangeBasesTraversed,
                            bases_traversed));
}

// Paper lines 161-215.  Must be called inside an epoch guard; the returned
// container pointer stays valid until the guard is released.
template <class C>
const typename C::Node* BasicLfcaTree<C>::all_in_range(
    Key lo, Key hi, ResultStorage* help_s) {
  // Thread-local scratch (scratch.hpp): the lease is recursion-safe, which
  // matters because the help-wider-query path below re-enters all_in_range.
  detail::ScratchLease<C> scratch;
  std::vector<Node*>& stack = scratch->stack;
  std::vector<Node*>& backup = scratch->backup;
  std::vector<Node*>& done = scratch->done;
  ResultStorage* my_s = nullptr;
  Node* b = nullptr;
#if CATS_OBS_ENABLED
  // Heatmap carry, same scheme as do_update: charge a lost CAS to the next
  // live base found on retry, never to the already-replaced loser.
  std::uint64_t pending_cas_fails = 0;
  const auto settle_heat = [&](Node* live) {
    if (pending_cas_fails != 0) {
      live->heat_cas_fails.fetch_add(pending_cas_fails,
                                     std::memory_order_relaxed);
      pending_cas_fails = 0;
    }
  };
#endif

  // find_first (lines 168-183).
  while (true) {
    stack.clear();
    b = find_base_stack(lo, stack);
    CATS_OBS_ONLY(settle_heat(b));
    if (testing_range_step_hook) testing_range_step_hook(0);
    if (help_s != nullptr) {
      if (b->type != NodeType::kRange ||
          cats::sim_plain_read(b->storage) != help_s) {
        // The helped query has linearized (its first base node would still
        // be irreplaceable otherwise); its result is available.
        return help_s->result.load(std::memory_order_acquire);
      }
      my_s = help_s;
      break;
    }
    if (is_replaceable(b)) {
      if (my_s == nullptr) my_s = new ResultStorage();  // reused on retry
      Node* n = detail::new_range_base<C>(b, lo, hi, my_s);
      if (!try_replace(b, n)) {
        delete n;  // catslint: direct-delete(never published; CAS lost)
        count_obs(TreeCounter::kRangeCasFails);
        CATS_OBS_ONLY({
          ++pending_cas_fails;
          obs::flight::note_cas_fail();
        });
        continue;  // goto find_first
      }
      stack.back() = n;  // replace_top
      b = n;
      break;
    }
    if (b->type == NodeType::kRange &&
        !Compare{}(cats::sim_plain_read(b->hi), hi)) {
      // A wider in-flight range query covers ours: help it and use its
      // result (line 179).  Ownership audit: my_s can only be non-null here
      // after a lost CAS above, whose `delete n` already dropped the
      // reference the marker held, so the creation reference released here
      // is the last one and the storage is freed — never leaked, never
      // double-released.
      if (my_s != nullptr) my_s->release();  // ours was never installed
      return all_in_range(cats::sim_plain_read(b->lo),
                          cats::sim_plain_read(b->hi),
                          cats::sim_plain_read(b->storage));
    }
    help_if_needed(b);
  }

  // Find the remaining base nodes (lines 184-207).
  //
  // Retry bookkeeping, audited for this PR: find_next_base_stack consumes
  // `stack` destructively (it pops at least the current base), so `backup`
  // preserves the pre-advance stack.  Both not-advanced exits of the inner
  // loop — the lost CAS and the help_if_needed detour — restore it with
  // `stack = backup` before retrying, and the copy is taken again after
  // every successful advance.  The copy is NOT dead, and dropping either
  // restore would make the retry resume from a half-popped stack and skip
  // base nodes.  The regression tests in lfca_test.cpp drive each of these
  // paths deterministically through testing_range_step_hook.
  while (true) {
    done.push_back(b);
    backup = stack;
    {
      const typename C::Node* d = cats::sim_plain_read(b->data);
      if (!C::empty(d) && !Compare{}(C::max_key(d), hi)) break;
    }
    bool advanced = false;
    while (!advanced) {
      b = find_next_base_stack(stack);
      if (b == nullptr) break;
      CATS_OBS_ONLY(settle_heat(b));
      if (testing_range_step_hook) testing_range_step_hook(1);
      const typename C::Node* result =
          my_s->result.load(std::memory_order_acquire);
      if (result != detail::not_set<C>()) {
        if (help_s == nullptr) my_s->release();
        return result;
      }
      if (b->type == NodeType::kRange &&
          cats::sim_plain_read(b->storage) == my_s) {
        advanced = true;  // replaced by a concurrent helper of this query
      } else if (is_replaceable(b)) {
        Node* n = detail::new_range_base<C>(b, lo, hi, my_s);
        if (try_replace(b, n)) {
          stack.back() = n;  // replace_top
          b = n;
          advanced = true;
        } else {
          delete n;  // catslint: direct-delete(never published; CAS lost)
          count_obs(TreeCounter::kRangeCasFails);
          CATS_OBS_ONLY({
            ++pending_cas_fails;
            obs::flight::note_cas_fail();
          });
          stack = backup;
        }
      } else {
        help_if_needed(b);
        stack = backup;
      }
    }
    if (b == nullptr) break;
  }

  // Collect and publish the result (lines 208-214).
  typename C::Ref result;
  for (std::size_t i = 0; i < done.size(); ++i) {
    const typename C::Node* d = cats::sim_plain_read(done[i]->data);
    if (i == 0) {
      if (d != nullptr) C::incref(d);
      result = C::Ref::adopt(d);
    } else {
      result = C::join(result.get(), d);
    }
  }
  const typename C::Node* raw = result.get();
  const typename C::Node* expected = detail::not_set<C>();
  if (my_s->result.compare_exchange_strong(expected, raw,
                                           std::memory_order_acq_rel)) {
    result.release();  // ownership moved into the storage
    if (done.size() > 1) {
      // catslint: pairing(monotonic hint flag; new_stat reads it relaxed on purpose — it only biases the contention statistic, never guards data)
      my_s->more_than_one_base.store(true, std::memory_order_release);
    }
    count_range_query(done.size());
  }
  adapt_if_needed(
      done[detail::thread_rng().next_below(done.size())]);  // line 213
  const typename C::Node* out = my_s->result.load(std::memory_order_acquire);
  if (help_s == nullptr) my_s->release();
  return out;
}

// §6: read-only double-collect attempt.  Fills `bases` with the sequence of
// base nodes covering [lo, hi] and returns false if any of them is
// irreplaceable (an in-flight range query or join could otherwise leak a
// partially applied state into the snapshot).
template <class C>
bool BasicLfcaTree<C>::try_optimistic_collect(
    Key lo, Key hi, std::vector<Node*>& bases) const {
  detail::ScratchLease<C> scratch;  // nested under range_query's own lease
  std::vector<Node*>& stack = scratch->stack;
  Node* b = find_base_stack(lo, stack);
  while (true) {
    if (!is_replaceable(b)) return false;
    bases.push_back(b);
    if (!C::empty(b->data) && !Compare{}(C::max_key(b->data), hi)) {
      return true;
    }
    b = find_next_base_stack(stack);
    if (b == nullptr) return true;
  }
}

template <class C>
void BasicLfcaTree<C>::range_query(Key lo, Key hi, ItemVisitor visit) const {
  auto* self = const_cast<BasicLfcaTree*>(this);
  reclaim::Domain::Guard guard(domain_);

  if (config_.optimistic_ranges) {
    detail::ScratchLease<C> scratch;
    std::vector<Node*>& scan1 = scratch->scan1;
    std::vector<Node*>& scan2 = scratch->scan2;
    if (try_optimistic_collect(lo, hi, scan1) &&
        try_optimistic_collect(lo, hi, scan2) && scan1 == scan2) {
      // Identical consecutive collects of immutable-content nodes: some
      // instant between the scans had all of them installed at once (no
      // pointer can recycle inside our guard), so this is a linearizable
      // snapshot.  See Brown & Avni [4] for the proof of this scheme.
      std::size_t base_count = 0;
      for (Node* n : scan1) {
        C::for_range(n->data, lo, hi, visit);
        ++base_count;
      }
      count(TreeCounter::kOptimisticRanges);
      count_range_query(base_count);
      if (base_count > 1) {
        // Feed the multi-base observation into the heuristics (see the file
        // comment); the writing path does this via new_stat on replacement.
        Node* probe = scan1[detail::thread_rng().next_below(scan1.size())];
        probe->stat.fetch_sub(config_.range_contrib,
                              std::memory_order_relaxed);
        self->adapt_if_needed(probe);
      }
      return;
    }
    count(TreeCounter::kFallbackRanges);
  }

  const typename C::Node* result = self->all_in_range(lo, hi, nullptr);
  assert(result != detail::not_set<C>());
  C::for_range(result, lo, hi, visit);
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

namespace detail {

template <class C>
std::size_t count_items(Node<C>* n) {
  if (n->type == NodeType::kRoute) {
    return count_items<C>(n->left.load(std::memory_order_acquire)) +
           count_items<C>(n->right.load(std::memory_order_acquire));
  }
  return C::size(n->data);
}

template <class C>
std::size_t count_routes(Node<C>* n) {
  if (n->type != NodeType::kRoute) return 0;
  return 1 + count_routes<C>(n->left.load(std::memory_order_acquire)) +
         count_routes<C>(n->right.load(std::memory_order_acquire));
}

/// Topology walk (see BasicLfcaTree::collect_topology).  Must run inside an
/// EBR guard: child pointers are acquire-loaded, so every node reached was
/// published before we saw it, its immutable fields (type, data, parent)
/// are complete, and the guard keeps even concurrently-unlinked nodes
/// allocated until we are done.  The only mutable fields read are atomics
/// (valid, join_id, stat), so the walk is race-free by construction.
template <class C>
void topology_walk(Node<C>* n, std::uint32_t route_depth, typename C::Key lo,
                   obs::TopologySnapshot& out) {
  if (n->type == NodeType::kRoute) {
    ++out.route_nodes;
    if (!n->valid.load(std::memory_order_acquire)) ++out.invalid_routes;
    if (n->join_id.load(std::memory_order_acquire) != nullptr) {
      ++out.marked_routes;
    }
    topology_walk<C>(n->left.load(std::memory_order_acquire),
                     route_depth + 1, lo, out);
    topology_walk<C>(n->right.load(std::memory_order_acquire),
                     route_depth + 1, n->key, out);
    return;
  }
  ++out.base_nodes;
  switch (n->type) {
    case NodeType::kNormal: ++out.normal_bases; break;
    case NodeType::kJoinMain:
    case NodeType::kJoinNeighbor: ++out.joining_bases; break;
    case NodeType::kRange: ++out.range_bases; break;
    case NodeType::kRoute: break;  // unreachable
  }
  out.depth.add(route_depth);
  if (route_depth > out.max_depth) out.max_depth = route_depth;
  const std::size_t occupancy = C::size(n->data);
  out.items += occupancy;
  out.occupancy.add(occupancy);
  const std::int64_t stat = n->stat.load(std::memory_order_relaxed);
  if (out.base_nodes == 1 || stat < out.stat_min) out.stat_min = stat;
  if (out.base_nodes == 1 || stat > out.stat_max) out.stat_max = stat;
  out.stat_abs.add(static_cast<std::uint64_t>(stat < 0 ? -stat : stat));
#if CATS_OBS_ENABLED
  // Contention heatmap sample: the base's key interval starts at the key of
  // the nearest ancestor whose right subtree contains it (KeyTraits min()
  // for the leftmost path), which identifies the region spatially across
  // snapshots even as the node pointers churn.
  obs::BaseHeat heat;
  heat.depth = route_depth;
  heat.key_lo = KeyTraits<typename C::Key>::heat_coord(lo);
  heat.key_label = KeyTraits<typename C::Key>::format(lo);
  heat.cas_fails = n->heat_cas_fails.load(std::memory_order_relaxed);
  heat.helps = n->heat_helps.load(std::memory_order_relaxed);
  heat.items = occupancy;
  heat.stat = stat;
  out.add_base_heat(heat);
#endif
}

}  // namespace detail

template <class C>
std::size_t BasicLfcaTree<C>::size() const {
  reclaim::Domain::Guard guard(domain_);
  return detail::count_items<C>(root_.load(std::memory_order_acquire));
}

template <class C>
std::size_t BasicLfcaTree<C>::route_node_count() const {
  reclaim::Domain::Guard guard(domain_);
  return detail::count_routes<C>(root_.load(std::memory_order_acquire));
}

template <class C>
bool BasicLfcaTree<C>::check_integrity() const {
  return validate(nullptr, /*expect_quiescent=*/true);
}

template <class C>
bool BasicLfcaTree<C>::validate(std::string* diagnostics,
                                bool expect_quiescent) const {
  reclaim::Domain::Guard guard(domain_);
  check::Report report;
  const bool ok = check::validate_tree<C>(
      root_.load(std::memory_order_acquire),
      expect_quiescent ? check::TreeValidateMode::kQuiescent
                       : check::TreeValidateMode::kConcurrent,
      &report);
  if (diagnostics != nullptr) *diagnostics = report.text();
  return ok;
}

template <class C>
obs::TopologySnapshot BasicLfcaTree<C>::collect_topology() const {
  obs::TopologySnapshot out;
  reclaim::Domain::Guard guard(domain_);
  detail::topology_walk<C>(root_.load(std::memory_order_acquire), 0,
                           KeyTraits<Key>::min(), out);
  return out;
}

template <class C>
std::uint32_t BasicLfcaTree<C>::depth_of(Key key) const {
  std::uint32_t depth = 0;
  Node* n = root_.load(std::memory_order_acquire);
  while (n->type == NodeType::kRoute) {
    ++depth;
    n = (Compare{}(key, n->key) ? n->left : n->right)
            .load(std::memory_order_acquire);
  }
  return depth;
}

template <class C>
Stats BasicLfcaTree<C>::stats() const {
  Stats s;
  for (std::size_t i = 0; i < std::size(kTreeCounterFields); ++i) {
    s.*kTreeCounterFields[i].field = counters_.read(i);
  }
  return s;
}

template <class C>
void BasicLfcaTree<C>::reset_stats() {
  counters_.reset();
}

}  // namespace cats::lfca

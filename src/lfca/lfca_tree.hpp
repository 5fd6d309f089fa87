// BasicLfcaTree — the lock-free contention adapting search tree.
//
// The primary data structure of Winblad, Sagonas & Jonsson, "Lock-free
// Contention Adapting Search Trees" (SPAA 2018).  An ordered key-value map
// with:
//
//   * wait-free lookup,
//   * lock-free insert, remove and linearizable range query,
//   * runtime adaptation of synchronization granularity: base nodes split
//     under contention and join when contention is low or range queries
//     repeatedly span several base nodes.
//
// Internally, route nodes form a binary search tree whose leaves (base
// nodes) hold immutable containers supplied by the policy `C` — the paper's
// "Flexible" property (container_policy.hpp provides the paper's fat-leaf
// treap and a flat-array alternative).  Updates replace a base node with
// CAS; range queries replace every base node in their span with
// `range_base` markers that other threads can help complete (or first try
// a read-only double-collect scan, §6).  Unlinked nodes are reclaimed
// through epoch-based reclamation (src/reclaim).
//
// `LfcaTree` is the paper's configuration (treap containers).
//
// Thread safety: all public member functions may be called concurrently
// from any number of threads.  Item visitors run inside an epoch critical
// section and must not call back into functions that block.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/catomic.hpp"
#include "common/function_ref.hpp"
#include "common/padded.hpp"
#include "common/types.hpp"
#include "lfca/config.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "obs/topology.hpp"
#include "lfca/container_policy.hpp"
#include "lfca/node.hpp"
#include "lfca/stats.hpp"
#include "reclaim/ebr.hpp"

namespace cats::lfca {

template <class C>
class BasicLfcaTree {
 public:
  using Container = C;
  /// Key/value/comparator types come from the container policy; the
  /// class-scope names shadow the global integer-key aliases so the whole
  /// implementation below reads unchanged for any instantiation.
  using Key = typename C::Key;
  using Value = typename C::Value;
  using Compare = typename C::Compare;
  using ItemVisitor = BasicItemVisitor<Key, Value>;

  explicit BasicLfcaTree(reclaim::Domain& domain = reclaim::Domain::global(),
                         const Config& config = Config());
  ~BasicLfcaTree();

  BasicLfcaTree(const BasicLfcaTree&) = delete;
  BasicLfcaTree& operator=(const BasicLfcaTree&) = delete;

  /// Inserts (key, value), replacing the value if the key exists.
  /// Returns true iff the key was not present before (lock-free).
  bool insert(Key key, Value value);

  /// Removes the item with `key` if present; returns true iff it was
  /// present (lock-free).
  bool remove(Key key);

  /// Returns true iff `key` is present; writes its value through
  /// `value_out` when non-null (wait-free).
  bool lookup(Key key, Value* value_out = nullptr) const;

  /// Visits every item with lo <= key <= hi in ascending key order, as one
  /// linearizable snapshot (lock-free).
  void range_query(Key lo, Key hi, ItemVisitor visit) const;

  /// Number of items (walks the whole tree; linearizable only in
  /// quiescence).
  std::size_t size() const;

  /// Number of route nodes (Tables 1 & 2).  Racy walk; exact in quiescence.
  std::size_t route_node_count() const;

  /// Live structural snapshot: walks the whole route tree inside one EBR
  /// guard and returns the node census, depth and occupancy histograms and
  /// contention-statistic distribution (obs/topology.hpp).  Safe to call
  /// from any thread concurrently with updates, range queries and
  /// adaptations; counts are exact in quiescence and off by at most the
  /// adaptations that raced the walk otherwise.
  obs::TopologySnapshot collect_topology() const;

  /// validate() in quiescent mode, without diagnostics.  Intended for
  /// tests and benchmarks, with no operation in flight.
  bool check_integrity() const;

  /// Deep validator: walks every reachable node under one EBR guard and
  /// checks route-key BST order, base-node containment, parent pointers,
  /// join-protocol reachability rules, range-base results, container
  /// invariants and (CATS_CHECKED builds) node canaries
  /// (check/tree_check.hpp).  With `expect_quiescent` false, only the
  /// subset of invariants that hold mid-operation is enforced — safe to
  /// call concurrently with updates (used by --check-every-n-ops).  Replaces
  /// `*diagnostics` (when non-null) with one line per violated invariant.
  bool validate(std::string* diagnostics = nullptr,
                bool expect_quiescent = true) const;

  /// Maintenance/testing extension (not in the paper): forces a
  /// high-contention adaptation of the base node covering `hint`,
  /// regardless of its statistics.  Useful to pre-shard a tree for a known
  /// access pattern and to build structure deterministically in tests.
  /// Returns true iff a split was installed.
  bool force_split(Key hint);
  /// Counterpart: forces a low-contention adaptation (join) of the base
  /// node covering `hint`.  Returns true iff the join completed.
  bool force_join(Key hint);

  /// Snapshot of the operation counters.
  Stats stats() const;
  /// Resets the operation counters (not the tree).
  void reset_stats();

  /// Test-only instrumentation: when set, all_in_range invokes it at its
  /// two decision points — phase 0 after the initial descent of a find_first
  /// attempt, phase 1 after each advance step finds its next candidate base
  /// node (before this query tries to replace it).  Regression tests use it
  /// to drive concurrent mutations into exact points of the retry protocol
  /// (see lfca_test.cpp); the hook may re-enter the tree, including nested
  /// range queries.  Must only be set in quiescence and cleared before the
  /// tree is destroyed.  Empty (zero-cost check) in normal operation.
  std::function<void(int)> testing_range_step_hook;

  const Config& config() const { return config_; }
  reclaim::Domain& domain() const { return domain_; }

 private:
  using Node = detail::Node<C>;
  using NodeType = detail::NodeType;
  using ResultStorage = detail::ResultStorage<C>;

  enum class ContentionInfo { kContended, kUncontended, kNoInfo };

  // --- help functions (paper Fig. 3/4) -----------------------------------
  bool replace_child(Node* parent, Node* old_child, Node* new_child);
  bool try_replace(Node* b, Node* new_b);
  static bool is_replaceable(const Node* n);
  void help_if_needed(Node* n);
  int new_stat(const Node* n, ContentionInfo info) const;
  void adapt_if_needed(Node* b);

  // --- single-item operations (paper Fig. 4) -----------------------------
  enum class UpdateKind { kInsert, kRemove };
  bool do_update(UpdateKind kind, Key key, Value value);
  Node* find_base_node(Key key) const;

  // --- range queries (paper Fig. 5 and §6) --------------------------------
  const typename C::Node* all_in_range(Key lo, Key hi, ResultStorage* help_s);
  Node* find_base_stack(Key key, std::vector<Node*>& stack) const;
  static Node* leftmost_and_stack(Node* n, std::vector<Node*>& stack);
  static Node* find_next_base_stack(std::vector<Node*>& stack);
  /// Read-only double-collect scan; on success fills `bases` with a
  /// consistent cut of base nodes covering [lo, hi] and returns true.
  bool try_optimistic_collect(Key lo, Key hi,
                              std::vector<Node*>& bases) const;

  // --- adaptations (paper Fig. 7) -----------------------------------------
  bool high_contention_adaptation(Node* b);
  bool low_contention_adaptation(Node* b);
  Node* secure_join(Node* b, bool left_child);
  void complete_join(Node* m);
  Node* parent_of(Node* r) const;

  void retire(Node* n);
  void count_range_query(std::size_t bases_traversed) const;

  /// Paper counters: always maintained (Tables 1-2 and the adaptation
  /// tests read them through stats()).
  void count(TreeCounter c, std::uint64_t n = 1) const {
    counters_.add(c, n);
  }
  /// Diagnostic counters: compiled to nothing when CATS_OBS is off.
  void count_obs([[maybe_unused]] TreeCounter c,
                 [[maybe_unused]] std::uint64_t n = 1) const {
    CATS_OBS_ONLY(counters_.add(c, n));
  }

  reclaim::Domain& domain_;
  const Config config_;
  cats::atomic<Node*> root_;

  /// Per-tree statistics: per-thread sharded cells with relaxed increments,
  /// aggregated on read (obs/counters.hpp).
  mutable obs::ShardedCounters<static_cast<std::size_t>(TreeCounter::kCount)>
      counters_;
};

/// The paper's configuration: fat-leaf treap leaf containers.
using LfcaTree = BasicLfcaTree<TreapContainer>;
/// The flat-array variant (k-ary/Leaplist-style containers, §3).
using LfcaTreeChunk = BasicLfcaTree<ChunkContainer>;
/// Interned string keys over both container families (common/strkey.hpp).
using LfcaStrTree = BasicLfcaTree<StrTreapContainer>;
using LfcaStrTreeChunk = BasicLfcaTree<StrChunkContainer>;

extern template class BasicLfcaTree<TreapContainer>;
extern template class BasicLfcaTree<ChunkContainer>;
extern template class BasicLfcaTree<StrTreapContainer>;
extern template class BasicLfcaTree<StrChunkContainer>;

}  // namespace cats::lfca

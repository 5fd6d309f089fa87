// Lock-free skiplist with non-linearizable range queries.
//
// Stands in for java.util.concurrent.ConcurrentSkipListMap (`NonAtomicSL` in
// the paper's evaluation, §7): single-item operations are lock-free and
// linearizable (Fraser / Herlihy-Shavit scheme with marked next pointers),
// but a range query simply walks the bottom level and may observe an update
// in the middle of its traversal — it is NOT an atomic snapshot.  The test
// suite demonstrates that violation; the benchmarks use it as the
// "no-snapshot overhead" upper bound for mixed workloads.
#pragma once

#include <cstddef>

#include "common/catomic.hpp"
#include "common/function_ref.hpp"
#include "common/types.hpp"
#include "reclaim/ebr.hpp"
#include "skiplist/skip_index.hpp"

namespace cats::skiplist {

class SkipList {
 public:
  explicit SkipList(reclaim::Domain& domain = reclaim::Domain::global());

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Lock-free; returns true iff the key was not present (the value is
  /// updated in place — atomically — when it was).
  bool insert(Key key, Value value);

  /// Lock-free; returns true iff the key was present.
  bool remove(Key key);

  /// Lock-free (wait-free in the absence of marked nodes on the path).
  bool lookup(Key key, Value* value_out = nullptr) const;

  /// Walks the bottom level across [lo, hi].  NOT linearizable: concurrent
  /// updates may be partially observed.
  void range_query(Key lo, Key hi, ItemVisitor visit) const;

  std::size_t size() const;

  reclaim::Domain& domain() const { return domain_; }

 private:
  /// Per-key payload: the value, overwritten in place by insert.
  struct Cell {
    explicit Cell(Value v = 0) : value(v) {}
    cats::atomic<Value> value;
  };
  using Index = SkipIndex<Cell>;
  using Node = Index::Node;

  reclaim::Domain& domain_;
  Index index_;
};

}  // namespace cats::skiplist

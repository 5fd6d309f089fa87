// Heuristic constants of the LFCA tree (paper Fig. 3, lines 2-6).
//
// The statistics value of a base node drifts up under contention and down
// when operations run unimpeded or when range queries span several base
// nodes; crossing `high_cont` triggers a split, crossing `low_cont` a join.
// The paper fixes these at compile time; we make them per-tree so the
// ablation scenario (`bench_paper ablation`) can probe the design space.
#pragma once

namespace cats::lfca {

struct Config {
  /// Added to the statistics value when an update detected contention
  /// (failed CAS or irreplaceable base node).  Larger than the decrease
  /// constant so splits happen quickly under sustained contention.
  int cont_contrib = 250;

  /// Subtracted when an update completed without detecting contention.
  int low_cont_contrib = 1;

  /// Subtracted when the base node took part in a range query that needed
  /// more than one base node (steers the structure toward coarser leaves).
  int range_contrib = 100;

  /// Statistics threshold above which a high-contention adaptation (split)
  /// is issued.
  int high_cont = 1000;

  /// Statistics threshold below which a low-contention adaptation (join)
  /// is issued.
  int low_cont = -1000;

  /// Enables the §6 optimization: range queries first attempt a read-only
  /// double-collect scan and only fall back to the node-replacing algorithm
  /// when validation fails.
  bool optimistic_ranges = true;
};

}  // namespace cats::lfca

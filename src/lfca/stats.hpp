// Runtime statistics of an LFCA tree.
//
// The original eight counters reproduce the measurements of the paper's
// Tables 1 and 2 (split and join rates, base nodes traversed per range
// query); the remaining counters instrument the contention-detection and
// help machinery itself: CAS failures per operation type, blocked-retry
// loops, split/join attempts vs. successes vs. aborts, and the §6
// optimistic-range fast path.  All counters are maintained in a per-tree
// sharded block (obs/counters.hpp): per-thread cache-line-padded cells with
// relaxed increments on the hot paths, aggregated on read — exact in
// quiescence, slightly approximate under concurrency, which is all the
// paper's tables (and these diagnostics) require.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "obs/export.hpp"

namespace cats::lfca {

/// Per-tree counter indices (the storage lives in BasicLfcaTree).
enum class TreeCounter : std::size_t {
  // --- the paper's Tables 1-2 measurements (always maintained) -----------
  kSplits,
  kJoins,
  kAbortedJoins,
  kRangeQueries,         // completed, counted by the initiating thread
  kRangeBasesTraversed,  // base nodes traversed by completed range queries
  kOptimisticRanges,     // answered by the §6 read-only fast path
  kFallbackRanges,       // fell back to the node-replacing algorithm
  kHelps,                // calls that helped another thread's operation
  // --- contention-detection diagnostics (CATS_OBS builds only) ------------
  kSplitAttempts,        // high_contention_adaptation entered
  kSplitFailedCas,       // split built but lost its installing CAS
  kSplitRefusedSmall,    // split refused: leaf had < 2 items
  kJoinAttempts,         // low_contention_adaptation entered
  kUpdateCasFails,       // insert/remove lost the base-replacing CAS
  kUpdateBlockedRetries, // insert/remove found an irreplaceable base node
  kContentionEvents,     // contention fed into a base node's statistics
  kRangeCasFails,        // range query lost a range_base-installing CAS
  kHelpJoins,            // help_if_needed completed another thread's join
  kHelpRanges,           // help_if_needed joined another thread's range query
  kCount
};

/// Snapshot of the tree's internal counters (see TreeCounter for meanings).
struct Stats {
  std::uint64_t splits = 0;
  std::uint64_t joins = 0;
  std::uint64_t aborted_joins = 0;
  std::uint64_t range_queries = 0;
  std::uint64_t range_bases_traversed = 0;
  std::uint64_t optimistic_ranges = 0;
  std::uint64_t fallback_ranges = 0;
  std::uint64_t helps = 0;

  // Diagnostics (zero in CATS_OBS=OFF builds).
  std::uint64_t split_attempts = 0;
  std::uint64_t split_failed_cas = 0;
  std::uint64_t split_refused_small = 0;
  std::uint64_t join_attempts = 0;
  std::uint64_t update_cas_fails = 0;
  std::uint64_t update_blocked_retries = 0;
  std::uint64_t contention_events = 0;
  std::uint64_t range_cas_fails = 0;
  std::uint64_t help_joins = 0;
  std::uint64_t help_ranges = 0;

  double traversed_per_query() const {
    return range_queries == 0
               ? 0.0
               : static_cast<double>(range_bases_traversed) /
                     static_cast<double>(range_queries);
  }

  /// Appends every counter to an obs snapshot under a `prefix` (e.g.
  /// "lfca_"), so tree statistics travel in the same exported document as
  /// the process-wide metrics.
  void append_to(obs::Snapshot& snap, const std::string& prefix) const;
};

/// Exported name and Stats field of every TreeCounter, in enum order.
struct TreeCounterField {
  const char* name;
  std::uint64_t Stats::*field;
};
inline constexpr TreeCounterField kTreeCounterFields[] = {
    {"splits", &Stats::splits},
    {"joins", &Stats::joins},
    {"aborted_joins", &Stats::aborted_joins},
    {"range_queries", &Stats::range_queries},
    {"range_bases_traversed", &Stats::range_bases_traversed},
    {"optimistic_ranges", &Stats::optimistic_ranges},
    {"fallback_ranges", &Stats::fallback_ranges},
    {"helps", &Stats::helps},
    {"split_attempts", &Stats::split_attempts},
    {"split_failed_cas", &Stats::split_failed_cas},
    {"split_refused_small", &Stats::split_refused_small},
    {"join_attempts", &Stats::join_attempts},
    {"update_cas_fails", &Stats::update_cas_fails},
    {"update_blocked_retries", &Stats::update_blocked_retries},
    {"contention_events", &Stats::contention_events},
    {"range_cas_fails", &Stats::range_cas_fails},
    {"help_joins", &Stats::help_joins},
    {"help_ranges", &Stats::help_ranges},
};
static_assert(std::size(kTreeCounterFields) ==
              static_cast<std::size_t>(TreeCounter::kCount));

inline void Stats::append_to(obs::Snapshot& snap,
                             const std::string& prefix) const {
  for (const auto& [name, field] : kTreeCounterFields) {
    snap.add_counter(prefix + name, this->*field);
  }
}

}  // namespace cats::lfca

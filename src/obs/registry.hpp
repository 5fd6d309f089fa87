// Process-wide observability registry.
//
// One singleton owning the counters, histograms and the adaptation trace
// that are not naturally per-tree: the reclamation substrate and the leaf
// containers are shared by every structure in the process, and the trace is
// a process-level timeline.  Per-tree counters (the paper's statistics)
// live in the tree itself — see lfca/stats.hpp.
//
// Everything here is safe to touch from any thread at any time; increments
// are relaxed per-thread-shard operations (counters.hpp).  Reads aggregate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace cats::obs {

/// Global (process-level) counters.  Order defines export order.
enum class GCounter : std::size_t {
  // --- epoch-based reclamation (src/reclaim/ebr.cpp) ----------------------
  kEbrRetired,          // nodes handed to Domain::retire
  kEbrFreed,            // retired nodes actually deleted
  kEbrAdvanceAttempts,  // try_advance calls
  kEbrAdvances,         // epoch increments that succeeded
  kEbrOrphaned,         // retirements handed over at thread exit
  // --- treap leaf containers (src/treap/treap.cpp) ------------------------
  kTreapNodeAllocs,     // persistent treap nodes allocated (path copies)
  kTreapNodeFrees,      // persistent treap nodes destroyed
  // --- benchmark harness (src/harness/runner.hpp) --------------------------
  kHarnessOps,          // operations completed by harness worker threads;
                        // the monitor derives ops/sec from its deltas
  kCount
};

inline const char* gcounter_name(GCounter c) {
  constexpr const char* kNames[] = {
      "ebr_retired", "ebr_freed", "ebr_advance_attempts", "ebr_advances",
      "ebr_orphaned", "treap_node_allocs", "treap_node_frees", "harness_ops"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(GCounter::kCount));
  return kNames[static_cast<std::size_t>(c)];
}

/// Global histograms.  Latencies are nanoseconds, one sample per
/// flight-recorder span (flight/flight.hpp); the others are dimensionless
/// sizes.
enum class GHistogram : std::size_t {
  kUpdateLatencyNs,      // insert/remove latency (sampled)
  kLookupLatencyNs,      // lookup latency (sampled)
  kRangeLatencyNs,       // range-query latency (sampled)
  kRangeBasesTraversed,  // base nodes per completed range query
  kSplitLeafItems,       // leaf container occupancy at split time
  kCount
};

inline const char* ghistogram_name(GHistogram h) {
  constexpr const char* kNames[] = {
      "update_latency_ns", "lookup_latency_ns", "range_latency_ns",
      "range_bases_traversed", "split_leaf_items"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(GHistogram::kCount));
  return kNames[static_cast<std::size_t>(h)];
}

/// Value-type copy of every registry counter and histogram, taken without
/// disturbing the live sharded storage.  This is how periodic consumers
/// (the background monitor) compute interval deltas: subtract two
/// snapshots.  Never use Registry::reset() for that — see its comment.
struct RegistryValues {
  std::uint64_t counters[static_cast<std::size_t>(GCounter::kCount)] = {};
  HistogramSnapshot histograms[static_cast<std::size_t>(GHistogram::kCount)];

  std::uint64_t counter(GCounter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  const HistogramSnapshot& histogram(GHistogram h) const {
    return histograms[static_cast<std::size_t>(h)];
  }
};

class Registry {
 public:
  static Registry& instance() {
    static Registry* const reg = new Registry();  // leaked on purpose: may
    return *reg;  // be used from thread-exit paths after static destruction
  }

  void count(GCounter c, std::uint64_t n = 1) { counters_.add(c, n); }
  std::uint64_t read(GCounter c) const { return counters_.read(c); }

  LogHistogram& histogram(GHistogram h) {
    return histograms_[static_cast<std::size_t>(h)];
  }
  void record(GHistogram h, std::uint64_t v) { histogram(h).record(v); }

  AdaptTrace& trace() { return trace_; }

  /// Non-destructive value copy of every counter and histogram.  Safe to
  /// call from any thread at any time; concurrent recorders make the result
  /// slightly approximate (same contract as read()).
  RegistryValues snapshot() const {
    RegistryValues out;
    for (std::size_t i = 0; i < static_cast<std::size_t>(GCounter::kCount);
         ++i) {
      out.counters[i] = counters_.read(i);
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(GHistogram::kCount);
         ++i) {
      out.histograms[i] = histograms_[i].snapshot();
    }
    return out;
  }

  /// Zeroes counters and histograms and clears the trace (for benchmarks
  /// that want per-run deltas).
  ///
  /// ONLY safe in quiescence: zeroing proceeds shard by shard while a
  /// concurrent recorder keeps adding, so a racing reset can both lose
  /// increments and produce aggregate reads that briefly go backwards.
  /// Periodic consumers must compute deltas between two snapshot() calls
  /// instead of resetting.
  void reset() {
    counters_.reset();
    for (auto& h : histograms_) h.reset();
    trace_.reset();
  }

 private:
  Registry() = default;

  ShardedCounters<static_cast<std::size_t>(GCounter::kCount)> counters_;
  LogHistogram histograms_[static_cast<std::size_t>(GHistogram::kCount)];
  AdaptTrace trace_;
};

/// Hot-path helpers; call through CATS_OBS_ONLY so OFF builds emit nothing.
inline void count(GCounter c, std::uint64_t n = 1) {
  Registry::instance().count(c, n);
}
inline void record(GHistogram h, std::uint64_t v) {
  Registry::instance().record(h, v);
}
inline void trace_adapt(AdaptKind kind, std::uint32_t depth,
                        std::int32_t stat) {
  Registry::instance().trace().record(kind, depth, stat);
}

}  // namespace cats::obs

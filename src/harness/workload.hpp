// Workload specification for the paper's benchmarks (§7).
//
// Scenarios are strings of the form  w:A% r:B% q:C%-R  meaning (A/2)%
// insert, (A/2)% remove, B% lookup and C% range queries whose sizes are
// uniform in [1, R].  Keys are uniform in [0, S); structures are pre-filled
// with S/2 random keys before measuring.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/strkey.hpp"
#include "common/types.hpp"
#include "obs/flight/perf_counters.hpp"

namespace cats::harness {

// ---------------------------------------------------------------------------
// Key codecs.
//
// The workload generator draws integer keys uniformly from [0, S); a codec
// maps that stream onto the key type of the structure under test, so the
// same scenarios drive both the integer fast path and the string-key
// instantiations.  A codec provides:
//   StructKey        — the structure's key type
//   encode(Key)      — order-preserving mapping from the generator's keys
//   weight(StructKey)— cheap integer digest, summed by range queries so the
//                      scan cannot be optimized away
// ---------------------------------------------------------------------------

/// Identity codec for the integer fast path.
struct IntKeyCodec {
  using StructKey = Key;
  static Key encode(Key k) { return k; }
  static std::uint64_t weight(Key k) { return static_cast<std::uint64_t>(k); }
};

/// Zero-padded decimal rendering: lexicographic order equals numeric order
/// for the generator's non-negative keys, and 14 digits keep every key
/// inline in StrKey's small-string buffer — the hot path never touches the
/// intern table (common/strkey.hpp).
struct StrKeyCodec {
  using StructKey = StrKey;
  static StrKey encode(Key k) {
    // 24 bytes fit any int64 rendering; harness keys stay in [0, S), so
    // the result is always exactly 14 digits and stays inline.
    char buf[24];
    std::snprintf(buf, sizeof buf, "%014lld", static_cast<long long>(k));
    return StrKey::make(buf);
  }
  static std::uint64_t weight(const StrKey& k) {
    return static_cast<std::uint64_t>(k.view().size());
  }
};

struct Mix {
  /// Updates (insert + remove, split evenly), in permille of operations.
  std::uint32_t update_permille = 0;
  /// Lookups, in permille.
  std::uint32_t lookup_permille = 0;
  /// Range queries, in permille (the remainder must sum to 1000).
  std::uint32_t range_permille = 0;
  /// Maximum range-query span; sizes are uniform in [1, range_max].
  std::int64_t range_max = 0;
  /// If true, every range query spans exactly `range_max` keys (Fig. 10).
  bool fixed_range_size = false;

  /// Paper-style constructor from percentages: w:A% r:B% q:C%-R.
  static Mix of_percent(unsigned w, unsigned r, unsigned q,
                        std::int64_t range = 0, bool fixed = false) {
    return Mix{w * 10, r * 10, q * 10, range, fixed};
  }

  std::string describe() const {
    std::string s = "w:" + std::to_string(update_permille / 10) +
                    "% r:" + std::to_string(lookup_permille / 10) +
                    "% q:" + std::to_string(range_permille / 10) + "%";
    if (range_permille > 0) {
      s += '-';
      s += std::to_string(range_max);
      if (fixed_range_size) s += " (fixed)";
    }
    return s;
  }
};

/// A group of threads running one mix (Fig. 10 uses two groups).
struct ThreadGroup {
  int threads = 0;
  Mix mix;
};

struct RunResult {
  double seconds = 0;
  /// Completed operations per thread group, in group order.
  std::uint64_t group_ops[4] = {0, 0, 0, 0};
  std::uint64_t total_ops = 0;
  std::uint64_t range_queries = 0;
  std::uint64_t range_items = 0;
  /// Completed operations per thread, in spawn order.  Fairness check: a
  /// starved thread (ops_min far below ops_max) invalidates a throughput
  /// comparison even when the total looks fine.
  std::vector<std::uint64_t> per_thread_ops;
  /// Hardware counters summed over the worker threads of the measure
  /// phase.  `perf.available` is false (with a reason) when the counters
  /// could not be opened or are compiled out — never fails the run.
  obs::flight::PerfCounts perf;

  double throughput_mops() const {
    return seconds > 0 ? static_cast<double>(total_ops) / seconds / 1e6 : 0;
  }
  double group_mops(int group) const {
    return seconds > 0 ? static_cast<double>(group_ops[group]) / seconds / 1e6
                       : 0;
  }
  /// Sanity statistic from the paper: average items traversed per query.
  double items_per_range_query() const {
    return range_queries > 0 ? static_cast<double>(range_items) /
                                   static_cast<double>(range_queries)
                             : 0;
  }

  std::uint64_t ops_min() const {
    return per_thread_ops.empty()
               ? 0
               : *std::min_element(per_thread_ops.begin(),
                                   per_thread_ops.end());
  }
  std::uint64_t ops_max() const {
    return per_thread_ops.empty()
               ? 0
               : *std::max_element(per_thread_ops.begin(),
                                   per_thread_ops.end());
  }
  /// Population standard deviation of per-thread op counts.
  double ops_stddev() const {
    if (per_thread_ops.size() < 2) return 0;
    const double n = static_cast<double>(per_thread_ops.size());
    double mean = 0;
    for (std::uint64_t ops : per_thread_ops) {
      mean += static_cast<double>(ops);
    }
    mean /= n;
    double var = 0;
    for (std::uint64_t ops : per_thread_ops) {
      const double d = static_cast<double>(ops) - mean;
      var += d * d;
    }
    return std::sqrt(var / n);
  }
};

}  // namespace cats::harness

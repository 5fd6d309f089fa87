// Adaptation event trace.
//
// The LFCA tree's behaviour is defined by *when* it adapts; aggregate split
// and join counters cannot show that a split storm happened in the first
// millisecond of a run, or that a base node oscillated split-join-split.
// This module records every adaptation decision (split, join, abort) into a
// fixed-size per-shard ring buffer (ring.hpp):
//
//   {monotonic timestamp, event kind, base item count, triggering stat,
//    thread}
//
// `dump()` merges all rings into one timeline sorted by timestamp; under
// concurrent recording the timeline is approximate (entries being
// overwritten mid-read are dropped), which is all a trace needs.
// Adaptations are orders of magnitude rarer than operations, so the clock
// read on this path is irrelevant.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/ring.hpp"

namespace cats::obs {

enum class AdaptKind : std::uint8_t {
  kSplit,         // high-contention adaptation installed a route node
  kSplitFailed,   // split lost its CAS (or the leaf was too small)
  kJoin,          // low-contention adaptation completed
  kJoinAborted,   // secure_join failed or was killed by another thread
};

inline const char* adapt_kind_name(AdaptKind k) {
  switch (k) {
    case AdaptKind::kSplit: return "split";
    case AdaptKind::kSplitFailed: return "split_failed";
    case AdaptKind::kJoin: return "join";
    case AdaptKind::kJoinAborted: return "join_aborted";
  }
  return "?";
}

struct TraceEvent {
  std::uint64_t time_ns = 0;  // monotonic, process-relative
  AdaptKind kind = AdaptKind::kSplit;
  std::uint32_t items = 0;    // item count of the adapted base node
  std::int32_t stat = 0;      // statistics value that triggered the decision
  std::uint32_t thread = 0;   // recorder's shard index
};

class AdaptTrace {
 public:
  /// Entries retained per shard ring; older entries are overwritten.
  static constexpr std::size_t kRingSize = 1024;

  /// Monotonic nanoseconds since the first call in this process.
  static std::uint64_t now_ns() {
    static const auto origin = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin)
            .count());
  }

  void record(AdaptKind kind, std::uint32_t items, std::int32_t stat) {
    ring_.push({now_ns(), kind, items, stat});
  }

  /// Merged timeline of every ring, sorted by timestamp.
  std::vector<TraceEvent> dump() const {
    return ring_.dump(&TraceEvent::time_ns);
  }

  /// Total events ever recorded (including overwritten ones).
  std::uint64_t recorded() const { return ring_.recorded(); }

  void reset() { ring_.reset(); }

 private:
  ShardRing<TraceEvent, kRingSize> ring_;
};

}  // namespace cats::obs

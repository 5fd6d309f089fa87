// Sharded event counters.
//
// A single shared atomic counter turns every hot-path increment into a
// cache-line ping-pong between cores; the classic fix is striping.  Each
// thread is assigned a shard at first use (round-robin over a power of two),
// increments touch only that shard's cache line with a relaxed fetch_add,
// and reads aggregate over all shards.  Values are exact in quiescence and
// slightly approximate under concurrency — the same contract as the paper's
// statistics counters.
//
// `ShardedCounters<N>` is a fixed block of N logical counters (indexed by an
// enum), shard-major so that one thread's increments to different counters
// stay on the thread's own lines.  Instances are cheap enough to embed one
// per tree; the process-wide registry (registry.hpp) holds another for the
// reclamation and container substrates.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/padded.hpp"

namespace cats::obs {

/// Number of counter shards.  Power of two; threads beyond this many share
/// shards (correct, merely slower).
inline constexpr std::size_t kShards = 32;

/// Index of the calling thread's shard.  Assigned round-robin on first use
/// so the first kShards threads get private shards.
inline std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return index;
}

template <std::size_t N>
class ShardedCounters {
 public:
  /// Relaxed add on the calling thread's shard (hot path).
  void add(std::size_t counter, std::uint64_t n = 1) {
    shards_[shard_index()]->cells[counter].fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Enum convenience: any enum whose underlying values are [0, N).
  template <class E>
  void add(E counter, std::uint64_t n = 1) {
    add(static_cast<std::size_t>(counter), n);
  }

  /// Relaxed subtract on the calling thread's shard, for counters that go
  /// up and down (live-object gauges).  An object freed on another thread
  /// than the one that made it wraps that shard's cell below zero; the
  /// unsigned sum over all shards is still exact modulo 2^64.
  void sub(std::size_t counter, std::uint64_t n = 1) {
    shards_[shard_index()]->cells[counter].fetch_sub(
        n, std::memory_order_relaxed);
  }

  /// Aggregate-on-read value of one counter.
  std::uint64_t read(std::size_t counter) const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->cells[counter].load(std::memory_order_relaxed);
    }
    return total;
  }

  template <class E>
  std::uint64_t read(E counter) const {
    return read(static_cast<std::size_t>(counter));
  }

  /// Zeroes every counter (not linearizable against concurrent adds).
  void reset() {
    for (auto& shard : shards_) {
      for (auto& cell : shard->cells) {
        cell.store(0, std::memory_order_relaxed);
      }
    }
  }

  static constexpr std::size_t size() { return N; }

 private:
  struct Shard {
    std::atomic<std::uint64_t> cells[N] = {};
  };
  Padded<Shard> shards_[kShards];
};

}  // namespace cats::obs

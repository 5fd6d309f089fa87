// Per-shard seqlock ring of fixed-size events, behind both the adaptation
// trace (trace.hpp) and the flight recorder (flight/flight.hpp).
//
// push claims a sequence number with a fetch_add on its shard's head (past
// kShards threads two writers share a shard), claims the slot by CASing its
// tag to 2*seq+1, stores the event as 64-bit release-atomic words and
// publishes the tag 2*seq+2.  A writer that finds its slot mid-write by a
// lapped shard-mate, or holding a newer event, skips it; dropped() counts
// it.  dump, safe against live writers, keeps a slot only if its tag reads
// complete before and after the words, and sets `thread` to the shard.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/padded.hpp"
#include "obs/counters.hpp"  // kShards / shard_index()

namespace cats::obs {

template <class Event, std::size_t kSlots>
class ShardRing {
  static_assert(std::is_trivially_copyable_v<Event>);

 public:
  /// Appends `e` to the calling thread's shard ring, overwriting the oldest.
  void push(const Event& e) {
    Ring& ring = *rings_[shard_index()];
    const std::uint64_t seq =
        ring.head.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = ring.slots[seq % kSlots];
    std::uint64_t tag = slot.tag.load(std::memory_order_relaxed);
    do {
      if ((tag & 1) != 0 || tag > 2 * seq) return;
    } while (!slot.tag.compare_exchange_weak(tag, 2 * seq + 1,
                                             std::memory_order_relaxed));
    std::uint64_t words[kWords] = {};
    std::memcpy(words, &e, sizeof(Event));
    // Release: a reader that sees any of these words sees the odd tag too.
    for (std::size_t i = 0; i < kWords; ++i) {
      slot.words[i].store(words[i], std::memory_order_release);
    }
    slot.tag.store(2 * seq + 2, std::memory_order_release);
  }

  /// Every resident event of every ring, sorted by `time`.
  std::vector<Event> dump(std::uint64_t Event::*time) const {
    std::vector<Event> out;
    for_each_resident([&](const Event& e) { out.push_back(e); });
    std::sort(out.begin(), out.end(), [time](const Event& a, const Event& b) {
      return a.*time < b.*time;
    });
    return out;
  }

  /// Events ever pushed, overwritten and skipped ones included.
  std::uint64_t recorded() const {
    std::uint64_t total = 0;
    for (const auto& ring : rings_) {
      total += ring->head.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Events pushed but no longer resident (overwritten or skipped).
  std::uint64_t dropped() const {
    std::uint64_t resident = 0;
    for_each_resident([&](const Event&) { ++resident; });
    return recorded() - resident;  // read last: never below the scan
  }

  /// Empties every ring (not safe against concurrent push).
  void reset() {
    for (auto& ring : rings_) {
      for (Slot& slot : ring->slots) {
        slot.tag.store(0, std::memory_order_relaxed);
      }
      ring->head.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr std::size_t kWords = (sizeof(Event) + 7) / 8;

  struct Slot {
    std::atomic<std::uint64_t> tag{0};  // 2*seq+1 writing, 2*seq+2 done
    std::atomic<std::uint64_t> words[kWords] = {};
  };
  struct Ring {
    Slot slots[kSlots];
    std::atomic<std::uint64_t> head{0};  // next sequence number
  };

  template <class Fn>
  void for_each_resident(Fn&& fn) const {
    for (const auto& ring : rings_) {
      const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
      const std::uint64_t first = head > kSlots ? head - kSlots : 0;
      for (std::uint64_t seq = first; seq < head; ++seq) {
        const Slot& slot = ring->slots[seq % kSlots];
        const std::uint64_t tag = slot.tag.load(std::memory_order_acquire);
        if (tag != 2 * seq + 2) continue;
        std::uint64_t words[kWords] = {};
        for (std::size_t i = 0; i < kWords; ++i) {
          words[i] = slot.words[i].load(std::memory_order_acquire);
        }
        // A word from a later write makes this re-read see its odd tag.
        if (slot.tag.load(std::memory_order_relaxed) != tag) continue;
        Event e;
        std::memcpy(&e, words, sizeof(Event));
        e.thread = static_cast<std::uint32_t>(&ring - &rings_[0]);
        fn(e);
      }
    }
  }

  Padded<Ring> rings_[kShards];
};

}  // namespace cats::obs

// Sampled per-operation flight recorder: the process's one op sampler.
//
// The adaptation trace (obs/trace.hpp) records the tree's *decisions*;
// this module records what sampled operations *experienced*: start
// timestamp, latency, op kind, key hash, and how many CAS failures, EBR
// epoch waits and pool refills each absorbed (annot.hpp).  end() lands the
// span in a per-shard ring (obs/ring.hpp, the one AdaptTrace uses) on the
// AdaptTrace::now_ns() timeline, so spans and split/join instants line up
// in one Perfetto view (flight/perfetto.hpp), and its latency in the
// update/lookup/range latency histograms (obs/registry.hpp).
//
// Each thread samples a mean of 1 op in 2^shift: a thread-local countdown,
// reloaded at each sampled op with a gap drawn uniformly from
// [1, 2^(shift+1) - 1].  A fixed stride would be biased: EBR attempts an
// epoch advance and batch free on every 64th retirement of a thread, and a
// stride of 32 or 64 samples that op always or never.
//
//   disabled path:   one relaxed load + branch (g_control == 0)
//   unsampled path:  load + compare + decrement + branch
//   sampled path:    two TSC reads, a gap draw, a ring push, a histogram add
//
// Timestamps are raw TSC ticks (x86 rdtsc / aarch64 cntvct_el0, falling
// back to steady_clock); enable() calibrates ticks-per-ns against
// AdaptTrace::now_ns().  The rings (~6 MB) are allocated lazily on the
// first enable(): a process that never samples never pays for them.
//
// Control plane (enable/disable/reset) is NOT thread-safe against itself —
// callers serialize it.  The data plane (begin/end/dump) is safe from any
// thread at any time.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "obs/obs.hpp"

#if CATS_OBS_ENABLED
#include "common/rng.hpp"
#include "obs/counters.hpp"
#include "obs/flight/annot.hpp"
#include "obs/registry.hpp"
#include "obs/ring.hpp"
#include "obs/trace.hpp"
#endif

namespace cats::obs::flight {

enum class SpanKind : std::uint8_t {
  kInsert,
  kRemove,
  kLookup,
  kRange,
};

inline const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kInsert: return "insert";
    case SpanKind::kRemove: return "remove";
    case SpanKind::kLookup: return "lookup";
    case SpanKind::kRange: return "range";
  }
  return "?";
}

/// One completed sampled operation on the AdaptTrace timeline.
struct SpanEvent {
  std::uint64_t t_ns = 0;    // start, AdaptTrace::now_ns() timeline
  std::uint64_t dur_ns = 0;  // latency
  SpanKind kind = SpanKind::kLookup;
  std::uint32_t key_hash = 0;      // mix64(key) truncated; spreads hot keys
  std::uint32_t thread = 0;        // recorder's shard index
  std::uint32_t cas_fails = 0;     // annotation deltas over the span
  std::uint32_t epoch_waits = 0;
  std::uint32_t pool_refills = 0;
};

/// Token returned by begin_span(); inert (active == false) on the
/// disabled/unsampled paths.
struct SpanStart {
  std::uint64_t ticks = 0;
  std::uint32_t cas_fails = 0;
  std::uint32_t epoch_waits = 0;
  std::uint32_t pool_refills = 0;
  bool active = false;
};

#if CATS_OBS_ENABLED

/// Global sampling control word: 0 = disabled, else
/// (generation << 8) | (sample_shift + 1).  The generation bump on every
/// enable() invalidates each thread's cached countdown, so a new shift
/// takes effect immediately (and the first op after enable is sampled).
inline std::atomic<std::uint32_t> g_control{0};

/// Raw timestamp-counter read; units are calibrated at enable() time.
inline std::uint64_t read_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  std::uint32_t lo, hi;
  asm volatile("rdtsc" : "=a"(lo), "=d"(hi));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return AdaptTrace::now_ns();  // 1 tick == 1 ns, calibration finds ~1.0
#endif
}

class Recorder {
 public:
  /// Spans retained per shard ring; older spans are overwritten.
  static constexpr std::size_t kRingSize = 4096;

  /// Lazily constructed (and leaked) so the disabled path never touches —
  /// or allocates — the rings.
  static Recorder& instance();

  /// Calibrates the tick clock, clears the rings and turns sampling on at
  /// a mean of 1 in 2^sample_shift ops per thread (shift 0 = every op).
  void enable(unsigned sample_shift);
  void disable() { g_control.store(0, std::memory_order_release); }
  bool enabled() const {
    return g_control.load(std::memory_order_acquire) != 0;
  }
  /// Active shift, or negative when disabled.
  int sample_shift() const {
    const std::uint32_t control = g_control.load(std::memory_order_acquire);
    return control == 0 ? -1 : static_cast<int>((control & 0xffu) - 1);
  }
  double ticks_per_ns() const {
    return ticks_per_ns_.load(std::memory_order_acquire);
  }

  /// Hot path; called via begin_span() only when g_control != 0.
  SpanStart begin(std::uint32_t control) {
    Sampler& tl = sampler();
    if (tl.control != control) {
      tl.control = control;
      tl.countdown = 0;
      if (tl.rng == 0) tl.rng = reinterpret_cast<std::uintptr_t>(&tl);
    }
    if (tl.countdown != 0) {
      --tl.countdown;
      return {};
    }
    const unsigned shift = (control & 0xffu) - 1;
    tl.countdown =
        static_cast<std::uint32_t>(splitmix64(tl.rng) % ((2u << shift) - 1));
    SpanStart s;
    s.active = true;
    const OpAnnot& annot = op_annot();
    s.cas_fails = annot.cas_fails;
    s.epoch_waits = annot.epoch_waits;
    s.pool_refills = annot.pool_refills;
    s.ticks = read_ticks();
    return s;
  }

  /// Seals a sampled span into the calling thread's ring and its latency
  /// into the op kind's histogram.
  void end(const SpanStart& s, SpanKind kind, Key key) {
    const std::uint64_t end_ticks = read_ticks();
    const OpAnnot& annot = op_annot();
    // Pairs with enable()'s release store; the origins were stored first.
    const double ticks_per_ns = ticks_per_ns_.load(std::memory_order_acquire);
    // TSC reads may jump backwards across a core migration; clamp.
    auto ns_between = [ticks_per_ns](std::uint64_t from, std::uint64_t to) {
      return to > from ? static_cast<std::uint64_t>(
                             static_cast<double>(to - from) / ticks_per_ns)
                       : 0;
    };
    SpanEvent e;
    e.t_ns = origin_ns_.load(std::memory_order_relaxed) +
             ns_between(origin_ticks_.load(std::memory_order_relaxed), s.ticks);
    e.dur_ns = ns_between(s.ticks, end_ticks);
    e.kind = kind;
    e.key_hash =
        static_cast<std::uint32_t>(mix64(static_cast<std::uint64_t>(key)));
    e.cas_fails = annot.cas_fails - s.cas_fails;
    e.epoch_waits = annot.epoch_waits - s.epoch_waits;
    e.pool_refills = annot.pool_refills - s.pool_refills;
    rings_.push(e);
    obs::record(kind == SpanKind::kLookup  ? GHistogram::kLookupLatencyNs
                : kind == SpanKind::kRange ? GHistogram::kRangeLatencyNs
                                           : GHistogram::kUpdateLatencyNs,
                e.dur_ns);
  }

  /// Merged timeline of every ring, sorted by start time.  Entries being
  /// overwritten mid-read are dropped.
  std::vector<SpanEvent> dump() const { return rings_.dump(&SpanEvent::t_ns); }

  /// Total spans ever recorded (including overwritten ones).
  std::uint64_t recorded() const { return rings_.recorded(); }
  /// Spans recorded but no longer resident (overwritten or skipped).
  std::uint64_t dropped() const { return rings_.dropped(); }

  /// Clears the rings (control plane; not safe against live recording).
  void reset() { rings_.reset(); }

 private:
  struct Sampler {
    std::uint32_t control = 0;
    std::uint32_t countdown = 0;  // unsampled ops before the next sample
    std::uint64_t rng = 0;        // splitmix64 state of the gap draws
  };
  static Sampler& sampler() {
    thread_local Sampler tl;
    return tl;
  }

  Recorder() = default;

  // Calibration anchors, written by enable() before the g_control release
  // store.
  std::atomic<std::uint64_t> origin_ticks_{0};
  std::atomic<std::uint64_t> origin_ns_{0};
  std::atomic<double> ticks_per_ns_{1.0};
  std::uint32_t generation_ = 0;  // control plane only

  ShardRing<SpanEvent, kRingSize> rings_;
};

/// Hot-path entry: inert token unless sampling is on and this op won the
/// thread's countdown.
inline SpanStart begin_span() {
  const std::uint32_t control = g_control.load(std::memory_order_relaxed);
  if (control == 0) return {};
  return Recorder::instance().begin(control);
}

inline void end_span(const SpanStart& s, SpanKind kind, Key key) {
  if (!s.active) return;
  Recorder::instance().end(s, kind, key);
}

#else  // !CATS_OBS_ENABLED

/// CATS_OBS=OFF stubs: same shape, no rings, no clock reads — call sites
/// outside CATS_OBS_ONLY blocks compile unchanged and emit nothing.
class Recorder {
 public:
  static constexpr std::size_t kRingSize = 0;
  static Recorder& instance() {
    static Recorder r;
    return r;
  }
  void enable(unsigned) {}
  void disable() {}
  bool enabled() const { return false; }
  int sample_shift() const { return -1; }
  double ticks_per_ns() const { return 1.0; }
  std::vector<SpanEvent> dump() const { return {}; }
  std::uint64_t recorded() const { return 0; }
  std::uint64_t dropped() const { return 0; }
  void reset() {}
};

inline SpanStart begin_span() { return {}; }
inline void end_span(const SpanStart&, SpanKind, Key) {}

#endif  // CATS_OBS_ENABLED

}  // namespace cats::obs::flight

// End-to-end benchmark of the LFCA tree in the paper configuration
// (cats::lfca::LfcaTree: treap leaves, int64 keys).
//
// One run of one workload does, in order:
//   1. set-up: prefill S/2 distinct keys from [1, S), timed several times
//      (setup_s is the median; the last tree is kept);
//   2. warm-up: the workload mix runs until the route-node count settles, so
//      the timed window sees an adapted tree rather than one base node;
//   3. a closed-loop timed window: `threads` workers, no think time, split
//      into sub-windows; with --trace 1 as many sub-windows again, with the
//      flight recorder on, alternate with them;
//   4. checks: every lookup value and range result is checked as it returns,
//      and after the window tree.size() and check_integrity() are checked
//      against the tallies of successful inserts and removes.
// With --trace 1 it then times each layer in isolation through its public
// functions on the settled tree's shape.
//
// Every figure comes from the library's public interface: the tree's ops,
// stats() and collect_topology(), the TreapContainer statics, the EBR
// domain, the node pool, obs::global_snapshot() and the flight recorder.
// Output: one JSON document on stdout (perfbench/run.py formats it);
// progress goes to stderr.
//
//   lfca_perfbench --workload update-heavy --seed 1 --seconds 10 --trace 0
//                  [--trace-out FILE] [--plant-fault none|value|order]
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/pool.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "lfca/lfca_tree.hpp"
#include "obs/export.hpp"
#include "obs/flight/flight.hpp"
#include "obs/flight/perfetto.hpp"
#include "reclaim/ebr.hpp"

namespace {

using cats::Key;
using cats::Value;
using Tree = cats::lfca::LfcaTree;
using Treap = cats::lfca::TreapContainer;
using Clock = std::chrono::steady_clock;
namespace flight = cats::obs::flight;

// ---------------------------------------------------------------------------
// Workloads (the paper's w:A% r:B% q:C%-R mixes, §7).
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  unsigned update_pm;      // inserts + removes, per mille
  unsigned lookup_pm;      // lookups, per mille; the rest are range queries
  std::int64_t range_max;  // range spans are uniform in [1, range_max]
  std::int64_t key_range;  // S: keys are uniform in [1, S)
};

// Why these three: update-heavy loads path copy, publish, reclaim and the
// pool on an L3-resident tree that adapts for real; read-mostly is
// beyond L3 and bypasses reclaim and the pool; range-mix loads the §6
// optimistic collect and range_base fallback against update-driven splits.
constexpr Workload kWorkloads[] = {
    {"update-heavy", 500, 500, 0, 1'000'000},  // fig8a
    {"read-mostly", 10, 990, 0, 4'000'000},    // fig8c
    {"range-mix", 200, 550, 1000, 100'000},    // fig9b / Table 1
};

enum Kind : int { kLookup, kUpdate, kRange, kKinds };
constexpr const char* kKindName[kKinds] = {"lookup", "update", "range"};

constexpr int kMaxWorkers = 4;
constexpr int kSubWindows = 10;
constexpr unsigned kSpanShift = 5;  // flight recorder samples 1 in 32 ops
constexpr double kWarmMinS = 2.0;
constexpr double kWarmMaxS = 8.0;
constexpr double kWarmPollS = 0.25;
constexpr double kSettleWindowS = 1.0;
/// Ops of the dominant kind are sampled with probability 1/64; rarer kinds
/// proportionally more often, so every percentile has enough samples.
constexpr double kSampleEvery = 64.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(value) : "memory");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]); sorts `v` partially.
double percentile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Peak resident set of the process so far, in MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Operations on the tree, and the planted faults of the self-check.
// ---------------------------------------------------------------------------

enum class Fault { kNone, kValue, kOrder };

/// The calls into lfca a worker makes.  With a planted fault it corrupts
/// results on their way back (a wrong value on 1 in 1000 lookup hits, or two
/// adjacent items swapped in 1 in 100 range results), so the self-check can
/// show that the output checks catch them.
class TreeOps {
 public:
  TreeOps(Tree& tree, Fault fault) : tree_(tree), fault_(fault) {}

  bool insert(Key k) { return tree_.insert(k, static_cast<Value>(k) + 1); }
  bool remove(Key k) { return tree_.remove(k); }
  bool lookup(Key k, Value* v) {
    const bool found = tree_.lookup(k, v);
    if (fault_ == Fault::kValue && found && ++faults_seen_ % 1000 == 0) ++*v;
    return found;
  }
  template <class Visit>
  void range(Key lo, Key hi, Visit& visit) {
    if (fault_ != Fault::kOrder) {
      tree_.range_query(lo, hi, visit);
      return;
    }
    buffer_.clear();
    tree_.range_query(lo, hi, [&](Key k, Value v) {
      buffer_.push_back({k, v});
    });
    if (buffer_.size() >= 2 && ++faults_seen_ % 100 == 0) {
      std::swap(buffer_[0], buffer_[1]);
    }
    for (const cats::Item& item : buffer_) visit(item.key, item.value);
  }

 private:
  Tree& tree_;
  Fault fault_;
  std::uint64_t faults_seen_ = 0;
  std::vector<cats::Item> buffer_;
};

// ---------------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------------

/// S/2 distinct keys drawn uniformly from [1, S), in draw order.
std::vector<Key> prefill_keys(std::int64_t key_range, std::uint64_t seed) {
  std::vector<std::uint64_t> seen(static_cast<std::size_t>(key_range) / 64 + 1);
  std::vector<Key> keys;
  keys.reserve(static_cast<std::size_t>(key_range / 2));
  cats::Xoshiro256 rng(seed ^ 0x5eedf111ull);
  while (keys.size() < static_cast<std::size_t>(key_range / 2)) {
    const Key k = rng.next_in(1, key_range - 1);
    std::uint64_t& word = seen[static_cast<std::size_t>(k) / 64];
    const std::uint64_t bit = 1ull << (k % 64);
    if (word & bit) continue;
    word |= bit;
    keys.push_back(k);
  }
  return keys;
}

/// Builds a tree holding `keys` from one thread, as the paper's harness
/// does: the result is a single base node, and the warm-up lets the tree
/// adapt from there.  Every insert must report a new key; the others are
/// counted in `failed`.
std::unique_ptr<Tree> prefill(const std::vector<Key>& keys,
                              std::uint64_t* failed) {
  auto tree = std::make_unique<Tree>();
  for (Key k : keys) {
    if (!tree->insert(k, static_cast<Value>(k) + 1)) ++*failed;
  }
  return tree;
}

// ---------------------------------------------------------------------------
// Workers.
// ---------------------------------------------------------------------------

/// Cumulative worker figures, copied at every phase boundary.
struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t cpu_ns = 0;
  std::array<std::uint64_t, kKinds> kinds{};
};

struct alignas(64) Worker {
  // Whole run (warm-up included): what the post-run size check needs.
  std::uint64_t inserted = 0;
  std::uint64_t removed = 0;
  std::uint64_t failed = 0;
  std::uint64_t ops = 0;
  std::array<std::uint64_t, kKinds> kinds{};
  /// at[p] = tally when this worker first saw phase p.
  std::vector<Tally> at;
  /// Sampled latencies (ns) of the untraced window, per op kind.
  std::array<std::vector<std::uint32_t>, kKinds> latency;
};

/// Phase plan: 0 = warm-up, then the timed sub-windows, then stop.  With
/// tracing, traced sub-windows alternate with untraced ones, so drift of
/// the tree or the host over the run does not show up as tracing overhead.
struct Phases {
  bool traced = false;
  int stop() const { return 1 + kSubWindows * (traced ? 2 : 1); }
  bool is_traced(int p) const { return traced && p >= 1 && p % 2 == 0; }
  bool is_timed(int p) const { return p >= 1 && p < stop() && !is_traced(p); }
};

struct RunShared {
  const Workload* wl = nullptr;
  Phases phases;
  std::array<std::uint32_t, kKinds> sample_every{};
  std::atomic<int> phase{0};
};

void worker_loop(Tree& tree, Fault fault, RunShared& shared, Worker& w,
                 std::uint64_t seed) {
  const Workload& wl = *shared.wl;
  TreeOps ops(tree, fault);
  cats::Xoshiro256 rng(seed);
  // Sampling draws from its own stream, so the op sequence does not depend
  // on it.  It is random rather than every N-th op: EBR attempts an epoch
  // advance and batch free on every 64th retirement of a thread, and a
  // fixed stride locks onto or misses that op in every sample.
  cats::Xoshiro256 sample_rng(~seed);
  const int stop = shared.phases.stop();
  w.at.assign(static_cast<std::size_t>(stop) + 1, Tally{});
  w.at[0] = Tally{0, thread_cpu_ns(), {}};
  int seen = 0;
  for (;;) {
    const int phase = shared.phase.load(std::memory_order_relaxed);
    if (phase != seen) {
      const Tally now{w.ops, thread_cpu_ns(), w.kinds};
      for (int p = seen + 1; p <= phase; ++p) w.at[p] = now;
      seen = phase;
      if (phase >= stop) break;
    }
    const bool timing = shared.phases.is_timed(seen);

    const std::uint64_t dice = rng.next_below(1000);
    const Key k = rng.next_in(1, wl.key_range - 1);
    const Kind kind = dice < wl.update_pm                    ? kUpdate
                      : dice < wl.update_pm + wl.lookup_pm ? kLookup
                                                             : kRange;
    const std::int64_t span =
        kind == kRange
            ? static_cast<std::int64_t>(rng.next_below(
                  static_cast<std::uint64_t>(wl.range_max))) + 1
            : 0;
    const bool sampled =
        timing && sample_rng.next_below(shared.sample_every[kind]) == 0;

    bool ok = true;
    flight::SpanKind span_kind = flight::SpanKind::kLookup;
    const flight::SpanStart span_start = flight::begin_span();
    const Clock::time_point t0 = sampled ? Clock::now() : Clock::time_point{};
    switch (kind) {
      case kUpdate:
        if ((dice & 1) == 0) {
          span_kind = flight::SpanKind::kInsert;
          if (ops.insert(k)) ++w.inserted;
        } else {
          span_kind = flight::SpanKind::kRemove;
          if (ops.remove(k)) ++w.removed;
        }
        break;
      case kLookup: {
        Value v = 0;
        if (ops.lookup(k, &v) && v != static_cast<Value>(k) + 1) ok = false;
        break;
      }
      case kRange: {
        span_kind = flight::SpanKind::kRange;
        const Key lo = k;
        const Key hi = k + span - 1;
        Key prev = lo - 1;
        auto visit = [&](Key key, Value v) {
          if (key <= prev || key > hi || v != static_cast<Value>(key) + 1) {
            ok = false;
          }
          prev = key;
        };
        ops.range(lo, hi, visit);
        break;
      }
      default:
        break;
    }
    if (sampled) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0)
                          .count();
      w.latency[kind].push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>(ns, UINT32_MAX)));
    }
    flight::end_span(span_start, span_kind, k);
    if (!ok) ++w.failed;
    ++w.kinds[kind];
    ++w.ops;
  }
}

// ---------------------------------------------------------------------------
// Layer snapshots over the timed window.
// ---------------------------------------------------------------------------

struct LayerSnap {
  cats::lfca::Stats stats;
  cats::obs::TopologySnapshot topo;
  cats::obs::Snapshot obs;
  cats::alloc::PoolStats pool;
  Clock::time_point t;
};

LayerSnap take_snap(const Tree& tree) {
  LayerSnap s;
  s.stats = tree.stats();
  s.topo = tree.collect_topology();
  s.obs = cats::obs::global_snapshot();
  s.pool = cats::alloc::pool_stats();
  s.t = Clock::now();
  return s;
}

double gauge(const cats::obs::Snapshot& snap, const char* name) {
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) return v;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Isolated layer timings (single thread, after the workers stopped).
// ---------------------------------------------------------------------------

/// Median over `batches` of the per-op time of `body(batch)`, which performs
/// `ops` operations.
template <class Body>
double median_ns_per_op(int batches, std::size_t ops, Body&& body) {
  std::vector<double> per_op;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    body(b);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    per_op.push_back(ns / static_cast<double>(ops));
  }
  return median(per_op);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void add(std::vector<Metric>& out, std::string name, double value,
         std::string unit) {
  out.push_back({std::move(name), value, std::move(unit)});
}

constexpr int kBatches = 7;

void time_tree_lookup(const Tree& tree, std::int64_t key_range,
                      std::uint64_t seed, std::vector<Metric>& out) {
  constexpr std::size_t kOps = 100'000;
  cats::Xoshiro256 rng(seed ^ 0x100c0ull);
  std::vector<Key> keys(kOps);
  for (Key& k : keys) k = rng.next_in(1, key_range - 1);
  const double ns = median_ns_per_op(kBatches, kOps, [&](int) {
    std::uint64_t hits = 0;
    for (Key k : keys) {
      Value v;
      hits += tree.lookup(k, &v);
    }
    keep(hits);
  });
  add(out, "lfca.lookup_1t_ns", ns, "ns");
}

/// Insert-then-remove of absent keys: one update is half a pair.  Leaves
/// the tree's contents unchanged.
void time_tree_update(Tree& tree, std::int64_t key_range, std::uint64_t seed,
                      std::vector<Metric>& out) {
  constexpr std::size_t kOps = 20'000;
  cats::Xoshiro256 rng(seed ^ 0xabd0ull);
  std::vector<Key> keys;
  while (keys.size() < kOps) {
    const Key k = rng.next_in(1, key_range - 1);
    if (!tree.lookup(k, nullptr)) keys.push_back(k);
  }
  const double ns = median_ns_per_op(kBatches, 2 * kOps, [&](int) {
    for (Key k : keys) {
      tree.insert(k, static_cast<Value>(k) + 1);
      tree.remove(k);
    }
  });
  add(out, "lfca.update_1t_ns", ns, "ns");
}

/// The TreapContainer statics on the working set of a settled tree: the
/// prefill's S/2 keys cut into consecutive containers of `items` keys (the
/// tree's mean base-node size), each built by inserts.  Every timed call
/// picks a random container, so the timings pay the cache misses an op on
/// the tree pays, not those of one hot container.
void time_treap(std::size_t items, const std::vector<Key>& keys,
                std::int64_t key_range, std::uint64_t seed,
                std::vector<Metric>& out) {
  // Precondition: `keys` holds S/2 of the S - 1 keys, so misses exist.
  items = std::clamp<std::size_t>(items, 2, keys.size());
  std::vector<Key> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t count = sorted.size() / items;
  std::vector<Treap::Ref> trees(count);
  std::vector<Key> firsts(count);  // smallest key of each container
  std::vector<std::size_t> order(count * items);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  cats::Xoshiro256 rng(seed ^ 0x7ea9ull);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  for (std::size_t i : order) {  // random insertion order, like the tree's
    const Key k = sorted[i];
    Treap::Ref& t = trees[i / items];
    t = Treap::insert(t.get(), k, static_cast<Value>(k) + 1, nullptr);
  }
  for (std::size_t c = 0; c < count; ++c) firsts[c] = sorted[c * items];

  constexpr std::size_t kOps = 20'000;
  struct Probe {
    const Treap::Node* tree;
    Key key;
  };
  std::vector<Probe> hits(kOps), misses;
  for (Probe& p : hits) {
    const std::size_t i = rng.next_below(count * items);
    p = {trees[i / items].get(), sorted[i]};
  }
  while (misses.size() < kOps) {
    const Key k = rng.next_in(1, key_range - 1);
    if (std::binary_search(sorted.begin(), sorted.end(), k)) continue;
    // The container whose key interval would receive k.
    const auto it = std::upper_bound(firsts.begin(), firsts.end(), k);
    const std::size_t c =
        it == firsts.begin() ? 0 : static_cast<std::size_t>(it - firsts.begin()) - 1;
    misses.push_back({trees[c].get(), k});
  }
  std::vector<const Treap::Node*> picks(kOps);
  for (auto& t : picks) t = trees[rng.next_below(count)].get();

  add(out, "treap.items", static_cast<double>(items), "items");
  add(out, "treap.insert_ns", median_ns_per_op(kBatches, kOps, [&](int) {
        for (const Probe& p : misses) {
          Treap::Ref r = Treap::insert(p.tree, p.key, 1, nullptr);
          keep(r.get());
        }
      }), "ns");
  add(out, "treap.remove_ns", median_ns_per_op(kBatches, kOps, [&](int) {
        for (const Probe& p : hits) {
          Treap::Ref r = Treap::remove(p.tree, p.key, nullptr);
          keep(r.get());
        }
      }), "ns");
  add(out, "treap.lookup_ns", median_ns_per_op(kBatches, kOps, [&](int) {
        std::uint64_t found = 0;
        for (const Probe& p : hits) {
          Value v;
          found += Treap::lookup(p.tree, p.key, &v);
        }
        keep(found);
      }), "ns");
  const std::size_t scans = std::max<std::size_t>(1, 1'000'000 / items);
  add(out, "treap.scan_ns_per_item",
      median_ns_per_op(kBatches, scans * items, [&](int) {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < scans; ++i) {
          Treap::for_range(picks[i % kOps], cats::kKeyMin, cats::kKeyMax,
                           [&](Key, Value v) { sum += v; });
        }
        keep(sum);
      }), "ns");
  constexpr std::size_t kSplits = 5'000;
  add(out, "treap.split_ns", median_ns_per_op(kBatches, kSplits, [&](int) {
        for (std::size_t i = 0; i < kSplits; ++i) {
          Treap::Ref l, r;
          Key pivot;
          Treap::split_evenly(picks[i], &l, &r, &pivot);
          keep(pivot);
        }
      }), "ns");
  // Joins of neighbouring containers, as a low-contention adaptation does.
  add(out, "treap.join_ns", median_ns_per_op(kBatches, kSplits, [&](int) {
        for (std::size_t i = 0; i < kSplits; ++i) {
          const std::size_t c = i % (count > 1 ? count - 1 : 1);
          Treap::Ref j = Treap::join(
              trees[c].get(), count > 1 ? trees[c + 1].get() : nullptr);
          keep(j.get());
        }
      }), "ns");
}

/// Treap leaves are the largest node the pool serves on the update path.
constexpr std::size_t kLeafBytes = sizeof(cats::treap::Impl::Leaf);

void time_reclaim_and_pool(std::vector<Metric>& out) {
  cats::reclaim::Domain& domain = cats::reclaim::Domain::global();
  constexpr std::size_t kGuards = 1'000'000;
  add(out, "ebr.guard_ns", median_ns_per_op(kBatches, kGuards, [&](int) {
        for (std::size_t i = 0; i < kGuards; ++i) {
          cats::reclaim::Domain::Guard guard(domain);
          keep(i);
        }
      }), "ns");

  constexpr std::size_t kBlocks = 64;
  constexpr std::size_t kRounds = 10'000;
  std::vector<void*> blocks(kBlocks);
  add(out, "pool.alloc_free_ns",
      median_ns_per_op(kBatches, kBlocks * kRounds, [&](int) {
        for (std::size_t r = 0; r < kRounds; ++r) {
          for (void*& p : blocks) p = cats::alloc::pool_alloc(kLeafBytes);
          for (void* p : blocks) cats::alloc::pool_free(p, kLeafBytes);
        }
      }), "ns");

  // Amortised retire: includes the epoch advances and batch frees the
  // domain performs every few dozen retirements.
  constexpr std::size_t kRetires = 100'000;
  std::vector<void*> garbage(kRetires);
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    for (void*& p : garbage) p = cats::alloc::pool_alloc(kLeafBytes);
    const auto t0 = Clock::now();
    for (void* p : garbage) {
      domain.retire(p, [](void* q) { cats::alloc::pool_free(q, kLeafBytes); });
    }
    per_op.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(kRetires));
    domain.drain();
  }
  add(out, "ebr.retire_ns", median(per_op), "ns");
}

// ---------------------------------------------------------------------------
// Flight-recorder spans of the traced window.
// ---------------------------------------------------------------------------

void span_metrics(const std::vector<flight::SpanEvent>& spans,
                  std::vector<Metric>& out) {
  std::uint64_t updates = 0, cas = 0, epoch = 0, refill = 0;
  std::vector<std::uint32_t> annotated, plain;
  for (const flight::SpanEvent& s : spans) {
    if (s.kind != flight::SpanKind::kInsert &&
        s.kind != flight::SpanKind::kRemove) {
      continue;
    }
    ++updates;
    cas += s.cas_fails > 0;
    epoch += s.epoch_waits > 0;
    refill += s.pool_refills > 0;
    const auto dur = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(s.dur_ns, UINT32_MAX));
    (s.cas_fails + s.epoch_waits + s.pool_refills > 0 ? annotated : plain)
        .push_back(dur);
  }
  const double n = static_cast<double>(updates);
  add(out, "span.update_spans", n, "count");
  add(out, "span.update_cas_fail_share", ratio(static_cast<double>(cas), n),
      "ratio");
  add(out, "span.update_epoch_wait_share",
      ratio(static_cast<double>(epoch), n), "ratio");
  add(out, "span.update_pool_refill_share",
      ratio(static_cast<double>(refill), n), "ratio");
  add(out, "span.update_annotated_spans",
      static_cast<double>(annotated.size()), "count");
  add(out, "span.update_annotated_p99_us", percentile(annotated, 0.99) / 1e3,
      "us");
  add(out, "span.update_plain_p99_us", percentile(plain, 0.99) / 1e3, "us");
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

/// CPU brand string, read with cpuid (no file outside the checkout).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += json_string(metrics[i].name) + ": {\"value\": " +
         json_number(metrics[i].value) +
         ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return s + "}";
}

struct Options {
  const Workload* wl = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  Fault fault = Fault::kNone;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lfca_perfbench: %s\n"
               "usage: lfca_perfbench --workload update-heavy|read-mostly|"
               "range-mix --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--plant-fault none|value|order]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& wl : kWorkloads) {
        if (value == wl.name) opt.wl = &wl;
      }
      if (opt.wl == nullptr) usage(("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 600) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--plant-fault") {
      if (value == "none") opt.fault = Fault::kNone;
      else if (value == "value") opt.fault = Fault::kValue;
      else if (value == "order") opt.fault = Fault::kOrder;
      else usage("--plant-fault takes none, value or order");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.wl == nullptr) usage("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload& wl = *opt.wl;
  const int threads = std::max(
      1, std::min<int>(kMaxWorkers,
                       static_cast<int>(std::thread::hardware_concurrency())));

  // --- 1. set-up --------------------------------------------------------
  const std::vector<Key> keys = prefill_keys(wl.key_range, opt.seed);
  // Small trees are set up more often, so their median rests on enough
  // work to be steady.
  const int setup_reps = static_cast<int>(
      std::clamp<std::int64_t>(2'000'000 / wl.key_range, 3, 20));
  RunShared shared;
  shared.wl = &wl;
  shared.phases.traced = opt.trace;
  const double share[kKinds] = {static_cast<double>(wl.lookup_pm),
                                static_cast<double>(wl.update_pm),
                                1000.0 - wl.update_pm - wl.lookup_pm};
  const double top = *std::max_element(std::begin(share), std::end(share));
  for (int k = 0; k < kKinds; ++k) {
    shared.sample_every[k] = static_cast<std::uint32_t>(
        std::max(1.0, std::round(kSampleEvery * share[k] / top)));
  }

  std::uint64_t setup_failed = 0;
  std::vector<double> setup_s;
  std::unique_ptr<Tree> tree;
  for (int rep = 0; rep < setup_reps; ++rep) {
    tree.reset();
    const auto t0 = Clock::now();
    tree = prefill(keys, &setup_failed);
    setup_s.push_back(seconds_since(t0));
  }
  const std::uint64_t setup_ops =
      static_cast<std::uint64_t>(setup_reps) * keys.size();
  // Memory of the prefilled tree, taken before any concurrency.  The peak
  // of the whole run is reported too, but only per layer: a worker that the
  // host deschedules inside an EBR guard pins the epoch, and the garbage
  // that piles up meanwhile (~0.6 GB/s on range-mix) makes it depend
  // on the host's steal time more than on the code.
  const double setup_rss_mb = peak_rss_mb();
  std::fprintf(stderr, "%s: set-up %d x %.3f s (median)\n", wl.name,
               setup_reps, median(setup_s));

  // --- 2. warm-up, 3. timed window ---------------------------------------
  std::vector<Worker> workers(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      worker_loop(*tree, opt.fault, shared, workers[static_cast<std::size_t>(t)],
                  opt.seed * 7919 + static_cast<std::uint64_t>(t));
    });
  }
  const auto warm0 = Clock::now();
  std::vector<std::pair<double, std::size_t>> route_history;
  bool settled = false;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmPollS));
    const double t = seconds_since(warm0);
    const std::size_t routes = tree->route_node_count();
    route_history.emplace_back(t, routes);
    if (t >= kWarmMinS) {
      // Settled: the route count is within 5% (or 2 nodes) of its value
      // kSettleWindowS ago.
      for (const auto& [then, count] : route_history) {
        if (t - then > kSettleWindowS + 1e-9) continue;
        const std::size_t diff = routes > count ? routes - count
                                                : count - routes;
        settled = diff <= std::max<std::size_t>(2, routes / 20);
        break;
      }
    }
    if (settled || t >= kWarmMaxS) break;
  }
  const double warmup_s = seconds_since(warm0);

  const LayerSnap snap0 = take_snap(*tree);
  const double sub_s = opt.seconds / kSubWindows;
  const int stop = shared.phases.stop();
  flight::Recorder& recorder = flight::Recorder::instance();
  std::vector<flight::SpanEvent> spans;
  std::vector<Clock::time_point> bounds;  // bounds[p - 1] = start of phase p
  LayerSnap snap1;
  for (int p = 1; p <= stop; ++p) {
    if (p > 1) {
      std::this_thread::sleep_until(
          bounds.front() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(sub_s * (p - 1))));
    }
    if (shared.phases.is_traced(p - 1)) {
      // enable() clears the rings, so each traced sub-window is collected
      // before the next one starts.
      recorder.disable();
      const std::vector<flight::SpanEvent> got = recorder.dump();
      spans.insert(spans.end(), got.begin(), got.end());
    }
    if (p == stop) snap1 = take_snap(*tree);
    bounds.push_back(Clock::now());
    shared.phase.store(p, std::memory_order_relaxed);
    if (shared.phases.is_traced(p)) recorder.enable(kSpanShift);
  }
  for (auto& th : pool) th.join();
#if CATS_OBS_ENABLED
  if (opt.trace && !opt.trace_out.empty()) {
    std::ofstream os(opt.trace_out);
    flight::write_chrome_trace(os, spans, snap1.obs.events);
    if (!os) std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
  }
#endif

  // --- 4. checks ----------------------------------------------------------
  std::uint64_t op_failed = 0, inserted = 0, removed = 0, run_ops = 0;
  for (const Worker& w : workers) {
    op_failed += w.failed;
    inserted += w.inserted;
    removed += w.removed;
    run_ops += w.ops;
  }
  const std::uint64_t expected_size = keys.size() + inserted - removed;
  const std::uint64_t size = tree->size();
  const std::uint64_t size_diff =
      size > expected_size ? size - expected_size : expected_size - size;
  const bool integrity = tree->check_integrity();
  const std::uint64_t attempted = setup_ops + run_ops;
  const std::uint64_t failed =
      setup_failed + op_failed + size_diff + (integrity ? 0 : 1);

  // --- figures ------------------------------------------------------------
  // Throughput and CPU per op are taken per sub-window and reported as the
  // median over the sub-windows, so a second of host noise moves one
  // sub-window, not the result.  Latency percentiles pool every sample of
  // the window, so each p99 rests on about a thousand samples beyond it
  // rather than on a hundred per sub-window.
  auto add_phase = [&](Tally& sum, int p) {
    for (const Worker& w : workers) {
      sum.ops += w.at[p + 1].ops - w.at[p].ops;
      sum.cpu_ns += w.at[p + 1].cpu_ns - w.at[p].cpu_ns;
      for (int k = 0; k < kKinds; ++k) {
        sum.kinds[k] += w.at[p + 1].kinds[k] - w.at[p].kinds[k];
      }
    }
  };
  auto phase_s = [&](int p) {
    return std::chrono::duration<double>(bounds[p] - bounds[p - 1]).count();
  };
  struct SubWindow {
    double mops = 0;
    double cpu_ns_per_op = 0;
  };
  auto median_of = [](const std::vector<SubWindow>& subs,
                      double SubWindow::*field) {
    std::vector<double> v;
    for (const SubWindow& sw : subs) v.push_back(sw.*field);
    return median(v);
  };
  std::vector<SubWindow> subs, traced_subs;
  Tally timed{}, all{};  // the untraced sub-windows; the whole window
  double timed_s = 0;
  for (int p = 1; p < stop; ++p) {
    Tally sub{};
    add_phase(sub, p);
    add_phase(all, p);
    (shared.phases.is_traced(p) ? traced_subs : subs)
        .push_back({static_cast<double>(sub.ops) / phase_s(p) / 1e6,
                    ratio(static_cast<double>(sub.cpu_ns),
                          static_cast<double>(sub.ops))});
    if (shared.phases.is_timed(p)) {
      add_phase(timed, p);
      timed_s += phase_s(p);
    }
  }
  const double throughput = median_of(subs, &SubWindow::mops);

  std::vector<Metric> e2e, layer, samples;
  add(e2e, "throughput_mops", throughput, "ops/us");
  add(e2e, "cpu_ns_per_op", median_of(subs, &SubWindow::cpu_ns_per_op),
      "ns");
  for (int k = 0; k < kKinds; ++k) {
    std::vector<std::uint32_t> lat;
    for (Worker& w : workers) {
      lat.insert(lat.end(), w.latency[k].begin(), w.latency[k].end());
      std::vector<std::uint32_t>().swap(w.latency[k]);
    }
    const std::string name = kKindName[k];
    // Range latencies exist on range-mix only, so they are not among the
    // end-to-end metrics every workload reports.
    std::vector<Metric>& dst = k == kRange ? layer : e2e;
    add(samples, name + "_samples", static_cast<double>(lat.size()), "count");
    add(samples, name + "_sample_every",
        static_cast<double>(shared.sample_every[k]), "ops");
    add(dst, name + "_p50_us", percentile(lat, 0.50) / 1e3, "us");
    add(dst, name + "_p99_us", percentile(lat, 0.99) / 1e3, "us");
  }
  add(samples, "sub_windows", static_cast<double>(subs.size()), "count");
  add(e2e, "setup_s", median(setup_s), "s");
  add(e2e, "setup_rss_mb", setup_rss_mb, "MB");
  add(layer, "peak_rss_mb", peak_rss_mb(), "MB");
  add(e2e, "failed_op_share",
      ratio(static_cast<double>(failed), static_cast<double>(attempted)),
      "ratio");

  // Per-layer counters cover the whole window, traced sub-windows included.
  const double updates = static_cast<double>(all.kinds[kUpdate]);
  const double ops_d = static_cast<double>(all.ops);
  const double range_n = static_cast<double>(snap1.stats.range_queries -
                                             snap0.stats.range_queries);
  auto dstat = [&](std::uint64_t cats::lfca::Stats::*field) {
    return static_cast<double>(snap1.stats.*field - snap0.stats.*field);
  };
  auto dobs = [&](const char* name) {
    return static_cast<double>(snap1.obs.counter(name) -
                               snap0.obs.counter(name));
  };
  const double win_s =
      std::chrono::duration<double>(snap1.t - snap0.t).count();
  add(layer, "lfca.warmup_s", warmup_s, "s");
  add(layer, "lfca.route_nodes_start",
      static_cast<double>(snap0.topo.route_nodes), "count");
  add(layer, "lfca.route_nodes", static_cast<double>(snap1.topo.route_nodes),
      "count");
  add(layer, "lfca.max_depth_start", snap0.topo.max_depth, "count");
  add(layer, "lfca.max_depth", snap1.topo.max_depth, "count");
  add(layer, "lfca.mean_base_items_start", snap0.topo.mean_occupancy(),
      "items");
  add(layer, "lfca.mean_base_items", snap1.topo.mean_occupancy(), "items");
  add(layer, "lfca.splits_per_s", dstat(&cats::lfca::Stats::splits) / win_s,
      "1/s");
  add(layer, "lfca.joins_per_s", dstat(&cats::lfca::Stats::joins) / win_s,
      "1/s");
  add(layer, "lfca.update_cas_fail_ratio",
      ratio(dstat(&cats::lfca::Stats::update_cas_fails), updates), "ratio");
  add(layer, "lfca.blocked_retries_per_kupdate",
      1e3 * ratio(dstat(&cats::lfca::Stats::update_blocked_retries), updates),
      "1/kupdate");
  add(layer, "lfca.helps_per_kop",
      1e3 * ratio(dstat(&cats::lfca::Stats::helps), ops_d), "1/kop");
  const double optimistic = dstat(&cats::lfca::Stats::optimistic_ranges);
  add(layer, "lfca.optimistic_range_share",
      ratio(optimistic,
            optimistic + dstat(&cats::lfca::Stats::fallback_ranges)),
      "ratio");
  add(layer, "lfca.range_bases_per_query",
      ratio(dstat(&cats::lfca::Stats::range_bases_traversed), range_n),
      "count");
  add(layer, "lfca.range_cas_fails_per_query",
      ratio(dstat(&cats::lfca::Stats::range_cas_fails), range_n), "count");
  add(layer, "treap.node_allocs_per_update",
      ratio(dobs("treap_node_allocs"), updates), "count");
  const double retired = dobs("ebr_retired");
  add(layer, "ebr.retired_per_update", ratio(retired, updates), "count");
  add(layer, "ebr.freed_ratio", ratio(dobs("ebr_freed"), retired), "ratio");
  add(layer, "ebr.advance_success_ratio",
      ratio(dobs("ebr_advances"), dobs("ebr_advance_attempts")), "ratio");
  add(layer, "ebr.backlog_end", gauge(snap1.obs, "ebr_backlog"), "count");
  const cats::alloc::PoolStats& p0 = snap0.pool;
  const cats::alloc::PoolStats& p1 = snap1.pool;
  const double hits = static_cast<double>(
      (p1.alloc_fast - p0.alloc_fast) + (p1.alloc_transfer - p0.alloc_transfer));
  add(layer, "pool.hit_rate",
      ratio(hits, hits + static_cast<double>(p1.alloc_slab - p0.alloc_slab)),
      "ratio");
  add(layer, "pool.slab_mb", static_cast<double>(p1.slab_bytes) / 1048576.0,
      "MB");
  add(layer, "pool.overflow_push_per_kop",
      1e3 * ratio(static_cast<double>(p1.overflow_push - p0.overflow_push),
                  ops_d),
      "1/kop");
  add(layer, "pool.alloc_fallback",
      static_cast<double>(p1.alloc_fallback - p0.alloc_fallback), "count");
  add(layer, "driver.cpu_util",
      ratio(static_cast<double>(timed.cpu_ns) / 1e9, timed_s * threads),
      "ratio");
  {
    std::vector<double> per_thread;
    for (const Worker& w : workers) {
      per_thread.push_back(
          static_cast<double>(w.at[stop].ops - w.at[1].ops));
    }
    const double n = static_cast<double>(per_thread.size());
    double mean = 0, var = 0;
    for (double v : per_thread) mean += v / n;
    for (double v : per_thread) var += (v - mean) * (v - mean) / n;
    add(layer, "driver.thread_imbalance", ratio(std::sqrt(var), mean),
        "ratio");
  }

  if (opt.trace) {
    const double traced_tput = median_of(traced_subs, &SubWindow::mops);
    span_metrics(spans, layer);
    add(layer, "trace.overhead_pct",
        100.0 * ratio(throughput - traced_tput, throughput), "%");

    std::vector<Metric> iso;
    time_tree_lookup(*tree, wl.key_range, opt.seed, iso);
    time_tree_update(*tree, wl.key_range, opt.seed, iso);
    time_treap(static_cast<std::size_t>(
                   std::llround(snap1.topo.mean_occupancy())),
               keys, wl.key_range, opt.seed, iso);
    time_reclaim_and_pool(iso);
    auto get = [&](const char* name) {
      for (const Metric& m : iso) {
        if (m.name == name) return m.value;
      }
      return 0.0;
    };
    layer.insert(layer.end(), iso.begin(), iso.end());
    // What the isolated layers do not explain.  A lookup is a guard, the
    // route descent and a container lookup; an update additionally copies
    // a path, publishes with a CAS and retires the old version.
    add(layer, "lfca.lookup_residual_ns",
        get("lfca.lookup_1t_ns") - get("ebr.guard_ns") -
            get("treap.lookup_ns"),
        "ns");
    add(layer, "lfca.update_residual_ns",
        get("lfca.update_1t_ns") - get("ebr.guard_ns") -
            0.5 * (get("treap.insert_ns") + get("treap.remove_ns")) -
            ratio(retired, updates) * get("ebr.retire_ns"),
        "ns");
  }
  tree.reset();

  // --- document -----------------------------------------------------------
  std::printf("{\"workload\": %s, \"seed\": %" PRIu64
              ", \"seconds\": %s, \"trace\": %d, \"threads\": %d, "
              "\"key_range\": %" PRId64 ", \"mix\": {\"update_pm\": %u, "
              "\"lookup_pm\": %u, \"range_pm\": %u, \"range_max\": %" PRId64
              "}, \"setup_reps\": %d, \"warmup_settled\": %s, "
              "\"host\": {\"nproc\": %ld, \"cpu_model\": %s, "
              "\"l2_bytes\": %ld, \"l3_bytes\": %ld}, "
              "\"build\": {\"compiler\": %s, \"build_type\": %s, "
              "\"cats_obs\": %d, \"cats_pool\": %d, \"cats_checked\": %d}, "
              "\"checks\": {\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"setup_failed\": %" PRIu64 ", \"op_failed\": %" PRIu64
              ", \"size\": %" PRIu64 ", \"expected_size\": %" PRIu64
              ", \"integrity\": %s}, \"samples\": %s, \"end_to_end\": %s, "
              "\"per_layer\": %s}\n",
              json_string(wl.name).c_str(), opt.seed,
              json_number(opt.seconds).c_str(), opt.trace ? 1 : 0, threads,
              wl.key_range, wl.update_pm, wl.lookup_pm,
              1000 - wl.update_pm - wl.lookup_pm, wl.range_max, setup_reps,
              settled ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN),
              json_string(cpu_model()).c_str(), sysconf(_SC_LEVEL2_CACHE_SIZE),
              sysconf(_SC_LEVEL3_CACHE_SIZE),
              json_string(PERFBENCH_COMPILER).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str(), CATS_OBS_ENABLED,
              CATS_POOL_ENABLED, CATS_CHECKED_ENABLED, attempted, failed,
              setup_failed, op_failed, size, expected_size,
              integrity ? "true" : "false", metrics_json(samples).c_str(),
              metrics_json(e2e).c_str(), metrics_json(layer).c_str());
  return 0;
}

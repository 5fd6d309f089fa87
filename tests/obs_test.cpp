// Tests for the observability layer (src/obs): sharded counters, log-scale
// histograms, the shard ring behind the adaptation trace and the flight
// recorder, and the exporters (table / JSON round-trip / Prometheus).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "lfca/lfca_tree.hpp"
#include "obs/counters.hpp"
#include "obs/export.hpp"
#include "obs/flight/annot.hpp"
#include "obs/flight/flight.hpp"
#include "obs/flight/perf_counters.hpp"
#include "obs/flight/perfetto.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace {

using namespace cats;

// ---------------------------------------------------------------------------
// Sharded counters.
// ---------------------------------------------------------------------------

TEST(ObsCounters, SingleThreadAddAndRead) {
  obs::ShardedCounters<4> c;
  EXPECT_EQ(c.read(0), 0u);
  c.add(0);
  c.add(0, 41);
  c.add(3, 7);
  EXPECT_EQ(c.read(0), 42u);
  EXPECT_EQ(c.read(1), 0u);
  EXPECT_EQ(c.read(3), 7u);
  c.reset();
  EXPECT_EQ(c.read(0), 0u);
  EXPECT_EQ(c.read(3), 0u);
}

TEST(ObsCounters, AggregatesAcrossThreads) {
  obs::ShardedCounters<2> c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAdds = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kAdds; ++i) c.add(1, 3);
    });
  }
  for (auto& t : threads) t.join();
  // Exact in quiescence: every relaxed increment landed in some shard.
  EXPECT_EQ(c.read(1), kThreads * kAdds * 3);
  EXPECT_EQ(c.read(0), 0u);
}

TEST(ObsCounters, ShardIndexStablePerThread) {
  const std::size_t mine = obs::shard_index();
  EXPECT_EQ(obs::shard_index(), mine);
  EXPECT_LT(mine, obs::kShards);
}

// ---------------------------------------------------------------------------
// Log-scale histograms.
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketBoundaries) {
  EXPECT_EQ(obs::histogram_bucket(0), 0u);
  EXPECT_EQ(obs::histogram_bucket(1), 1u);
  EXPECT_EQ(obs::histogram_bucket(2), 2u);
  EXPECT_EQ(obs::histogram_bucket(3), 2u);
  EXPECT_EQ(obs::histogram_bucket(4), 3u);
  EXPECT_EQ(obs::histogram_bucket(255), 8u);
  EXPECT_EQ(obs::histogram_bucket(256), 9u);
  EXPECT_EQ(obs::histogram_bucket(std::numeric_limits<std::uint64_t>::max()),
            obs::kHistogramBuckets - 1);

  EXPECT_EQ(obs::bucket_low(0), 0u);
  EXPECT_EQ(obs::bucket_high(0), 0u);
  EXPECT_EQ(obs::bucket_low(1), 1u);
  EXPECT_EQ(obs::bucket_high(1), 1u);
  EXPECT_EQ(obs::bucket_low(8), 128u);
  EXPECT_EQ(obs::bucket_high(8), 255u);
  EXPECT_EQ(obs::bucket_high(obs::kHistogramBuckets - 1),
            std::numeric_limits<std::uint64_t>::max());

  // Every sample falls inside its own bucket's [low, high] range.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 7ull, 8ull, 1023ull,
                          1024ull, 123456789ull}) {
    const std::size_t b = obs::histogram_bucket(v);
    EXPECT_GE(v, obs::bucket_low(b)) << v;
    EXPECT_LE(v, obs::bucket_high(b)) << v;
  }
}

TEST(ObsHistogram, RecordSnapshotQuantiles) {
  obs::LogHistogram h;
  for (int i = 0; i < 10; ++i) h.record(1);
  for (int i = 0; i < 90; ++i) h.record(1024);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 10u + 90u * 1024u);
  EXPECT_EQ(s.buckets[1], 10u);
  EXPECT_EQ(s.buckets[11], 90u);  // 1024 in [1024, 2047]
  EXPECT_EQ(s.quantile_bound(0.05), 1u);
  EXPECT_EQ(s.quantile_bound(0.5), 2047u);
  EXPECT_EQ(s.quantile_bound(0.99), 2047u);
  EXPECT_NEAR(s.mean(), (10.0 + 90.0 * 1024.0) / 100.0, 1e-9);

  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(ObsHistogram, InterpolatedQuantiles) {
  // Empty histogram: every quantile is 0.
  obs::HistogramSnapshot empty{};
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  // Point mass: a single-value bucket interpolates to the value itself.
  obs::LogHistogram point;
  for (int i = 0; i < 100; ++i) point.record(1);
  EXPECT_DOUBLE_EQ(point.snapshot().quantile(0.01), 1.0);
  EXPECT_DOUBLE_EQ(point.snapshot().quantile(0.99), 1.0);

  // Two-mode distribution: 10 samples at 1, 90 in [1024, 2047].  The rank
  // interpolation lands q inside the wide bucket at the exact fraction:
  //   p50: rank 50, 10 below the bucket, (50-10)/90 of the way through.
  obs::LogHistogram h;
  for (int i = 0; i < 10; ++i) h.record(1);
  for (int i = 0; i < 90; ++i) h.record(1024);
  const obs::HistogramSnapshot s = h.snapshot();
  const double lo = 1024.0, hi = 2047.0;
  EXPECT_NEAR(s.quantile(0.5), lo + (50.0 - 10.0) / 90.0 * (hi - lo), 1e-9);
  EXPECT_NEAR(s.quantile(0.9), lo + (90.0 - 10.0) / 90.0 * (hi - lo), 1e-9);
  EXPECT_NEAR(s.quantile(0.99), lo + (99.0 - 10.0) / 90.0 * (hi - lo), 1e-9);
  // Ranks entirely inside the low bucket stay there.
  EXPECT_DOUBLE_EQ(s.quantile(0.05), 1.0);
  // Quantiles are monotone in q and clamp out-of-range q.
  double prev = 0.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = s.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(s.quantile(-1.0), s.quantile(0.0));
  EXPECT_DOUBLE_EQ(s.quantile(2.0), s.quantile(1.0));
  // The interpolated estimate never exceeds the conservative bound.
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_LE(s.quantile(q), static_cast<double>(s.quantile_bound(q)));
  }
}

TEST(ObsHistogram, MergesAcrossThreads) {
  obs::LogHistogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kSamples = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kSamples; ++i) {
        h.record(static_cast<std::uint64_t>(t) + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kSamples);
  EXPECT_EQ(s.sum, (1u + 2u + 3u + 4u) * kSamples);
}

// ---------------------------------------------------------------------------
// Adaptation trace.
// ---------------------------------------------------------------------------

TEST(ObsTrace, RecordsAndDumpsInOrder) {
  obs::AdaptTrace trace;
  trace.record(obs::AdaptKind::kSplit, 2, 1001);
  trace.record(obs::AdaptKind::kJoin, 3, -1005);
  trace.record(obs::AdaptKind::kJoinAborted, 1, -1002);
  const auto events = trace.dump();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, obs::AdaptKind::kSplit);
  EXPECT_EQ(events[0].items, 2u);
  EXPECT_EQ(events[0].stat, 1001);
  EXPECT_EQ(events[1].kind, obs::AdaptKind::kJoin);
  EXPECT_EQ(events[2].kind, obs::AdaptKind::kJoinAborted);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time_ns, events[i].time_ns);
  }
}

TEST(ObsTrace, RingWrapsKeepingNewestEntries) {
  obs::AdaptTrace trace;
  constexpr std::uint64_t kExtra = 100;
  const std::uint64_t total = obs::AdaptTrace::kRingSize + kExtra;
  for (std::uint64_t i = 0; i < total; ++i) {
    trace.record(obs::AdaptKind::kSplit, 0, static_cast<std::int32_t>(i));
  }
  EXPECT_EQ(trace.recorded(), total);
  const auto events = trace.dump();
  ASSERT_EQ(events.size(), obs::AdaptTrace::kRingSize);
  // The oldest kExtra entries were overwritten; the dump holds exactly the
  // newest kRingSize, still in order.
  std::int32_t min_stat = events[0].stat, max_stat = events[0].stat;
  for (const auto& e : events) {
    min_stat = std::min(min_stat, e.stat);
    max_stat = std::max(max_stat, e.stat);
  }
  EXPECT_EQ(min_stat, static_cast<std::int32_t>(kExtra));
  EXPECT_EQ(max_stat, static_cast<std::int32_t>(total - 1));

  trace.reset();
  EXPECT_EQ(trace.recorded(), 0u);
  EXPECT_TRUE(trace.dump().empty());
}

TEST(ObsTrace, ConcurrentRecordAndDump) {
  obs::AdaptTrace trace;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&trace, &stop] {
      std::int32_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        trace.record(obs::AdaptKind::kJoin, 1, i++);
      }
    });
  }
  // Dump while writers wrap their rings; every surviving entry must be
  // intact (the seq tags drop torn slots).
  for (int round = 0; round < 50; ++round) {
    for (const auto& e : trace.dump()) {
      EXPECT_EQ(e.kind, obs::AdaptKind::kJoin);
      EXPECT_EQ(e.items, 1u);
      EXPECT_GE(e.stat, 0);
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

// More live threads than shards: shards are handed out round-robin, so
// eight rings get two writers.  Each must claim its own sequence number —
// no event may be lost from recorded() or torn in the dump.
TEST(ObsRing, SharedShardWritersLoseNothing) {
  constexpr int kThreads = static_cast<int>(obs::kShards) + 8;
  constexpr std::int32_t kEvents = 20'000;
  obs::AdaptTrace trace;
  for (int round = 0; round < 5; ++round) {
    trace.reset();
    std::atomic<bool> go{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&trace, &go, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const auto kind =
            t % 2 == 0 ? obs::AdaptKind::kSplit : obs::AdaptKind::kJoin;
        for (std::int32_t i = 0; i < kEvents; ++i) {
          trace.record(kind, static_cast<std::uint32_t>(t), t * kEvents + i);
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& w : writers) w.join();
    ASSERT_EQ(trace.recorded(),
              static_cast<std::uint64_t>(kThreads) * kEvents)
        << "round " << round;
    const auto events = trace.dump();
    EXPECT_LE(events.size(), obs::kShards * obs::AdaptTrace::kRingSize);
    for (const auto& e : events) {
      // Every field of an entry comes from the same record() call.
      ASSERT_LT(e.items, static_cast<std::uint32_t>(kThreads));
      const auto t = static_cast<std::int32_t>(e.items);
      ASSERT_EQ(e.kind,
                t % 2 == 0 ? obs::AdaptKind::kSplit : obs::AdaptKind::kJoin);
      ASSERT_GE(e.stat, t * kEvents);
      ASSERT_LT(e.stat, (t + 1) * kEvents);
      ASSERT_LT(e.thread, obs::kShards);
    }
  }
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

obs::Snapshot make_test_snapshot() {
  obs::Snapshot snap;
  snap.add_counter("alpha", 42);
  snap.add_counter("weird \"name\"\n", 7);
  snap.add_gauge("backlog", 2.5);
  obs::LogHistogram h;
  h.record(0);
  h.record(1);
  h.record(100);
  h.record(1'000'000);
  snap.add_histogram("lat", h.snapshot());
  obs::TraceEvent e;
  e.time_ns = 123;
  e.kind = obs::AdaptKind::kJoin;
  e.items = 3;
  e.stat = -5;
  e.thread = 1;
  snap.events.push_back(e);
  return snap;
}

TEST(ObsExport, JsonRoundTrip) {
  const obs::Snapshot snap = make_test_snapshot();
  std::ostringstream os;
  obs::write_json(os, snap);
  const obs::json::Value doc = obs::json::parse(os.str());

  EXPECT_EQ(doc.at("counters").at("alpha").as_uint(), 42u);
  EXPECT_EQ(doc.at("counters").at("weird \"name\"\n").as_uint(), 7u);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("backlog").as_number(), 2.5);

  const obs::json::Value& lat = doc.at("histograms").at("lat");
  EXPECT_EQ(lat.at("count").as_uint(), 4u);
  EXPECT_EQ(lat.at("sum").as_uint(), 1'000'101u);
  // Samples 0, 1, 100, 1000000 land in buckets 0, 1, 7, 20.
  const obs::json::Array& buckets = lat.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].at("bucket").as_uint(), 0u);
  EXPECT_EQ(buckets[1].at("bucket").as_uint(), 1u);
  EXPECT_EQ(buckets[2].at("bucket").as_uint(), 7u);
  EXPECT_EQ(buckets[2].at("low").as_uint(), 64u);
  EXPECT_EQ(buckets[3].at("bucket").as_uint(), 20u);
  for (const auto& b : buckets) EXPECT_EQ(b.at("count").as_uint(), 1u);

  const obs::json::Array& trace = doc.at("trace").as_array();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].at("t_ns").as_uint(), 123u);
  EXPECT_EQ(trace[0].at("kind").as_string(), "join");
  EXPECT_EQ(trace[0].at("items").as_uint(), 3u);
  EXPECT_DOUBLE_EQ(trace[0].at("stat").as_number(), -5.0);
}

TEST(ObsExport, JsonParserRejectsMalformedInput) {
  EXPECT_THROW(obs::json::parse(""), std::runtime_error);
  EXPECT_THROW(obs::json::parse("{"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("[1,2,]"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("123 trailing"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("\"unterminated"), std::runtime_error);
}

TEST(ObsExport, PrometheusContainsMetrics) {
  const obs::Snapshot snap = make_test_snapshot();

  std::ostringstream prom;
  obs::write_prometheus(prom, snap);
  const std::string text = prom.str();
  EXPECT_NE(text.find("# TYPE cats_alpha counter"), std::string::npos);
  EXPECT_NE(text.find("cats_alpha 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cats_lat histogram"), std::string::npos);
  EXPECT_NE(text.find("cats_lat_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(text.find("cats_lat_sum 1000101"), std::string::npos);
  EXPECT_NE(text.find("cats_adaptation_events 1"), std::string::npos);
}

TEST(ObsExport, PrometheusEmitsInterpolatedQuantiles) {
  obs::Snapshot snap;
  obs::LogHistogram h;
  for (int i = 0; i < 10; ++i) h.record(1);
  for (int i = 0; i < 90; ++i) h.record(1024);
  snap.add_histogram("lat", h.snapshot());

  std::ostringstream prom;
  obs::write_prometheus(prom, snap);
  const std::string text = prom.str();
  EXPECT_NE(text.find("# TYPE cats_lat_quantile gauge"), std::string::npos);
  EXPECT_NE(text.find("cats_lat_quantile{q=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("cats_lat_quantile{q=\"0.9\"}"), std::string::npos);
  EXPECT_NE(text.find("cats_lat_quantile{q=\"0.99\"}"), std::string::npos);
}

TEST(ObsExport, SnapshotCounterLookup) {
  const obs::Snapshot snap = make_test_snapshot();
  EXPECT_EQ(snap.counter("alpha"), 42u);
  EXPECT_EQ(snap.counter("absent"), 0u);
}

#if CATS_OBS_ENABLED
// ---------------------------------------------------------------------------
// Non-destructive registry snapshots: the monitor's delta sampling relies
// on snapshot() leaving the counters untouched (reset() is quiescent-only).
// ---------------------------------------------------------------------------

TEST(ObsRegistry, SnapshotIsNonDestructive) {
  obs::Registry& reg = obs::Registry::instance();
  const obs::RegistryValues before = reg.snapshot();

  obs::count(obs::GCounter::kHarnessOps, 5);
  obs::record(obs::GHistogram::kLookupLatencyNs, 100);

  const obs::RegistryValues a = reg.snapshot();
  const obs::RegistryValues b = reg.snapshot();
  EXPECT_EQ(a.counter(obs::GCounter::kHarnessOps),
            before.counter(obs::GCounter::kHarnessOps) + 5);
  // Reading twice returns the same values — nothing was consumed.
  EXPECT_EQ(b.counter(obs::GCounter::kHarnessOps),
            a.counter(obs::GCounter::kHarnessOps));
  EXPECT_EQ(b.histogram(obs::GHistogram::kLookupLatencyNs).count,
            a.histogram(obs::GHistogram::kLookupLatencyNs).count);

  obs::count(obs::GCounter::kHarnessOps, 2);
  const obs::RegistryValues c = reg.snapshot();
  EXPECT_EQ(c.counter(obs::GCounter::kHarnessOps),
            a.counter(obs::GCounter::kHarnessOps) + 2);
}
#endif  // CATS_OBS_ENABLED

// ---------------------------------------------------------------------------
// Integration with the tree: paper counters flow into snapshots, and (in
// CATS_OBS builds) adaptations land in the global trace.
// ---------------------------------------------------------------------------

TEST(ObsIntegration, TreeStatsAppendToSnapshot) {
  reclaim::Domain domain;
  {
    lfca::LfcaTree tree(domain);
    for (Key k = 1; k <= 256; ++k) tree.insert(k, k);
    ASSERT_TRUE(tree.force_split(128));
    const lfca::Stats stats = tree.stats();
    EXPECT_GE(stats.splits, 1u);

    obs::Snapshot snap;
    stats.append_to(snap, "lfca_");
    EXPECT_EQ(snap.counter("lfca_splits"), stats.splits);

    std::ostringstream os;
    obs::write_json(os, snap);
    const obs::json::Value doc = obs::json::parse(os.str());
    EXPECT_EQ(doc.at("counters").at("lfca_splits").as_uint(), stats.splits);
  }
  domain.drain();
}

#if CATS_OBS_ENABLED
TEST(ObsIntegration, ForcedAdaptationsReachGlobalTrace) {
  obs::Registry::instance().reset();
  reclaim::Domain domain;
  {
    lfca::LfcaTree tree(domain);
    for (Key k = 1; k <= 256; ++k) tree.insert(k, k);
    ASSERT_TRUE(tree.force_split(128));
    ASSERT_TRUE(tree.force_join(128));
  }
  domain.drain();

  const obs::Snapshot snap = obs::global_snapshot();
  bool saw_split = false, saw_join = false;
  for (const auto& e : snap.events) {
    saw_split |= e.kind == obs::AdaptKind::kSplit;
    saw_join |= e.kind == obs::AdaptKind::kJoin;
  }
  EXPECT_TRUE(saw_split);
  EXPECT_TRUE(saw_join);
  EXPECT_GT(snap.counter("ebr_retired"), 0u);
  EXPECT_GT(snap.counter("treap_node_allocs"), 0u);
}

// An adaptation event carries the adapted base's item count: the split
// event the pre-split size, the join event the joining base's share.
TEST(ObsIntegration, ForcedSplitTraceCarriesPreSplitSize) {
  obs::Registry::instance().reset();
  reclaim::Domain domain;
  {
    lfca::LfcaTree tree(domain);
    for (Key k = 1; k <= 256; ++k) tree.insert(k, k);
    ASSERT_TRUE(tree.force_split(128));
    ASSERT_TRUE(tree.force_join(1));
  }
  domain.drain();

  std::vector<obs::TraceEvent> splits, joins;
  for (const auto& e : obs::global_snapshot().events) {
    if (e.kind == obs::AdaptKind::kSplit) splits.push_back(e);
    if (e.kind == obs::AdaptKind::kJoin) joins.push_back(e);
  }
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0].items, 256u);
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_GT(joins[0].items, 0u);
  EXPECT_LT(joins[0].items, 256u);
}

// Epoch advances are counted (ebr_advances), not traced: the adaptation
// rings keep their capacity for splits and joins.
TEST(ObsIntegration, EpochAdvancesStayOutOfTheAdaptationTrace) {
  obs::Registry& reg = obs::Registry::instance();
  reg.reset();
  reclaim::Domain domain;
  const std::uint64_t epoch_before = domain.epoch();
  domain.drain();  // forces three advances
  EXPECT_EQ(domain.epoch(), epoch_before + 3);
  EXPECT_EQ(reg.read(obs::GCounter::kEbrAdvances), 3u);
  EXPECT_EQ(reg.trace().recorded(), 0u);
}
#endif  // CATS_OBS_ENABLED

// ---------------------------------------------------------------------------
// Flight recorder: sampling, ring accounting, cross-thread merge, the
// Perfetto writer, and the perf-counter wrapper.
// ---------------------------------------------------------------------------

TEST(Flight, DisabledPathIsInert) {
  obs::flight::Recorder::instance().disable();
  const obs::flight::SpanStart s = obs::flight::begin_span();
  EXPECT_FALSE(s.active);
  obs::flight::end_span(s, obs::flight::SpanKind::kInsert, 1);  // no-op
  EXPECT_FALSE(obs::flight::Recorder::instance().enabled());
  EXPECT_EQ(obs::flight::Recorder::instance().sample_shift(), -1);
}

#if CATS_OBS_ENABLED

TEST(Flight, SpanRecordsAnnotationDeltas) {
  auto& rec = obs::flight::Recorder::instance();
  rec.enable(0);  // sample every op; enable() also clears the rings
  ASSERT_TRUE(rec.enabled());
  EXPECT_EQ(rec.sample_shift(), 0);
  EXPECT_GT(rec.ticks_per_ns(), 0.0);

  const obs::flight::SpanStart s = obs::flight::begin_span();
  ASSERT_TRUE(s.active);
  obs::flight::note_cas_fail();
  obs::flight::note_cas_fail();
  obs::flight::note_epoch_wait();
  obs::flight::note_pool_refill();
  obs::flight::end_span(s, obs::flight::SpanKind::kInsert, 42);
  rec.disable();

  const std::vector<obs::flight::SpanEvent> spans = rec.dump();
  ASSERT_EQ(spans.size(), 1u);
  const obs::flight::SpanEvent& e = spans[0];
  EXPECT_EQ(e.kind, obs::flight::SpanKind::kInsert);
  EXPECT_EQ(e.key_hash, static_cast<std::uint32_t>(mix64(42)));
  // Only the notes above happened inside the span, so the deltas are exact.
  EXPECT_EQ(e.cas_fails, 2u);
  EXPECT_EQ(e.epoch_waits, 1u);
  EXPECT_EQ(e.pool_refills, 1u);
  EXPECT_EQ(rec.recorded(), 1u);
  EXPECT_EQ(rec.dropped(), 0u);
}

// Each sampled op draws the next gap at random, mean 2^shift.  A fixed
// stride would sample only some residues of the op index — at shift 5 only
// 0 and 32 mod 64, locked onto EBR's every-64th-retirement advance.
TEST(Flight, SamplingGapsAreRandomWithMeanTwoToTheShift) {
  auto& rec = obs::flight::Recorder::instance();
  rec.enable(5);
  EXPECT_EQ(rec.sample_shift(), 5);
  constexpr std::uint64_t kOps = 1 << 16;
  constexpr std::uint64_t kPeriod = 64;
  std::vector<std::uint64_t> per_residue(kPeriod, 0);
  std::uint64_t sampled = 0;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const obs::flight::SpanStart s = obs::flight::begin_span();
    if (s.active) {
      ++sampled;
      ++per_residue[i % kPeriod];
    }
    obs::flight::end_span(s, obs::flight::SpanKind::kLookup,
                          static_cast<Key>(i));
  }
  rec.disable();
  EXPECT_EQ(rec.recorded(), sampled);
  const double expected = static_cast<double>(kOps >> 5);
  EXPECT_NEAR(static_cast<double>(sampled), expected, 0.2 * expected);
  const double per_class = expected / kPeriod;
  for (std::uint64_t r = 0; r < kPeriod; ++r) {
    EXPECT_GE(per_residue[r], 1u) << "residue " << r;
    EXPECT_LE(static_cast<double>(per_residue[r]), 3 * per_class)
        << "residue " << r;
  }
}

TEST(Flight, RingWraparoundKeepsExactAccounting) {
  auto& rec = obs::flight::Recorder::instance();
  rec.enable(0);
  constexpr std::uint64_t kExtra = 100;
  constexpr std::uint64_t kTotal =
      obs::flight::Recorder::kRingSize + kExtra;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    const obs::flight::SpanStart s = obs::flight::begin_span();
    ASSERT_TRUE(s.active);
    obs::flight::end_span(s, obs::flight::SpanKind::kRemove,
                          static_cast<Key>(i));
  }
  rec.disable();
  // Every span was counted; the ring retains the newest kRingSize and the
  // overwritten remainder is reported, not silently lost.
  EXPECT_EQ(rec.recorded(), kTotal);
  EXPECT_EQ(rec.dropped(), kExtra);
  const std::vector<obs::flight::SpanEvent> spans = rec.dump();
  EXPECT_EQ(spans.size(), obs::flight::Recorder::kRingSize);
  rec.reset();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.dump().size(), 0u);
}

TEST(Flight, DumpMergesThreadsInTimestampOrder) {
  auto& rec = obs::flight::Recorder::instance();
  rec.enable(0);
  constexpr int kThreads = 6;
  constexpr std::uint64_t kSpansPerThread = 50;
  // Sequential spawn-and-join: shard assignment is round-robin, so each
  // new thread writes a distinct ring and nothing is lost to sharing.
  for (int t = 0; t < kThreads; ++t) {
    std::thread([t] {
      for (std::uint64_t i = 0; i < kSpansPerThread; ++i) {
        const obs::flight::SpanStart s = obs::flight::begin_span();
        obs::flight::end_span(s, obs::flight::SpanKind::kLookup,
                              static_cast<Key>(t * 1000 + i));
      }
    }).join();
  }
  rec.disable();

  const std::vector<obs::flight::SpanEvent> spans = rec.dump();
  ASSERT_EQ(spans.size(), kThreads * kSpansPerThread);
  std::vector<bool> seen_thread(obs::kShards, false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(spans[i - 1].t_ns, spans[i].t_ns) << "unsorted at " << i;
    }
    ASSERT_LT(spans[i].thread, obs::kShards);
    seen_thread[spans[i].thread] = true;
  }
  std::size_t distinct = 0;
  for (bool b : seen_thread) distinct += b;
  EXPECT_GE(distinct, 2u);
}

TEST(Flight, ChromeTraceJsonSchema) {
  std::vector<obs::flight::SpanEvent> spans(2);
  spans[0].t_ns = 1000;  // 1.000 us
  spans[0].dur_ns = 2500;
  spans[0].kind = obs::flight::SpanKind::kInsert;
  spans[0].key_hash = 7;
  spans[0].thread = 3;
  spans[0].cas_fails = 2;
  spans[0].epoch_waits = 1;
  spans[1].t_ns = 5000;
  spans[1].dur_ns = 100;
  spans[1].kind = obs::flight::SpanKind::kRange;
  spans[1].thread = 4;

  std::vector<obs::TraceEvent> instants(1);
  instants[0].time_ns = 1500;
  instants[0].kind = obs::AdaptKind::kSplit;
  instants[0].items = 2;
  instants[0].stat = 5;
  instants[0].thread = 1;

  std::ostringstream os;
  obs::flight::write_chrome_trace(os, spans, instants);
  const obs::json::Value doc = obs::json::parse(os.str());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");

  std::size_t meta = 0, complete = 0, instant = 0;
  std::uint64_t last_ts_ns = 0;
  for (const obs::json::Value& ev : doc.at("traceEvents").as_array()) {
    const std::string ph = ev.at("ph").as_string();
    if (ph == "M") {
      ++meta;
      continue;
    }
    // Event rows are merged chronologically (ts is microseconds).
    const auto ts_ns =
        static_cast<std::uint64_t>(ev.at("ts").as_number() * 1000.0 + 0.5);
    EXPECT_GE(ts_ns, last_ts_ns);
    last_ts_ns = ts_ns;
    if (ph == "X") {
      ++complete;
      if (ev.at("name").as_string() == "insert") {
        EXPECT_DOUBLE_EQ(ev.at("ts").as_number(), 1.0);
        EXPECT_DOUBLE_EQ(ev.at("dur").as_number(), 2.5);
        EXPECT_EQ(ev.at("tid").as_uint(), 3u);
        EXPECT_EQ(ev.at("args").at("key_hash").as_uint(), 7u);
        EXPECT_EQ(ev.at("args").at("cas_fails").as_uint(), 2u);
        EXPECT_EQ(ev.at("args").at("epoch_waits").as_uint(), 1u);
        EXPECT_EQ(ev.at("args").at("pool_refills").as_uint(), 0u);
      } else {
        EXPECT_EQ(ev.at("name").as_string(), "range");
      }
    } else {
      ASSERT_EQ(ph, "i");
      ++instant;
      EXPECT_EQ(ev.at("name").as_string(), "split");
      EXPECT_EQ(ev.at("s").as_string(), "g");
      EXPECT_DOUBLE_EQ(ev.at("ts").as_number(), 1.5);
      EXPECT_EQ(ev.at("args").at("items").as_uint(), 2u);
      EXPECT_EQ(ev.at("args").at("stat").as_uint(), 5u);
    }
  }
  // process_name plus one thread_name per used track (tids 1, 3, 4).
  EXPECT_EQ(meta, 4u);
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(instant, 1u);
}

// Producers record spans while the exporter dumps and serializes
// concurrently — the seqlock discipline must keep this clean under TSan.
TEST(Flight, ConcurrentProducersAndExporter) {
  auto& rec = obs::flight::Recorder::instance();
  rec.enable(4);  // 1 in 16: sampled and unsampled paths both exercised
  constexpr int kProducers = 4;
  constexpr std::uint64_t kOps = 20'000;
  std::atomic<int> running{kProducers};
  std::atomic<std::uint64_t> sampled{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([t, &running, &sampled] {
      std::uint64_t mine = 0;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const obs::flight::SpanStart s = obs::flight::begin_span();
        mine += s.active;
        obs::flight::end_span(s, static_cast<obs::flight::SpanKind>(i % 4),
                              static_cast<Key>(t * kOps + i));
      }
      sampled.fetch_add(mine, std::memory_order_relaxed);
      running.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  // Export continuously while the producers write; each dump must come
  // back sorted and each serialization well-formed even mid-overwrite.
  do {
    const std::vector<obs::flight::SpanEvent> spans = rec.dump();
    for (std::size_t i = 1; i < spans.size(); ++i) {
      ASSERT_LE(spans[i - 1].t_ns, spans[i].t_ns);
    }
    std::ostringstream os;
    obs::flight::write_chrome_trace(os);
    EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
  } while (running.load(std::memory_order_relaxed) > 0);
  for (auto& p : producers) p.join();
  rec.disable();
  // Quiescent again: every sampled op left one span, about 1 in 16.
  EXPECT_EQ(rec.recorded(), sampled.load());
  const double expected = static_cast<double>(kProducers * kOps / 16);
  EXPECT_NEAR(static_cast<double>(sampled.load()), expected, 0.2 * expected);
}

TEST(Flight, PerfCountersDegradeGracefully) {
  obs::flight::ThreadPerf perf;
  perf.start();
  // A little work so available counters read something nonzero.
  std::uint64_t sink = 0;
  for (int i = 0; i < 100'000; ++i) sink += static_cast<std::uint64_t>(i);
  const obs::flight::PerfCounts c = perf.stop();
  EXPECT_EQ(sink, 99'999ull * 100'000 / 2);
  if (c.available) {
    EXPECT_GT(c.cycles, 0u);
    EXPECT_GT(c.instructions, 0u);
    EXPECT_EQ(c.threads, 1u);
    EXPECT_GT(c.ipc(), 0.0);
  } else {
    // The contract: never fail, always say why.
    EXPECT_FALSE(c.unavailable_reason.empty());
    EXPECT_EQ(c.cycles, 0u);
  }
}

TEST(Flight, PerfPhaseTotalsRoundTrip) {
  obs::flight::perf_phase_reset();
  obs::flight::PerfCounts a;
  a.available = true;
  a.cycles = 1000;
  a.instructions = 2000;
  a.threads = 1;
  obs::flight::perf_phase_add("unit_phase", a);
  obs::flight::perf_phase_add("unit_phase", a);

  bool found = false;
  for (const auto& [phase, total] : obs::flight::perf_phase_totals()) {
    if (phase != "unit_phase") continue;
    found = true;
    EXPECT_TRUE(total.available);
    EXPECT_EQ(total.cycles, 2000u);
    EXPECT_EQ(total.instructions, 4000u);
    EXPECT_EQ(total.threads, 2u);
    EXPECT_DOUBLE_EQ(total.ipc(), 2.0);
  }
  EXPECT_TRUE(found);

  obs::Snapshot snap;
  obs::flight::append_perf_phases(snap);
  bool saw_cycles = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "perf_unit_phase_cycles") {
      saw_cycles = true;
      EXPECT_DOUBLE_EQ(value, 2000.0);
    }
  }
  EXPECT_TRUE(saw_cycles);

  obs::flight::perf_phase_reset();
  EXPECT_TRUE(obs::flight::perf_phase_totals().empty());
}

TEST(ObsExport, PrometheusHotBaseLabeledGauges) {
  obs::Snapshot snap;
  for (std::uint32_t rank = 0; rank < 2; ++rank) {
    obs::BaseHeat base;
    base.depth = rank + 1;
    base.key_lo = 128 * rank;
    base.cas_fails = 50 - rank;
    base.helps = 5;
    base.items = 100;
    snap.hot_bases.push_back({"lfca_topo_hot_base", rank, base});
  }
  std::ostringstream os;
  obs::write_prometheus(os, snap);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE cats_lfca_topo_hot_base_cas_fails gauge"),
            std::string::npos);
  EXPECT_NE(text.find("cats_lfca_topo_hot_base_cas_fails{rank=\"0\","
                      "depth=\"1\",key_lo=\"0\"} 50"),
            std::string::npos);
  EXPECT_NE(text.find("cats_lfca_topo_hot_base_cas_fails{rank=\"1\","
                      "depth=\"2\",key_lo=\"128\"} 49"),
            std::string::npos);
  EXPECT_NE(text.find("cats_lfca_topo_hot_base_helps{rank=\"0\","),
            std::string::npos);
  // One TYPE line per family, not per sample.
  std::size_t type_lines = 0;
  for (std::size_t pos = 0;
       (pos = text.find("# TYPE cats_lfca_topo_hot_base_cas_fails", pos)) !=
       std::string::npos;
       ++pos) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
}

#endif  // CATS_OBS_ENABLED

}  // namespace

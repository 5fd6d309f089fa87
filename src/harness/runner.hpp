// Multi-threaded throughput measurement engine.
//
// Mirrors the paper's benchmark driver (§7): N threads execute a random
// operation mix against one shared structure for a fixed wall-clock
// duration after a pre-fill phase; throughput is reported in operations per
// microsecond.  Thread groups may run different mixes (Fig. 10).  Range
// queries compute the sum and count of the items in the range, and the
// harness tracks the average traversed items per query as the paper's
// sanity check.
//
// Works with any structure exposing the shared interface:
//   bool insert(Key, Value); bool remove(Key);
//   bool lookup(Key, Value*); void range_query(Key, Key, ItemVisitor).
#pragma once

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "common/padded.hpp"
#include "common/rng.hpp"
#include "common/spin_barrier.hpp"
#include "common/types.hpp"
#include "harness/cli.hpp"
#include "harness/workload.hpp"
#include "lfca/config.hpp"
#include "obs/export.hpp"
#include "obs/flight/flight.hpp"
#include "obs/flight/perf_counters.hpp"
#include "obs/http_server.hpp"
#include "obs/monitor.hpp"
#include "obs/registry.hpp"
#include "reclaim/ebr.hpp"

#if CATS_OBS_ENABLED
#include "obs/flight/perfetto.hpp"
#endif

namespace cats::harness {

/// The LFCA heuristic constants selected by --high-cont, --low-cont and
/// --cont-contrib; every other constant keeps the paper's value.
inline lfca::Config lfca_config(const Options& opt) {
  lfca::Config config;
  config.high_cont = opt.high_cont;
  config.low_cont = opt.low_cont;
  config.cont_contrib = opt.cont_contrib;
  return config;
}

/// Any LFCA tree instantiation (either container, either key type).
template <class S>
concept LfcaTreeType = requires(const S& s) {
  { s.config() } -> std::same_as<const lfca::Config&>;
};

/// Builds a structure for a benchmark run on the global EBR domain.  LFCA
/// trees get `config`; the baselines have no such heuristic.
template <class S>
std::unique_ptr<S> make_structure(const lfca::Config& config) {
  if constexpr (LfcaTreeType<S>) {
    return std::make_unique<S>(reclaim::Domain::global(), config);
  } else {
    return std::make_unique<S>();
  }
}

/// Inserts random keys from [0, key_range) until the structure holds
/// exactly key_range/2 items (the paper's pre-fill).  `Codec` maps the
/// generator's integer keys onto the structure's key type (workload.hpp);
/// the default is the identity, so integer-keyed call sites are unchanged.
template <class S, class Codec = IntKeyCodec>
void prefill(S& structure, Key key_range, std::uint64_t seed = 0xfeedbeef) {
  // Hardware counters for the prefill phase (obs builds; stub otherwise).
  obs::flight::ThreadPerf perf;
  perf.start();
  Xoshiro256 rng(seed);
  std::int64_t inserted = 0;
  const std::int64_t target = key_range / 2;
  while (inserted < target) {
    const Key k = rng.next_in(1, key_range - 1);
    if (structure.insert(Codec::encode(k), static_cast<Value>(k) + 1)) {
      ++inserted;
    }
  }
  obs::flight::perf_phase_add("prefill", perf.stop());
}

namespace detail {

struct alignas(kCacheLine) ThreadCounters {
  std::uint64_t ops = 0;
  std::uint64_t range_queries = 0;
  std::uint64_t range_items = 0;
};

}  // namespace detail

/// Runs the groups' mixes for `duration_seconds` against `structure`
/// (already pre-filled) and returns the aggregated counts.  `Codec` must
/// match the one used to prefill.  With `during`, the calling thread runs
/// it once all workers are going, and the run lasts until it returns
/// instead of for `duration_seconds`.
template <class S, class Codec = IntKeyCodec>
RunResult run_mix(S& structure, const std::vector<ThreadGroup>& groups,
                  Key key_range, double duration_seconds,
                  std::uint64_t seed = 1,
                  const std::function<void()>& during = {}) {
  int total_threads = 0;
  for (const auto& group : groups) total_threads += group.threads;

  std::vector<detail::ThreadCounters> counters(total_threads);
  std::vector<int> group_of(total_threads);
  std::vector<std::thread> threads;
  SpinBarrier barrier(total_threads + 1);
  std::atomic<bool> stop{false};

  int thread_index = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (int i = 0; i < groups[g].threads; ++i, ++thread_index) {
      group_of[thread_index] = static_cast<int>(g);
      threads.emplace_back([&, thread_index, g] {
        const Mix mix = groups[g].mix;
        Xoshiro256 rng(seed * 7919 + thread_index);
        auto& my = counters[thread_index];
        // --check-every-n-ops: run the concurrent-mode validator inside the
        // workload.  The period is fixed before the threads start.
        const std::uint64_t check_period =
            g_check_every_n_ops.load(std::memory_order_relaxed);
        // Per-thread hardware counters over the measure phase (opened on
        // the worker thread itself; perf_event_open counts the caller),
        // folded into the "measure" phase total when the thread stops.
        obs::flight::ThreadPerf perf;
        barrier.arrive_and_wait();
        perf.start();
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t dice = rng.next_below(1000);
          const Key k = rng.next_in(1, key_range - 1);
          // Flight-recorder span, the one op sampler: a sampled span also
          // feeds the latency histograms (see obs/flight/flight.hpp).
          obs::flight::SpanStart span = obs::flight::begin_span();
          obs::flight::SpanKind span_kind = obs::flight::SpanKind::kLookup;
          if (dice < mix.update_permille) {
            if ((dice & 1) == 0) {
              span_kind = obs::flight::SpanKind::kInsert;
              structure.insert(Codec::encode(k), static_cast<Value>(k) + 1);
            } else {
              span_kind = obs::flight::SpanKind::kRemove;
              structure.remove(Codec::encode(k));
            }
          } else if (dice < mix.update_permille + mix.lookup_permille) {
            Value v;
            structure.lookup(Codec::encode(k), &v);
          } else {
            span_kind = obs::flight::SpanKind::kRange;
            const std::int64_t span =
                mix.fixed_range_size
                    ? mix.range_max
                    : static_cast<std::int64_t>(
                          rng.next_below(
                              static_cast<std::uint64_t>(mix.range_max))) +
                          1;
            std::uint64_t sum = 0;
            std::uint64_t items = 0;
            structure.range_query(
                Codec::encode(k), Codec::encode(k + span - 1),
                [&](typename Codec::StructKey key, Value value) {
                  sum += Codec::weight(key) + value;
                  ++items;
                });
            // Keep the sum alive so the scan cannot be optimized away.
            if (sum == 0xdeadbeefdeadbeefull) std::abort();
            my.range_items += items;
            ++my.range_queries;
          }
          obs::flight::end_span(span, span_kind, k);
          ++my.ops;
          // Feed the process-wide op counter so a live monitor can derive
          // ops/sec; one relaxed sharded add, same cost class as the other
          // per-op hooks (`bench_paper obs` measures the total within noise).
          CATS_OBS_ONLY(obs::count(obs::GCounter::kHarnessOps));
          if (check_period != 0 && my.ops % check_period == 0) {
            if constexpr (requires(const S& s, std::string* d) {
                            { s.validate(d, false) } -> std::same_as<bool>;
                          }) {
              std::string why;
              if (!structure.validate(&why, /*expect_quiescent=*/false)) {
                check::fail(__FILE__, __LINE__,
                            "--check-every-n-ops: concurrent tree validation "
                            "failed:\n%s",
                            why.c_str());
              }
            }
          }
        }
        obs::flight::perf_phase_add("measure", perf.stop());
      });
    }
  }

  barrier.arrive_and_wait();
  const auto start = std::chrono::steady_clock::now();
  if (during) {
    during();
  } else {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(duration_seconds));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.per_thread_ops.reserve(total_threads);
  for (int t = 0; t < total_threads; ++t) {
    result.total_ops += counters[t].ops;
    result.group_ops[group_of[t]] += counters[t].ops;
    result.range_queries += counters[t].range_queries;
    result.range_items += counters[t].range_items;
    result.per_thread_ops.push_back(counters[t].ops);
  }
  return result;
}

/// Convenience: single uniform group of `threads` threads.
template <class S, class Codec = IntKeyCodec>
RunResult run_mix(S& structure, int threads, const Mix& mix, Key key_range,
                  double duration_seconds, std::uint64_t seed = 1) {
  return run_mix<S, Codec>(structure, std::vector<ThreadGroup>{{threads, mix}},
                           key_range, duration_seconds, seed);
}

// ---------------------------------------------------------------------------
// Monitored-run mode.
//
// Wraps one benchmark run in the active observability stack: the flight
// recorder at --trace-sample-shift (its spans fill the latency histograms),
// an obs::Monitor sampling rates at --monitor-interval-ms, and an
// obs::HttpServer on --monitor-port serving /metrics, /stats.json,
// /trace.json and /healthz.  finish() (or the destructor) stops them and
// writes --metrics-out, --series-out and --trace-out.  The stats source is
// the one view of the run: /metrics, /stats.json, --metrics-out and every
// series row are the same obs::Snapshot (for a tree, tree_stats_source:
// counters, lfca_* tree counters and lfca_topo_* topology).
//
// Lifetime: the source captures the structure, so a MonitoredRun must be
// declared after (destroyed before) the structure and its domain.
// ---------------------------------------------------------------------------

#if CATS_OBS_ENABLED

class MonitoredRun {
 public:
  using StatsSource = obs::Monitor::StatsSource;

  MonitoredRun(const Options& opt, StatsSource stats)
      : stats_(std::move(stats)), metrics_path_(opt.metrics_out),
        series_path_(opt.series_out), trace_path_(opt.trace_out) {
    // The flight recorder samples ops for the whole run: its spans feed
    // the latency histograms, the trace file and /trace.json.
    obs::flight::Recorder::instance().enable(
        static_cast<unsigned>(opt.trace_sample_shift));
    if (opt.monitor_interval_ms > 0) {
      obs::Monitor::Config config;
      config.interval = std::chrono::milliseconds(opt.monitor_interval_ms);
      monitor_ = std::make_unique<obs::Monitor>(config, stats_);
      monitor_->start();
    }
    if (opt.monitor_port >= 0) {
      server_ = std::make_unique<obs::HttpServer>(opt.monitor_port);
      server_->handle("/healthz", "text/plain",
                      [] { return std::string("ok\n"); });
      serve("/metrics", "text/plain; version=0.0.4",
            [src = stats_](std::ostream& os) {
              obs::write_prometheus(os, src());
            });
      serve("/stats.json", "application/json",
            [src = stats_](std::ostream& os) { obs::write_json(os, src()); });
      serve("/trace.json", "application/json",
            [](std::ostream& os) { obs::flight::write_chrome_trace(os); });
      if (server_->start()) {
        std::fprintf(stderr,
                     "monitor: serving http://127.0.0.1:%d/metrics\n",
                     server_->port());
      } else {
        server_.reset();
      }
    }
  }

  ~MonitoredRun() { finish(); }
  MonitoredRun(const MonitoredRun&) = delete;
  MonitoredRun& operator=(const MonitoredRun&) = delete;

  /// Bound HTTP port, or -1 when no endpoint is up.
  int port() const { return server_ ? server_->port() : -1; }

  /// Stops the endpoint and the sampler and writes the output files.
  /// Idempotent; also run by the destructor.
  void finish() {
    if (finished_) return;
    finished_ = true;
    if (server_) server_->stop();
    if (monitor_) monitor_->stop();
    if (!trace_path_.empty()) {
      std::ofstream out(trace_path_);
      if (out) obs::flight::write_chrome_trace(out);
      out << '\n';
      const auto& recorder = obs::flight::Recorder::instance();
      report(static_cast<bool>(out), trace_path_,
             "trace (" + std::to_string(recorder.recorded()) +
                 " spans recorded, " + std::to_string(recorder.dropped()) +
                 " overwritten)");
    }
    obs::flight::Recorder::instance().disable();
    if (!metrics_path_.empty()) {
      obs::Snapshot snap = stats_();
      // Per-phase hardware counters ride in the final snapshot only: they
      // are gathered at phase end, so the live monitor never sees them.
      obs::flight::append_perf_phases(snap);
      report(obs::write_json_file(metrics_path_, snap), metrics_path_,
             "metrics");
    }
    if (monitor_ && !series_path_.empty()) {
      report(monitor_->write_csv_file(series_path_), series_path_,
             "time series");
    }
  }

 private:
  /// Serves what `write` streams at `path`.
  template <class Write>
  void serve(const char* path, const char* type, Write write) {
    server_->handle(path, type, [write] {
      std::ostringstream os;
      write(os);
      return os.str();
    });
  }

  static void report(bool ok, const std::string& path,
                     const std::string& what) {
    if (ok) {
      std::fprintf(stderr, "monitor: %s written to %s\n", what.c_str(),
                   path.c_str());
    } else {
      std::fprintf(stderr, "monitor: failed to write %s\n", path.c_str());
    }
  }

  StatsSource stats_;
  std::string metrics_path_;
  std::string series_path_;
  std::string trace_path_;
  std::unique_ptr<obs::Monitor> monitor_;
  std::unique_ptr<obs::HttpServer> server_;
  bool finished_ = false;
};

/// Source for an LFCA-style tree (anything with stats() and
/// collect_topology()): the global registry snapshot plus the tree's own
/// counters and its EBR-guarded topology walk.
template <class Tree>
MonitoredRun::StatsSource tree_stats_source(Tree& tree,
                                            std::string prefix = "lfca_") {
  return [&tree, prefix] {
    obs::Snapshot snap = obs::global_snapshot();
    tree.stats().append_to(snap, prefix);
    tree.collect_topology().append_to(snap, prefix + "topo_");
    return snap;
  };
}

/// Source for a run with no single tree to watch: the global registry.
inline MonitoredRun::StatsSource global_stats_source() {
  return [] { return obs::global_snapshot(); };
}

#else  // !CATS_OBS_ENABLED

/// CATS_OBS=OFF stub: same shape, no thread, no socket, no output.  The
/// sources are cheap no-op placeholders so call sites compile unchanged.
class MonitoredRun {
 public:
  using StatsSource = int;

  MonitoredRun(const Options& opt, StatsSource = 0) {
    if (opt.monitor_interval_ms > 0 || opt.monitor_port >= 0 ||
        !opt.metrics_out.empty() || !opt.series_out.empty() ||
        !opt.trace_out.empty()) {
      std::fprintf(stderr,
                   "monitor: requested but compiled out (CATS_OBS=OFF)\n");
    }
  }
  int port() const { return -1; }
  void finish() {}
};

inline MonitoredRun::StatsSource global_stats_source() { return 0; }
template <class Tree>
MonitoredRun::StatsSource tree_stats_source(Tree&,
                                            const std::string& = "lfca_") {
  return 0;
}

#endif  // CATS_OBS_ENABLED

}  // namespace cats::harness

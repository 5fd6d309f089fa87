// Background monitor: a sampler thread turning cumulative counters into a
// rate time-series.
//
// Counters answer "how many splits happened this run"; the monitor answers
// "when" — it wakes at a fixed interval, pulls a non-destructive Snapshot
// from a caller-supplied source (Registry::snapshot() deltas under the
// hood, never reset()), computes per-second rates for every counter from
// the interval deltas, and appends them with the source's gauges (for a
// tree, harness::tree_stats_source adds its topology as lfca_topo_*
// gauges) to a bounded in-memory ring.  The series dumps as CSV, one row
// per sample, for plotting.
//
// The sampler thread never touches tree hot paths: sources read sharded
// counters (aggregate-on-read) and walk the tree inside an EBR guard.
// series()/write_csv may be called while sampling is live; the sample ring
// is mutex-protected (the monitor is not a hot path).
//
// Compiled out entirely when CATS_OBS is OFF: no class, no thread.
#pragma once

#include "obs/obs.hpp"

#if CATS_OBS_ENABLED

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"

namespace cats::obs {

class Monitor {
 public:
  /// Produces the counters/gauges to sample.  Must be callable from the
  /// monitor thread concurrently with whatever the process is doing —
  /// global_snapshot() plus Stats::append_to satisfies this.
  using StatsSource = std::function<Snapshot()>;

  struct Config {
    std::chrono::milliseconds interval{100};
    /// Samples retained; older samples fall off the front.  At the default
    /// 100 ms interval this holds ~27 minutes.
    std::size_t capacity = 16384;
  };

  struct Sample {
    double t_s = 0;         // seconds since start()
    double interval_s = 0;  // actual wall-clock delta to the previous sample
    std::vector<std::uint64_t> counters;  // cumulative, counter_names order
    std::vector<double> rates;            // (delta / interval_s) per counter
    std::vector<double> gauges;           // gauge_names order
  };

  Monitor(Config config, StatsSource stats);
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Spawns the sampler thread (no-op if already running).
  void start();
  /// Stops and joins the sampler thread; the collected series remains
  /// readable.  Idempotent.
  void stop();
  bool running() const { return thread_.joinable(); }

  /// Column schema, fixed by the first sample: the stats source's counter
  /// and gauge names.  Empty until the first sample lands.
  std::vector<std::string> counter_names() const;
  std::vector<std::string> gauge_names() const;

  /// Copy of the collected series, oldest first.
  std::vector<Sample> series() const;
  std::size_t sample_count() const;

  /// CSV: header `t_s,interval_s,<counters...>,<counter>_per_sec...,
  /// <gauges...>`, one row per sample.
  void write_csv(std::ostream& os) const;
  bool write_csv_file(const std::string& path) const;

  /// Takes one sample immediately on the calling thread (also used by the
  /// sampler loop; exposed so tests and finish paths need not wait an
  /// interval).
  void sample_now();

 private:
  void run();

  const Config config_;
  const StatsSource stats_;

  mutable std::mutex mutex_;  // guards everything below
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::deque<Sample> samples_;
  std::chrono::steady_clock::time_point start_time_;
  bool have_last_ = false;
  std::vector<std::uint64_t> last_counters_;
  double last_t_s_ = 0;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace cats::obs

#endif  // CATS_OBS_ENABLED

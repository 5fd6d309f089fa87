// Metric snapshots and the three exporters.
//
// A `Snapshot` is an ordered, named bag of counters, gauges, histograms and
// trace events — detached from the live sharded storage, so exporting never
// perturbs the hot paths.  `global_snapshot()` captures the process-wide
// registry; callers append structure-specific metrics (e.g. a tree's Stats)
// before exporting.
//
// Exporters:
//   write_json       — machine-readable, one self-contained document; the
//                      benchmark binaries write one per run and
//                      obs/json.hpp parses it back
//   write_prometheus — text exposition format (counters, gauges and
//                      cumulative le-bucket histograms), scrape-ready
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/topology.hpp"
#include "obs/trace.hpp"

namespace cats::obs {

struct Snapshot {
  /// One labeled contention-heatmap sample (TopologySnapshot::append_to
  /// fills these from its hot_bases).  Kept apart from the flat gauges
  /// because the hot-base set changes between samples: the monitor's fixed
  /// CSV schema ignores them, while write_prometheus renders them as
  /// labeled gauges and write_json as records.
  struct HotBase {
    std::string metric;       // e.g. "lfca_topo_hot_base"
    std::uint32_t rank = 0;   // 0 = hottest
    BaseHeat base;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  std::vector<TraceEvent> events;
  std::vector<HotBase> hot_bases;

  void add_counter(std::string name, std::uint64_t value) {
    counters.emplace_back(std::move(name), value);
  }
  void add_gauge(std::string name, double value) {
    gauges.emplace_back(std::move(name), value);
  }
  void add_histogram(std::string name, HistogramSnapshot h) {
    histograms.emplace_back(std::move(name), h);
  }

  /// Value of a named counter, or 0 if absent (test convenience).
  std::uint64_t counter(const std::string& name) const;
};

/// Captures the process-wide registry (counters, histograms, trace), plus
/// derived gauges (EBR backlog, live treap nodes).
Snapshot global_snapshot();

void write_json(std::ostream& os, const Snapshot& snap);
void write_prometheus(std::ostream& os, const Snapshot& snap);

/// write_json straight to a file; returns false on I/O failure.
bool write_json_file(const std::string& path, const Snapshot& snap);

}  // namespace cats::obs

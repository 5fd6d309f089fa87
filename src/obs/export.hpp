// Metric snapshots and the three exporters.
//
// A `Snapshot` is an ordered, named bag of counters, gauges, histograms and
// trace events — detached from the live sharded storage, so exporting never
// perturbs the hot paths.  `global_snapshot()` captures the process-wide
// registry; callers append structure-specific metrics (e.g. a tree's Stats)
// before exporting.
//
// Exporters:
//   write_table      — human-readable, for terminals and test logs
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
#include "obs/trace.hpp"

namespace cats::obs {

struct Snapshot {
  /// One labeled contention-heatmap sample (topology.cpp fills these from
  /// TopologySnapshot::hot_bases).  Kept apart from the flat gauges
  /// because the hot-base set changes between samples: the monitor's fixed
  /// CSV schema ignores them, while write_prometheus renders them as
  /// labeled gauges and write_json/write_table as records.
  struct HotBase {
    std::string metric;       // e.g. "lfca_topo_hot_base"
    std::uint32_t rank = 0;   // 0 = hottest
    std::uint32_t depth = 0;
    long long key_lo = 0;
    std::string key_label;    // formatted key bound; empty = unlabeled
    std::uint64_t cas_fails = 0;
    std::uint64_t helps = 0;
    std::uint64_t items = 0;
    std::int64_t stat = 0;
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

void write_table(std::ostream& os, const Snapshot& snap);
void write_json(std::ostream& os, const Snapshot& snap);
void write_prometheus(std::ostream& os, const Snapshot& snap);

/// Writes `s` as a quoted JSON string: quote, backslash and every control
/// byte escaped, all other bytes verbatim.  The one escaper of every JSON
/// exporter (metrics, topology), so a key label reads the same in each.
void json_escape(std::ostream& os, const std::string& s);

/// One histogram as a JSON object ({"count":...,"buckets":[...]}); the
/// building block of write_json, shared with the topology exporter.
void write_histogram_json(std::ostream& os, const HistogramSnapshot& h);

/// write_json straight to a file; returns false on I/O failure.
bool write_json_file(const std::string& path, const Snapshot& snap);

}  // namespace cats::obs

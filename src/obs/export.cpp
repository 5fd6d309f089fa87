#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "alloc/pool.hpp"
#include "obs/registry.hpp"

namespace cats::obs {

std::uint64_t Snapshot::counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

Snapshot global_snapshot() {
  Snapshot snap;
  Registry& reg = Registry::instance();
  const RegistryValues values = reg.snapshot();  // non-destructive copy
  for (std::size_t i = 0; i < static_cast<std::size_t>(GCounter::kCount);
       ++i) {
    const auto c = static_cast<GCounter>(i);
    snap.add_counter(gcounter_name(c), values.counter(c));
  }
  snap.add_gauge(
      "ebr_backlog",
      static_cast<double>(values.counter(GCounter::kEbrRetired)) -
          static_cast<double>(values.counter(GCounter::kEbrFreed)));
  snap.add_gauge(
      "treap_live_nodes",
      static_cast<double>(values.counter(GCounter::kTreapNodeAllocs)) -
          static_cast<double>(values.counter(GCounter::kTreapNodeFrees)));
  // Node-pool occupancy and hit rate (src/alloc).  The pool keeps its own
  // sharded counters rather than obs ones — its fast path is the very cost
  // this repo measures — so they surface here as gauges.  All zero when the
  // pool is compiled out (CATS_POOL=OFF).
  {
    const alloc::PoolStats pool = alloc::pool_stats();
    snap.add_gauge("pool_enabled", pool.enabled ? 1.0 : 0.0);
    snap.add_gauge("pool_alloc_fast", static_cast<double>(pool.alloc_fast));
    snap.add_gauge("pool_alloc_transfer",
                   static_cast<double>(pool.alloc_transfer));
    snap.add_gauge("pool_alloc_slab", static_cast<double>(pool.alloc_slab));
    snap.add_gauge("pool_alloc_fallback",
                   static_cast<double>(pool.alloc_fallback));
    snap.add_gauge("pool_transfer_push",
                   static_cast<double>(pool.transfer_push));
    snap.add_gauge("pool_overflow_push",
                   static_cast<double>(pool.overflow_push));
    snap.add_gauge("pool_cached_blocks",
                   static_cast<double>(pool.cached_blocks));
    snap.add_gauge("pool_slab_bytes", static_cast<double>(pool.slab_bytes));
    snap.add_gauge("pool_hit_rate", pool.hit_rate());
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(GHistogram::kCount);
       ++i) {
    const auto h = static_cast<GHistogram>(i);
    snap.add_histogram(ghistogram_name(h), values.histogram(h));
  }
  snap.events = reg.trace().dump();
  return snap;
}

// ---------------------------------------------------------------------------
// Table.
// ---------------------------------------------------------------------------

void write_table(std::ostream& os, const Snapshot& snap) {
  os << "-- counters --\n";
  for (const auto& [name, value] : snap.counters) {
    char line[128];
    std::snprintf(line, sizeof line, "%-28s %20" PRIu64 "\n", name.c_str(),
                  value);
    os << line;
  }
  if (!snap.gauges.empty()) {
    os << "-- gauges --\n";
    for (const auto& [name, value] : snap.gauges) {
      char line[128];
      std::snprintf(line, sizeof line, "%-28s %20.3f\n", name.c_str(), value);
      os << line;
    }
  }
  os << "-- histograms --\n";
  for (const auto& [name, h] : snap.histograms) {
    char line[192];
    std::snprintf(line, sizeof line,
                  "%-28s count=%-10" PRIu64
                  " mean=%-12.1f p50=%-12.1f p90=%-12.1f p99=%.1f\n",
                  name.c_str(), h.count, h.mean(), h.quantile(0.5),
                  h.quantile(0.9), h.quantile(0.99));
    os << line;
  }
  if (!snap.hot_bases.empty()) {
    os << "-- contention heatmap (hottest bases) --\n";
    for (const Snapshot::HotBase& hot : snap.hot_bases) {
      char line[256];
      if (hot.key_label.empty()) {
        std::snprintf(line, sizeof line,
                      "  #%-2u depth=%-3u key_lo=%-12lld cas_fails=%-10" PRIu64
                      " helps=%-8" PRIu64 " items=%" PRIu64 "\n",
                      hot.rank, hot.depth, hot.key_lo, hot.cas_fails,
                      hot.helps, hot.items);
      } else {
        std::snprintf(line, sizeof line,
                      "  #%-2u depth=%-3u key_lo=%-12s cas_fails=%-10" PRIu64
                      " helps=%-8" PRIu64 " items=%" PRIu64 "\n",
                      hot.rank, hot.depth, hot.key_label.c_str(),
                      hot.cas_fails, hot.helps, hot.items);
      }
      os << line;
    }
  }
  os << "-- adaptation trace (" << snap.events.size() << " events) --\n";
  // The full timeline can be thousands of lines; show the tail.
  const std::size_t show = snap.events.size() > 20 ? 20 : snap.events.size();
  for (std::size_t i = snap.events.size() - show; i < snap.events.size();
       ++i) {
    const TraceEvent& e = snap.events[i];
    char line[160];
    std::snprintf(line, sizeof line,
                  "  t=%12.6fs %-12s depth=%-3u stat=%-7d thread=%u\n",
                  static_cast<double>(e.time_ns) / 1e9,
                  adapt_kind_name(e.kind), e.depth, e.stat, e.thread);
    os << line;
  }
}

// ---------------------------------------------------------------------------
// JSON.
// ---------------------------------------------------------------------------

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_histogram_json(std::ostream& os, const HistogramSnapshot& h) {
  os << "{\"count\":" << h.count << ",\"sum\":" << h.sum
     << ",\"mean\":" << h.mean() << ",\"p50\":" << h.quantile(0.5)
     << ",\"p90\":" << h.quantile(0.9) << ",\"p99\":" << h.quantile(0.99)
     << ",\"buckets\":[";
  bool first = true;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    if (!first) os << ',';
    first = false;
    os << "{\"bucket\":" << b << ",\"low\":" << bucket_low(b)
       << ",\"count\":" << h.buckets[b] << '}';
  }
  os << "]}";
}

void write_json(std::ostream& os, const Snapshot& snap) {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) os << ',';
    first = false;
    json_escape(os, name);
    os << ':' << value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) os << ',';
    first = false;
    json_escape(os, name);
    os << ':' << value;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) os << ',';
    first = false;
    json_escape(os, name);
    os << ':';
    write_histogram_json(os, h);
  }
  os << "},\"hot_bases\":[";
  first = true;
  for (const Snapshot::HotBase& hot : snap.hot_bases) {
    if (!first) os << ',';
    first = false;
    os << "{\"metric\":";
    json_escape(os, hot.metric);
    os << ",\"rank\":" << hot.rank << ",\"depth\":" << hot.depth
       << ",\"key_lo\":" << hot.key_lo;
    if (!hot.key_label.empty()) {
      os << ",\"key_label\":";
      json_escape(os, hot.key_label);
    }
    os << ",\"cas_fails\":" << hot.cas_fails
       << ",\"helps\":" << hot.helps << ",\"items\":" << hot.items
       << ",\"stat\":" << hot.stat << '}';
  }
  os << "],\"trace\":[";
  first = true;
  for (const TraceEvent& e : snap.events) {
    if (!first) os << ',';
    first = false;
    os << "{\"t_ns\":" << e.time_ns << ",\"kind\":\""
       << adapt_kind_name(e.kind) << "\",\"depth\":" << e.depth
       << ",\"stat\":" << e.stat << ",\"thread\":" << e.thread << '}';
  }
  os << "]}";
}

bool write_json_file(const std::string& path, const Snapshot& snap) {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out, snap);
  out << '\n';
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.
// ---------------------------------------------------------------------------

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; ours are already
/// snake_case, so prefixing is all that's needed.
std::string prom_name(const std::string& name) { return "cats_" + name; }

}  // namespace

void write_prometheus(std::ostream& os, const Snapshot& snap) {
  for (const auto& [name, value] : snap.counters) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " counter\n" << n << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " gauge\n" << n << ' ' << value << '\n';
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      cumulative += h.buckets[b];
      os << n << "_bucket{le=\"" << bucket_high(b) << "\"} " << cumulative
         << '\n';
    }
    os << n << "_bucket{le=\"+Inf\"} " << h.count << '\n'
       << n << "_sum " << h.sum << '\n'
       << n << "_count " << h.count << '\n';
    // Interpolated quantiles as a companion gauge (summary-style samples;
    // kept under a separate name so the histogram series stays canonical).
    os << "# TYPE " << n << "_quantile gauge\n";
    for (const double q : {0.5, 0.9, 0.99}) {
      char row[160];
      std::snprintf(row, sizeof row, "%s_quantile{q=\"%g\"} %.1f\n",
                    n.c_str(), q, h.quantile(q));
      os << row;
    }
  }
  // Hot bases as labeled gauges: one series family per metric name and
  // field, the base identified by rank/depth/key_lo labels.  TYPE lines are
  // emitted once per family (entries arrive grouped by metric).
  {
    using Field =
        std::pair<const char*, std::uint64_t (*)(const Snapshot::HotBase&)>;
    const Field fields[] = {
        {"cas_fails", [](const Snapshot::HotBase& h) { return h.cas_fails; }},
        {"helps", [](const Snapshot::HotBase& h) { return h.helps; }},
        {"items", [](const Snapshot::HotBase& h) { return h.items; }},
    };
    for (const auto& [field, value_of] : fields) {
      std::string last_metric;
      for (const Snapshot::HotBase& hot : snap.hot_bases) {
        const std::string n = prom_name(hot.metric) + "_" + field;
        if (hot.metric != last_metric) {
          os << "# TYPE " << n << " gauge\n";
          last_metric = hot.metric;
        }
        os << n << "{rank=\"" << hot.rank << "\",depth=\"" << hot.depth
           << "\",key_lo=\"" << hot.key_lo << "\"";
        if (!hot.key_label.empty()) {
          // Prometheus label values escape backslash and double-quote.
          os << ",key=\"";
          for (const char c : hot.key_label) {
            if (c == '\\' || c == '"') os << '\\';
            if (c == '\n') {
              os << "\\n";
            } else {
              os << c;
            }
          }
          os << '"';
        }
        os << "} " << value_of(hot) << '\n';
      }
    }
  }
  // The trace is not a Prometheus concept; expose its volume as a counter.
  const std::string n = prom_name("adaptation_events");
  os << "# TYPE " << n << " counter\n" << n << ' ' << snap.events.size()
     << '\n';
}

}  // namespace cats::obs

#include "obs/topology.hpp"

#include <algorithm>
#include <ostream>

#include "obs/export.hpp"

namespace cats::obs {

void TopologySnapshot::add_base_heat(const BaseHeat& base) {
  heat_cas_fails += base.cas_fails;
  heat_helps += base.helps;
  if (base.heat() == 0) return;
  const auto hotter = [](const BaseHeat& a, const BaseHeat& b) {
    return a.heat() > b.heat();
  };
  hot_bases.insert(
      std::upper_bound(hot_bases.begin(), hot_bases.end(), base, hotter),
      base);
  if (hot_bases.size() > kMaxHotBases) hot_bases.resize(kMaxHotBases);
}

void TopologySnapshot::append_to(Snapshot& snap,
                                 const std::string& prefix) const {
  snap.add_gauge(prefix + "route_nodes", static_cast<double>(route_nodes));
  snap.add_gauge(prefix + "base_nodes", static_cast<double>(base_nodes));
  snap.add_gauge(prefix + "normal_bases", static_cast<double>(normal_bases));
  snap.add_gauge(prefix + "joining_bases",
                 static_cast<double>(joining_bases));
  snap.add_gauge(prefix + "range_bases", static_cast<double>(range_bases));
  snap.add_gauge(prefix + "invalid_routes",
                 static_cast<double>(invalid_routes));
  snap.add_gauge(prefix + "marked_routes",
                 static_cast<double>(marked_routes));
  snap.add_gauge(prefix + "items", static_cast<double>(items));
  snap.add_gauge(prefix + "max_depth", static_cast<double>(max_depth));
  snap.add_gauge(prefix + "mean_occupancy", mean_occupancy());
  snap.add_gauge(prefix + "stat_min", static_cast<double>(stat_min));
  snap.add_gauge(prefix + "stat_max", static_cast<double>(stat_max));
  snap.add_gauge(prefix + "heat_cas_fails",
                 static_cast<double>(heat_cas_fails));
  snap.add_gauge(prefix + "heat_helps", static_cast<double>(heat_helps));
  snap.add_histogram(prefix + "base_depth", depth);
  snap.add_histogram(prefix + "base_occupancy", occupancy);
  snap.add_histogram(prefix + "base_stat_abs", stat_abs);
  // The hot-base list travels as labeled samples, not gauges: the set of
  // hot bases changes between samples, and the monitor's CSV schema is
  // fixed by the first sample — only the exporters that can label render
  // these (write_prometheus, write_json, write_table).
  for (std::size_t rank = 0; rank < hot_bases.size(); ++rank) {
    const BaseHeat& base = hot_bases[rank];
    Snapshot::HotBase hot;
    hot.metric = prefix + "hot_base";
    hot.rank = static_cast<std::uint32_t>(rank);
    hot.depth = base.depth;
    hot.key_lo = base.key_lo;
    hot.key_label = base.key_label;
    hot.cas_fails = base.cas_fails;
    hot.helps = base.helps;
    hot.items = base.items;
    hot.stat = base.stat;
    snap.hot_bases.push_back(std::move(hot));
  }
}

void write_topology_json(std::ostream& os, const TopologySnapshot& topo) {
  os << "{\"route_nodes\":" << topo.route_nodes
     << ",\"base_nodes\":" << topo.base_nodes
     << ",\"normal_bases\":" << topo.normal_bases
     << ",\"joining_bases\":" << topo.joining_bases
     << ",\"range_bases\":" << topo.range_bases
     << ",\"invalid_routes\":" << topo.invalid_routes
     << ",\"marked_routes\":" << topo.marked_routes
     << ",\"items\":" << topo.items << ",\"max_depth\":" << topo.max_depth
     << ",\"mean_occupancy\":" << topo.mean_occupancy()
     << ",\"stat_min\":" << topo.stat_min
     << ",\"stat_max\":" << topo.stat_max
     << ",\"heat_cas_fails\":" << topo.heat_cas_fails
     << ",\"heat_helps\":" << topo.heat_helps << ",\"depth\":";
  write_histogram_json(os, topo.depth);
  os << ",\"occupancy\":";
  write_histogram_json(os, topo.occupancy);
  os << ",\"stat_abs\":";
  write_histogram_json(os, topo.stat_abs);
  os << ",\"heatmap\":[";
  bool first = true;
  for (const BaseHeat& base : topo.hot_bases) {
    if (!first) os << ',';
    first = false;
    os << "{\"depth\":" << base.depth << ",\"key_lo\":" << base.key_lo;
    if (!base.key_label.empty()) {
      os << ",\"key_label\":";
      json_escape(os, base.key_label);
    }
    os << ",\"cas_fails\":" << base.cas_fails << ",\"helps\":" << base.helps
       << ",\"items\":" << base.items << ",\"stat\":" << base.stat << '}';
  }
  os << "]}";
}

}  // namespace cats::obs

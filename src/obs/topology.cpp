#include "obs/topology.hpp"

#include <algorithm>

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
  // these (write_prometheus, write_json).
  for (std::size_t rank = 0; rank < hot_bases.size(); ++rank) {
    snap.hot_bases.push_back({prefix + "hot_base",
                              static_cast<std::uint32_t>(rank),
                              hot_bases[rank]});
  }
}

}  // namespace cats::obs

// Tests for live topology introspection (BasicLfcaTree::collect_topology +
// obs/topology.hpp): quiescent walks must agree exactly with the tree's own
// counting walks, and concurrent walks must stay safe (EBR keeps every
// visited node alive) and internally consistent while the tree splits and
// joins underneath them.  The concurrent case is the interesting one — run
// it under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "lfca/lfca_tree.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/topology.hpp"

namespace {

using namespace cats;

// Invariants that hold for ANY snapshot, quiescent or racing: they follow
// from the walk itself, not from the tree holding still.
void check_internal_consistency(const obs::TopologySnapshot& topo) {
  EXPECT_EQ(topo.base_nodes,
            topo.normal_bases + topo.joining_bases + topo.range_bases);
  EXPECT_EQ(topo.depth.count, topo.base_nodes);
  EXPECT_EQ(topo.occupancy.count, topo.base_nodes);
  EXPECT_EQ(topo.stat_abs.count, topo.base_nodes);
  EXPECT_EQ(topo.occupancy.sum, topo.items);
  EXPECT_LE(topo.invalid_routes, topo.route_nodes);
  EXPECT_LE(topo.marked_routes, topo.route_nodes);
  EXPECT_LE(topo.stat_min, topo.stat_max);
  EXPECT_LT(topo.max_depth, 64u);  // a sane route tree is never this deep
}

TEST(Topology, FreshTreeIsOneBaseNode) {
  reclaim::Domain domain;
  {
    lfca::LfcaTree tree(domain);
    const obs::TopologySnapshot topo = tree.collect_topology();
    check_internal_consistency(topo);
    EXPECT_EQ(topo.route_nodes, 0u);
    EXPECT_EQ(topo.base_nodes, 1u);
    EXPECT_EQ(topo.normal_bases, 1u);
    EXPECT_EQ(topo.items, 0u);
    EXPECT_EQ(topo.max_depth, 0u);
    EXPECT_DOUBLE_EQ(topo.mean_occupancy(), 0.0);
  }
  domain.drain();
}

TEST(Topology, QuiescentWalkMatchesTreeCounts) {
  reclaim::Domain domain;
  {
    lfca::LfcaTree tree(domain);
    for (Key k = 1; k <= 1000; ++k) tree.insert(k, k);
    for (Key hint : {128, 384, 640, 896}) {
      ASSERT_TRUE(tree.force_split(hint));
    }

    const obs::TopologySnapshot topo = tree.collect_topology();
    check_internal_consistency(topo);
    EXPECT_EQ(topo.route_nodes, tree.route_node_count());
    EXPECT_EQ(topo.items, tree.size());
    // A quiescent route tree is a full binary tree over the leaves.
    EXPECT_EQ(topo.base_nodes, topo.route_nodes + 1);
    EXPECT_EQ(topo.normal_bases, topo.base_nodes);
    EXPECT_EQ(topo.joining_bases, 0u);
    EXPECT_EQ(topo.range_bases, 0u);
    EXPECT_EQ(topo.invalid_routes, 0u);
    EXPECT_EQ(topo.marked_routes, 0u);
    EXPECT_GE(topo.base_nodes, 5u);  // 4 splits of distinct leaves
    EXPECT_GE(topo.max_depth, 1u);
    EXPECT_NEAR(topo.mean_occupancy(),
                1000.0 / static_cast<double>(topo.base_nodes), 1e-9);

    // Joins shrink the census back down, and the walk tracks it.
    ASSERT_TRUE(tree.force_join(128));
    const obs::TopologySnapshot after = tree.collect_topology();
    check_internal_consistency(after);
    EXPECT_EQ(after.base_nodes, topo.base_nodes - 1);
    EXPECT_EQ(after.route_nodes, topo.route_nodes - 1);
    EXPECT_EQ(after.items, 1000u);
  }
  domain.drain();
}

TEST(Topology, ExportsThroughSnapshotAndJson) {
  reclaim::Domain domain;
  {
    lfca::LfcaTree tree(domain);
    for (Key k = 1; k <= 256; ++k) tree.insert(k, k);
    ASSERT_TRUE(tree.force_split(128));
    const obs::TopologySnapshot topo = tree.collect_topology();

    obs::Snapshot snap;
    topo.append_to(snap, "topo_");
    bool saw_base_nodes = false, saw_mean = false;
    for (const auto& [name, value] : snap.gauges) {
      if (name == "topo_base_nodes") {
        saw_base_nodes = true;
        EXPECT_DOUBLE_EQ(value, static_cast<double>(topo.base_nodes));
      }
      if (name == "topo_mean_occupancy") {
        saw_mean = true;
        EXPECT_DOUBLE_EQ(value, topo.mean_occupancy());
      }
    }
    EXPECT_TRUE(saw_base_nodes);
    EXPECT_TRUE(saw_mean);

    std::ostringstream os;
    obs::write_topology_json(os, topo);
    const obs::json::Value doc = obs::json::parse(os.str());
    EXPECT_EQ(doc.at("base_nodes").as_uint(), topo.base_nodes);
    EXPECT_EQ(doc.at("route_nodes").as_uint(), topo.route_nodes);
    EXPECT_EQ(doc.at("items").as_uint(), 256u);
    EXPECT_EQ(doc.at("occupancy").at("count").as_uint(), topo.base_nodes);
  }
  domain.drain();
}

// --- Contention heatmap. -----------------------------------------------------

TEST(Topology, HotBaseListIsTopKAndSorted) {
  obs::TopologySnapshot topo;
  // 12 bases with heat 0..11; only the nonzero ones may enter the list,
  // the totals must count every one.
  for (std::uint32_t i = 0; i < 12; ++i) {
    obs::BaseHeat base;
    base.depth = i;
    base.key_lo = 100 * i;
    base.cas_fails = i;        // heat == i, so base 0 has zero heat
    base.helps = 0;
    topo.add_base_heat(base);
  }
  ASSERT_EQ(topo.hot_bases.size(), obs::TopologySnapshot::kMaxHotBases);
  for (std::size_t i = 0; i < topo.hot_bases.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(topo.hot_bases[i - 1].heat(), topo.hot_bases[i].heat());
    }
    EXPECT_GT(topo.hot_bases[i].heat(), 0u);
  }
  EXPECT_EQ(topo.hot_bases.front().heat(), 11u);
  // Top-8 of heats 1..11 cuts off at 4.
  EXPECT_EQ(topo.hot_bases.back().heat(), 4u);
  EXPECT_EQ(topo.heat_cas_fails, 66u);  // 0+1+...+11: totals see all bases
  EXPECT_EQ(topo.heat_helps, 0u);
}

TEST(Topology, HeatmapExportsThroughJson) {
  obs::TopologySnapshot topo;
  obs::BaseHeat hot;
  hot.depth = 3;
  hot.key_lo = 512;
  hot.cas_fails = 7;
  hot.helps = 2;
  hot.items = 40;
  hot.stat = -1;
  topo.add_base_heat(hot);

  std::ostringstream os;
  obs::write_topology_json(os, topo);
  const obs::json::Value doc = obs::json::parse(os.str());
  EXPECT_EQ(doc.at("heat_cas_fails").as_uint(), 7u);
  EXPECT_EQ(doc.at("heat_helps").as_uint(), 2u);
  const auto& heatmap = doc.at("heatmap").as_array();
  ASSERT_EQ(heatmap.size(), 1u);
  EXPECT_EQ(heatmap[0].at("depth").as_uint(), 3u);
  EXPECT_EQ(heatmap[0].at("key_lo").as_uint(), 512u);
  EXPECT_EQ(heatmap[0].at("cas_fails").as_uint(), 7u);
  EXPECT_EQ(heatmap[0].at("helps").as_uint(), 2u);
  EXPECT_EQ(heatmap[0].at("items").as_uint(), 40u);

  // And through the Snapshot path: totals as gauges, hot bases as labeled
  // samples.
  obs::Snapshot snap;
  topo.append_to(snap, "topo_");
  bool saw_total = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "topo_heat_cas_fails") {
      saw_total = true;
      EXPECT_DOUBLE_EQ(value, 7.0);
    }
  }
  EXPECT_TRUE(saw_total);
  ASSERT_EQ(snap.hot_bases.size(), 1u);
  EXPECT_EQ(snap.hot_bases[0].metric, "topo_hot_base");
  EXPECT_EQ(snap.hot_bases[0].rank, 0u);
  EXPECT_EQ(snap.hot_bases[0].cas_fails, 7u);
}

// String keys format to their raw bytes, so a key label may hold control
// bytes; the topology JSON must carry them through unchanged, exactly as
// the metrics JSON does.
TEST(Topology, KeyLabelControlBytesRoundTripThroughJson) {
  const std::string label = std::string("a\x01\"b\\c\n") + '\x1f';
  obs::TopologySnapshot topo;
  obs::BaseHeat hot;
  hot.cas_fails = 1;
  hot.key_label = label;
  topo.add_base_heat(hot);

  std::ostringstream os;
  obs::write_topology_json(os, topo);
  const obs::json::Value doc = obs::json::parse(os.str());
  const auto& heatmap = doc.at("heatmap").as_array();
  ASSERT_EQ(heatmap.size(), 1u);
  EXPECT_EQ(heatmap[0].at("key_label").as_string(), label);
}

#if CATS_OBS_ENABLED
// Deterministic heat attribution: force a range query to lose its marker
// CAS (the lfca_test retry idiom), then check that the failure survives
// base replacement — the pending-carry settles on the live base and the
// quiescent walk reports it.
TEST(Topology, RangeCasFailureLandsInHeatmap) {
  lfca::Config config;
  config.optimistic_ranges = false;  // route queries through all_in_range
  reclaim::Domain domain;
  {
    lfca::LfcaTree tree(domain, config);
    for (Key k = 0; k < 100; ++k) tree.insert(k, 1);
    int fires = 0;
    tree.testing_range_step_hook = [&](int phase) {
      // Overwrite a key between the query's descent and its marker CAS.
      if (phase == 0 && fires++ == 0) tree.insert(50, 999);
    };
    std::uint64_t seen = 0;
    tree.range_query(0, 99, [&](Key, Value) { ++seen; });
    tree.testing_range_step_hook = nullptr;
    ASSERT_EQ(seen, 100u);
    ASSERT_GE(fires, 2);  // the CAS failed and the query re-descended

    const obs::TopologySnapshot topo = tree.collect_topology();
    check_internal_consistency(topo);
    EXPECT_GE(topo.heat_cas_fails, 1u);
    ASSERT_FALSE(topo.hot_bases.empty());
    EXPECT_GE(topo.hot_bases.front().cas_fails, 1u);
  }
  domain.drain();
}
#endif  // CATS_OBS_ENABLED

// The stress case: walkers loop collect_topology() while writers insert,
// remove and force adaptations with hair-trigger thresholds.  EBR must keep
// every visited node alive (TSan/ASan validate that) and each snapshot must
// stay internally consistent; the node census may be off by the adaptations
// racing the walk, so the bounds are deliberately loose.
TEST(Topology, ConcurrentWalkersDuringAdaptations) {
  lfca::Config config;
  config.high_cont = 0;  // split on any contention event
  config.low_cont = -100;
  reclaim::Domain domain;
  {
    lfca::LfcaTree tree(domain, config);
    constexpr Key kRange = 1 << 12;
    for (Key k = 1; k < kRange; k += 2) tree.insert(k, k);

    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        Xoshiro256 rng(t + 101);
        while (!stop.load(std::memory_order_relaxed)) {
          const Key k = rng.next_in(1, kRange - 1);
          const std::uint64_t dice = rng.next_below(100);
          if (dice < 40) {
            tree.insert(k, k);
          } else if (dice < 80) {
            tree.remove(k);
          } else if (dice < 90) {
            tree.force_split(k);
          } else {
            tree.force_join(k);
          }
        }
      });
    }

    std::atomic<std::uint64_t> walks{0};
    std::vector<std::thread> walkers;
    for (int t = 0; t < 2; ++t) {
      walkers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          const obs::TopologySnapshot topo = tree.collect_topology();
          check_internal_consistency(topo);
          EXPECT_GE(topo.base_nodes, 1u);
          // items can overshoot the key range on a racing walk: a join in
          // flight shows the merged container in the join-main node while
          // the neighbor still holds its pre-join copy, so the same items
          // count twice.  Only a garbage-detection bound is sound here.
          EXPECT_LE(topo.items, kRange * 64);
          walks.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    stop.store(true);
    for (auto& t : threads) t.join();
    for (auto& t : walkers) t.join();
    EXPECT_GT(walks.load(), 0u);

    // Quiescent again: the walk agrees exactly with the counting walks.
    const obs::TopologySnapshot final_topo = tree.collect_topology();
    check_internal_consistency(final_topo);
    EXPECT_EQ(final_topo.route_nodes, tree.route_node_count());
    EXPECT_EQ(final_topo.items, tree.size());
    EXPECT_EQ(final_topo.base_nodes, final_topo.route_nodes + 1);
  }
  domain.drain();
}

}  // namespace

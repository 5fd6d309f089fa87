// Microbenchmarks (google-benchmark) for the substrates: persistent treap
// operation costs at various sizes, EBR guard/retire overhead, and the
// single-operation costs of each concurrent structure.  These are the
// numbers behind the throughput figures: e.g. the O(log n) path-copy cost
// of a persistent insert bounds the update throughput of every
// immutable-container design.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "imtr/imtr_set.hpp"
#include "lfca/lfca_tree.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "reclaim/ebr.hpp"
#include "skiplist/skiplist.hpp"
#include "treap/treap.hpp"

namespace {

using namespace cats;

treap::Ref build_treap(std::int64_t n, std::uint64_t seed = 7) {
  Xoshiro256 rng(seed);
  treap::Ref t;
  std::int64_t inserted = 0;
  while (inserted < n) {
    bool replaced = false;
    t = treap::insert(t.get(), rng.next_in(0, n * 2), 1, &replaced);
    if (!replaced) ++inserted;
  }
  return t;
}

void BM_TreapInsert(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  treap::Ref base = build_treap(n);
  Xoshiro256 rng(13);
  for (auto _ : state) {
    treap::Ref next = treap::insert(base.get(), rng.next_in(0, n * 2), 2);
    benchmark::DoNotOptimize(next.get());
  }
  state.SetLabel("persistent path copy");
}
BENCHMARK(BM_TreapInsert)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_TreapRemove(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  treap::Ref base = build_treap(n);
  Xoshiro256 rng(17);
  for (auto _ : state) {
    treap::Ref next = treap::remove(base.get(), rng.next_in(0, n * 2));
    benchmark::DoNotOptimize(next.get());
  }
}
BENCHMARK(BM_TreapRemove)->Arg(1000)->Arg(100000);

void BM_TreapLookup(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  treap::Ref base = build_treap(n);
  Xoshiro256 rng(19);
  for (auto _ : state) {
    Value v = 0;
    benchmark::DoNotOptimize(
        treap::lookup(base.get(), rng.next_in(0, n * 2), &v));
  }
}
BENCHMARK(BM_TreapLookup)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_TreapSplitJoin(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  treap::Ref base = build_treap(n);
  for (auto _ : state) {
    treap::Ref l, r;
    Key pivot = 0;
    treap::split_evenly(base.get(), &l, &r, &pivot);
    treap::Ref joined = treap::join(l, r);
    benchmark::DoNotOptimize(joined.get());
  }
  state.SetLabel("split_evenly + join");
}
BENCHMARK(BM_TreapSplitJoin)->Arg(1000)->Arg(100000);

void BM_TreapRangeScan(benchmark::State& state) {
  treap::Ref base = build_treap(100000);
  const std::int64_t span = state.range(0);
  Xoshiro256 rng(23);
  for (auto _ : state) {
    const Key lo = rng.next_in(0, 200000 - span);
    std::uint64_t sum = 0;
    treap::for_range(base.get(), lo, lo + span,
                     [&](Key k, Value) { sum += k; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * span / 2);
}
BENCHMARK(BM_TreapRangeScan)->Arg(100)->Arg(10000);

void BM_EbrGuard(benchmark::State& state) {
  reclaim::Domain domain;
  for (auto _ : state) {
    reclaim::Domain::Guard guard(domain);
    benchmark::ClobberMemory();
  }
  state.SetLabel("enter+exit");
}
BENCHMARK(BM_EbrGuard);

void BM_EbrRetire(benchmark::State& state) {
  reclaim::Domain domain;
  for (auto _ : state) {
    domain.retire(new int(1));
  }
  domain.drain();
}
BENCHMARK(BM_EbrRetire);

template <class S>
void BM_StructureLookup(benchmark::State& state) {
  S s;
  Xoshiro256 rng(29);
  for (Key k = 1; k <= 100000; ++k) s.insert(k, 1);
  for (auto _ : state) {
    Value v = 0;
    benchmark::DoNotOptimize(s.lookup(rng.next_in(1, 100000), &v));
  }
}
BENCHMARK(BM_StructureLookup<lfca::LfcaTree>)->Name("BM_Lookup/lfca");
BENCHMARK(BM_StructureLookup<imtr::ImTreeSet>)->Name("BM_Lookup/imtr");
BENCHMARK(BM_StructureLookup<skiplist::SkipList>)->Name("BM_Lookup/skiplist");

template <class S>
void BM_StructureInsertRemove(benchmark::State& state) {
  S s;
  Xoshiro256 rng(31);
  for (Key k = 1; k <= 100000; ++k) s.insert(k, 1);
  for (auto _ : state) {
    const Key k = rng.next_in(1, 100000);
    s.insert(k, 2);
    s.remove(k);
  }
  state.SetLabel("insert+remove pair");
}
BENCHMARK(BM_StructureInsertRemove<lfca::LfcaTree>)->Name("BM_Update/lfca");
BENCHMARK(BM_StructureInsertRemove<imtr::ImTreeSet>)->Name("BM_Update/imtr");
BENCHMARK(BM_StructureInsertRemove<skiplist::SkipList>)
    ->Name("BM_Update/skiplist");

// ---------------------------------------------------------------------------
// Metrics demo.  After the microbenchmarks, run a short contended mix
// against an LFCA tree with sensitive adaptation thresholds and export
// everything the observability layer collected — counters, latency
// histograms, topology and the adaptation-event trace — through the
// harness's monitored-run mode (harness::MonitoredRun): the final snapshot
// lands in bench_micro_metrics.json, the sampler's rate time-series in
// bench_micro_series.csv, and with --monitor-port=P the same data is
// served live at /metrics, /stats.json, /topology.json and /healthz while
// the mix is running.
// ---------------------------------------------------------------------------
void run_metrics_demo(const harness::Options& opt, double duration) {
#if CATS_OBS_ENABLED
  // Quiescent here — the worker threads haven't started yet.
  obs::Registry::instance().reset();

  lfca::Config config;
  config.high_cont = 0;  // adapt on every contention event (1-CPU hosts
  config.low_cont = -100;  // rarely see clustered CAS failures)
  reclaim::Domain domain;
  {
    lfca::LfcaTree tree(domain, config);
    harness::prefill(tree, 1 << 14);
    // Declared after the tree: the monitor samples through the tree and
    // must stop before it is destroyed.
    harness::MonitoredRun monitored(opt, harness::tree_stats_source(tree),
                                    harness::tree_topology_source(tree));
    const harness::Mix mix = harness::Mix::of_percent(80, 10, 10, 256);
    harness::run_mix(tree, 4, mix, 1 << 14, duration);
    // The mix above splits under real contention; add a deterministic round
    // of forced adaptations so the exported data always shows both
    // directions, even on a single-core host where the contended phase
    // barely splits.  Hold each phase for a few sampler intervals so the
    // time-series records the plateau: the base-node column rises to ~9
    // and falls back regardless of hardware.
    const auto hold = std::chrono::milliseconds(
        opt.monitor_interval_ms > 0 ? 3 * opt.monitor_interval_ms : 0);
    for (Key k = 0; k < 8; ++k) tree.force_split(k * 2048);
    std::this_thread::sleep_for(hold);
    for (Key k = 0; k < 8; ++k) tree.force_join(k * 2048);
    std::this_thread::sleep_for(hold);

    obs::Snapshot snap = obs::global_snapshot();
    tree.stats().append_to(snap, "lfca_");
    std::printf("\n--- observability snapshot ---\n");
    obs::write_table(std::cout, snap);
    monitored.finish();  // stops endpoint + sampler, writes the files
  }
  domain.drain();
#else
  (void)opt;
  (void)duration;
  std::printf("\n(CATS_OBS=OFF: metrics export compiled out)\n");
#endif
}

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark takes the --benchmark_* flags; the rest are
  // --demo-duration and the harness flags of the metrics demo.
  cats::harness::Options opt;
  opt.monitor_interval_ms = 50;
  opt.metrics_out = "bench_micro_metrics.json";
  opt.series_out = "bench_micro_series.csv";
  double demo_duration = 0.3;
  std::vector<char*> ours = {argv[0]};
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.starts_with("--benchmark_")) {
      argv[kept++] = argv[i];
    } else if (arg.starts_with("--demo-duration=")) {
      const char* v = argv[i] + std::strlen("--demo-duration=");
      if (!cats::harness::detail::parse_double(v, &demo_duration) ||
          demo_duration < 0) {
        std::fprintf(stderr, "--demo-duration: expected SEC >= 0, got '%s'\n",
                     v);
        return 2;
      }
    } else {
      ours.push_back(argv[i]);
    }
  }
  argc = kept;
  std::string error;
  bool help = false;
  if (!cats::harness::Options::parse_into(static_cast<int>(ours.size()),
                                          ours.data(), opt, error, &help)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (help) {
    std::printf("usage: bench_micro [--benchmark_*] [--demo-duration=SEC] "
                "[options]\n%s\n",
                cats::harness::Options::usage());
    return 0;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_metrics_demo(opt, demo_duration);
  return 0;
}

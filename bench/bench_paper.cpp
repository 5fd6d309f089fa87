// The paper's evaluation (§7) as one driver:
//
//   bench_paper <scenario>... [options]
//
// Scenarios are the rows of kScenarios; options are harness::Options.
// Throughput scenarios build structures with harness::make_structure, run
// them with harness::run_mix, and give LFCA rows the tree's internals:
// fig9b's LFCA rows are Table 1, fig10's are Table 2.
//
// Structure names follow the paper's legends:
//   lfca       — this paper's LFCA tree
//   ca-lock    — lock-based CA tree [17, 22]
//   kary       — lock-free k-ary search tree, k = 64 [4]
//   imtr       — Im-Tr-Coarse: CAS on a single immutable tree (§1)
//   sl-nonatom — lock-free skiplist, non-linearizable ranges (NonAtomicSL)
//   vskip      — versioned skiplist (KiWi-mechanism stand-in [2])
//   lfca-chunk — the LFCA tree with flat-array leaves (--key-type=str only)
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "calock/ca_tree.hpp"
#include "common/rng.hpp"
#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "imtr/imtr_set.hpp"
#include "kary/kary_tree.hpp"
#include "lfca/lfca_tree.hpp"
#include "obs/flight/flight.hpp"
#include "skiplist/skiplist.hpp"
#include "treap/treap.hpp"
#include "vskip/versioned_skiplist.hpp"

namespace {

using namespace cats;
using harness::Mix;
using harness::Options;
using harness::ThreadGroup;

template <class S>
struct Tag {
  using type = S;
  const char* name;
};

/// Key codec driving a structure (harness/workload.hpp): decimal StrKeys
/// for the string-keyed LFCA trees, the identity for everything else.
template <class S>
using CodecOf =
    std::conditional_t<std::is_same_v<S, lfca::LfcaStrTree> ||
                           std::is_same_v<S, lfca::LfcaStrTreeChunk>,
                       harness::StrKeyCodec, harness::IntKeyCodec>;

enum class Roster {
  kAll,   // the paper's six; with --key-type=str the StrKey LFCA trees
  kFig1,  // kary vs imtr
  kLfca,  // the LFCA tree alone
};

/// Calls `f` with a Tag for every member of `roster` that passes --only;
/// `f` must drive the structure through CodecOf<S> (str rosters too).
template <class F>
void for_each_structure(Roster roster, const Options& opt, F&& f) {
  auto pick = [&](auto tag) {
    if (opt.only.empty() || opt.only == tag.name) f(tag);
  };
  if (roster == Roster::kFig1) {
    pick(Tag<kary::KaryTree>{"kary"});
    pick(Tag<imtr::ImTreeSet>{"imtr"});
  } else if (opt.key_type == "str") {
    pick(Tag<lfca::LfcaStrTree>{"lfca"});
    pick(Tag<lfca::LfcaStrTreeChunk>{"lfca-chunk"});
  } else {
    pick(Tag<lfca::LfcaTree>{"lfca"});
    if (roster == Roster::kLfca) return;
    pick(Tag<calock::CaTree>{"ca-lock"});
    pick(Tag<kary::KaryTree>{"kary"});
    pick(Tag<imtr::ImTreeSet>{"imtr"});
    pick(Tag<skiplist::SkipList>{"sl-nonatom"});
    pick(Tag<vskip::VersionedSkipList>{"vskip"});
  }
}

/// One data point: the --runs runs summed (throughput is total ops over
/// total time) and, for LFCA trees, the tree's counters over the same runs
/// (the columns of Tables 1 and 2).
struct Point {
  harness::RunResult run;
  bool lfca = false;
  double route_nodes = 0;  // mean over the runs
  lfca::Stats stats;
  double per_ms(std::uint64_t n) const {
    return static_cast<double>(n) / (run.seconds * 1000.0);
  }
};

/// Builds a fresh pre-filled instance per run and runs the groups on it.
template <class S>
Point measure(const Options& opt, const std::vector<ThreadGroup>& groups,
              const lfca::Config& config) {
  using Codec = CodecOf<S>;
  Point p;
  for (int run = 0; run < opt.runs; ++run) {
    const std::unique_ptr<S> s = harness::make_structure<S>(config);
    harness::prefill<S, Codec>(*s, opt.size);
    if constexpr (harness::LfcaTreeType<S>) s->reset_stats();
    const harness::RunResult r = harness::run_mix<S, Codec>(
        *s, groups, opt.size, opt.duration, 1000 + run);
    p.run.seconds += r.seconds;
    p.run.total_ops += r.total_ops;
    for (int g = 0; g < 4; ++g) p.run.group_ops[g] += r.group_ops[g];
    // Per-thread counts are concatenated: the fairness statistics then
    // cover every (thread, run) sample.
    p.run.per_thread_ops.insert(p.run.per_thread_ops.end(),
                                r.per_thread_ops.begin(),
                                r.per_thread_ops.end());
    if constexpr (harness::LfcaTreeType<S>) {
      const lfca::Stats st = s->stats();
      p.lfca = true;
      p.route_nodes += static_cast<double>(s->route_node_count()) / opt.runs;
      p.stats.splits += st.splits;
      p.stats.joins += st.joins;
      p.stats.range_queries += st.range_queries;
      p.stats.range_bases_traversed += st.range_bases_traversed;
    }
  }
  return p;
}

constexpr const char* kLfcaColumns =
    "route_nodes,traversed_per_query,splits_per_ms,joins_per_ms";
constexpr const char* kLfcaHeads = "    routes    trav/q  split/ms   join/ms";

/// Ends a row with the LFCA internals; blank for the baselines.
void end_row(const Point& p, bool csv) {
  if (!p.lfca) {
    std::printf(csv ? ",,,,\n" : "\n");
  } else {
    std::printf(csv ? ",%.0f,%.2f,%.3f,%.3f\n" : " %9.0f %9.2f %9.3f %9.3f\n",
                p.route_nodes, p.stats.traversed_per_query(),
                p.per_ms(p.stats.splits), p.per_ms(p.stats.joins));
  }
  std::fflush(stdout);
}

/// One structure's throughput-vs-threads series.  The table layout prints
/// a row of ops/us, the `±thr` fairness row (per-thread op-count stddev as
/// % of the mean) and, for LFCA trees, one row per internal statistic; CSV
/// prints one line per thread count.
template <class S>
void sweep(const char* figure, const char* name, const Options& opt,
           const Mix& mix) {
  if (!opt.csv) std::printf("%-10s", name);
  std::vector<Point> points;
  for (int threads : opt.threads) {
    const Point p = measure<S>(opt, {ThreadGroup{threads, mix}},
                               harness::lfca_config(opt));
    if (opt.csv) {
      std::printf("%s,%s,%d,%.4f,%llu,%llu,%.1f", figure, name, threads,
                  p.run.throughput_mops(),
                  static_cast<unsigned long long>(p.run.ops_min()),
                  static_cast<unsigned long long>(p.run.ops_max()),
                  p.run.ops_stddev());
      end_row(p, true);
    } else {
      std::printf(" %9.3f", p.run.throughput_mops());
      std::fflush(stdout);
    }
    points.push_back(p);
  }
  if (opt.csv) return;
  auto row = [&](const char* label, const char* format, auto value) {
    std::printf("\n%-10s", label);
    for (const Point& p : points) std::printf(format, value(p));
  };
  row("  ±thr", " %8.1f%%", [](const Point& p) {
    const double mean = static_cast<double>(p.run.total_ops) /
                        static_cast<double>(p.run.per_thread_ops.size());
    return mean > 0 ? 100 * p.run.ops_stddev() / mean : 0.0;
  });
  if (points.front().lfca) {
    row("  routes", " %9.0f", [](const Point& p) { return p.route_nodes; });
    row("  trav/q", " %9.2f",
        [](const Point& p) { return p.stats.traversed_per_query(); });
    row("  split/ms", " %9.3f",
        [](const Point& p) { return p.per_ms(p.stats.splits); });
    row("  join/ms", " %9.3f",
        [](const Point& p) { return p.per_ms(p.stats.joins); });
  }
  std::printf("\n");
}

constexpr const char* kSweepColumns =
    "figure,structure,threads,mops,ops_min,ops_max,ops_stddev";

/// Table-layout title of one sweep panel (CSV has one header per scenario).
void panel_title(const Options& opt, const std::string& title) {
  if (opt.csv) return;
  std::printf("\n=== %s ===\nthroughput in operations/us; S=%lld, %.2fs x "
              "%d run(s)\n%-10s",
              title.c_str(), static_cast<long long>(opt.size), opt.duration,
              opt.runs, "threads:");
  for (int t : opt.threads) std::printf(" %9d", t);
  std::printf("\n");
}

/// Sweeps every roster member over each panel's mix.
void sweep_panels(Roster roster, const Options& opt,
                  std::initializer_list<std::pair<const char*, Mix>> panels) {
  if (opt.csv) std::printf("%s,%s\n", kSweepColumns, kLfcaColumns);
  for (const auto& [figure, mix] : panels) {
    panel_title(opt, std::string(figure) + ": " + mix.describe());
    for_each_structure(roster, opt, [&](auto tag) {
      sweep<typename decltype(tag)::type>(figure, tag.name, opt, mix);
    });
  }
}

// Figure 1 (§1): coarse- vs fine-grained synchronization.  The lock-free
// k-ary tree against Im-Tr-Coarse on w:20% r:55% q:25% with small (a) and
// large (b) range queries: neither fixed granularity wins both.  R = 10
// gives ~2.5 items per query on a half-full key space, R = S/10 ~S/40.
void fig1(const Options& opt, lfca::LfcaTree*) {
  sweep_panels(Roster::kFig1, opt,
               {{"fig1a", Mix::of_percent(20, 55, 25, 10)},
                {"fig1b", Mix::of_percent(20, 55, 25, opt.size / 10)}});
}

// Figure 8: single-item operations only, by increasing lookup share:
// update heavy (a), read mostly (b), read dominated (c).
void fig8(const Options& opt, lfca::LfcaTree*) {
  sweep_panels(Roster::kAll, opt,
               {{"fig8a", Mix::of_percent(50, 50, 0)},
                {"fig8b", Mix::of_percent(20, 80, 0)},
                {"fig8c", Mix::of_percent(1, 99, 0)}});
}

// Figure 9: range queries mixed with single-item operations, by increasing
// maximum range size.  The LFCA rows of panel b are Table 1: more threads
// give more base nodes.
void fig9(const Options& opt, lfca::LfcaTree*) {
  sweep_panels(
      Roster::kAll, opt,
      {{"fig9a", Mix::of_percent(20, 55, 25, 10)},
       {"fig9b", Mix::of_percent(20, 55, 25, 1000)},
       {"fig9c", Mix::of_percent(20, 55, 25,
                                 std::min<std::int64_t>(100000, opt.size))}});
}

// Figure 10 (after the KiWi authors' benchmark): half the threads update
// (50% insert / 50% remove), half run range queries of one fixed size; the
// two throughputs are reported separately, ranges also as items scanned
// per us (the paper's Fig. 10a y-axis).  The LFCA rows are Table 2: larger
// ranges must drive the tree coarser.
void fig10(const Options& opt, lfca::LfcaTree*) {
  // The paper uses 16 + 16 threads; split the largest requested count.
  const int per_group = std::max(2, std::ranges::max(opt.threads)) / 2;
  if (opt.csv) {
    std::printf("figure,structure,range_size,update_mops,range_mops,"
                "range_items_per_us,%s\n",
                kLfcaColumns);
  } else {
    std::printf("\n=== fig10: %d update + %d range-query threads, S=%lld "
                "===\nstructure     rangesz |  updates op/us |   ranges op/us"
                " |   items/us |%s\n",
                per_group, per_group, static_cast<long long>(opt.size),
                kLfcaHeads);
  }
  const Mix update_mix = Mix::of_percent(100, 0, 0);
  for_each_structure(Roster::kAll, opt, [&](auto tag) {
    using S = typename decltype(tag)::type;
    for (std::int64_t range_size : {2, 128, 512, 2048, 8192, 32768, 131072}) {
      if (range_size >= opt.size) break;
      const Point p = measure<S>(
          opt,
          {ThreadGroup{per_group, update_mix},
           ThreadGroup{per_group,
                       Mix::of_percent(0, 0, 100, range_size, /*fixed=*/true)}},
          harness::lfca_config(opt));
      const double range_mops = p.run.group_mops(1);
      std::printf(opt.csv ? "fig10,%s,%lld,%.4f,%.6f,%.4f"
                          : "%-10s %10lld | %14.4f | %14.6f | %10.3f |",
                  tag.name, static_cast<long long>(range_size),
                  p.run.group_mops(0), range_mops,
                  range_mops * static_cast<double>(range_size));
      end_row(p, opt.csv);
    }
  });
}

// Figure 11: w:20% r:55% q:25%-R on one tree with R cycling 1000 -> 10 ->
// 1000 -> 10 -> 100000, six samples (run_mix intervals) per phase.  After
// each change the route-node count drifts to the new equilibrium (down for
// large ranges, up for small) while throughput recovers.  The paper runs
// each sample in a fresh JVM against JIT noise; native code needs none.
void fig11(const Options& opt, lfca::LfcaTree* tree) {
  const int threads = std::ranges::max(opt.threads);
  const int samples_per_phase = 6;
  const double sample_seconds =
      std::max(0.6, opt.duration) / samples_per_phase;
  const std::int64_t phases[] = {1000, 10, 1000, 10,
                                 std::min<std::int64_t>(100000, opt.size)};
  harness::prefill(*tree, opt.size);
  if (opt.csv) {
    std::printf("figure,time_s,range_max,route_nodes,mops\n");
  } else {
    std::printf("\n=== fig11: %d threads, w:20%% r:55%% q:25%%-R, S=%lld "
                "===\n time[s]          R   routenodes      op/us\n",
                threads, static_cast<long long>(opt.size));
  }
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t seed = 1;
  for (std::int64_t range : phases) {
    const Mix mix = Mix::of_percent(20, 55, 25, range);
    for (int s = 0; s < samples_per_phase; ++s) {
      const harness::RunResult r = harness::run_mix(
          *tree, threads, mix, opt.size, sample_seconds, seed++);
      const double now = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
      std::printf(opt.csv ? "fig11,%.2f,%lld,%zu,%.4f\n"
                          : "%8.2f %10lld %12zu %10.3f\n",
                  now, static_cast<long long>(range),
                  tree->route_node_count(), r.throughput_mops());
      std::fflush(stdout);
    }
  }
}

// Ablations of the LFCA tree's design choices (not in the paper; DESIGN.md
// motivates them), all on the Fig. 9b mix: the heuristic constants, the §6
// optimistic range query, the fat-leaf fill limit and the leaf container.
// Every variant starts from the constants the options select.
void ablation(const Options& opt, lfca::LfcaTree*) {
  const Mix mix = Mix::of_percent(20, 55, 25, 1000);
  const int threads = std::ranges::max(opt.threads);
  if (opt.csv) {
    std::printf("figure,variant,mops,%s\n", kLfcaColumns);
  } else {
    std::printf("\n=== ablation: %s, %d threads, S=%lld ===\n%-34s %10s "
                "|%s\n",
                mix.describe().c_str(), threads,
                static_cast<long long>(opt.size), "variant", "op/us",
                kLfcaHeads);
  }
  auto report = [&](const char* variant, const lfca::Config& config,
                    auto tag) {
    const Point p =
        measure<typename decltype(tag)::type>(opt, {{threads, mix}}, config);
    std::printf(opt.csv ? "ablation,%s,%.4f" : "%-34s %10.3f |", variant,
                p.run.throughput_mops());
    end_row(p, opt.csv);
  };
  const Tag<lfca::LfcaTree> treap{"lfca"};
  const lfca::Config base = harness::lfca_config(opt);
  report("base", base, treap);
  lfca::Config c = base;
  c.cont_contrib = 50;
  report("cont_contrib=50 (slow splits)", c, treap);
  c.cont_contrib = 1000;
  report("cont_contrib=1000 (eager splits)", c, treap);
  c = base;
  c.range_contrib = 0;
  report("range_contrib=0 (no range info)", c, treap);
  c.range_contrib = 500;
  report("range_contrib=500 (eager joins)", c, treap);
  c = base;
  c.high_cont = 100;
  c.low_cont = -100;
  report("thresholds=+/-100 (twitchy)", c, treap);
  c.high_cont = 10000;
  c.low_cont = -10000;
  report("thresholds=+/-10000 (sluggish)", c, treap);
  c = base;
  c.optimistic_ranges = false;
  report("optimistic-ranges=off (Fig 5 only)", c, treap);
  for (std::uint32_t fill : {8u, 16u, 32u, 64u}) {
    treap::set_leaf_fill(fill);
    const std::string label = "leaf_fill=" + std::to_string(fill);
    report(label.c_str(), base, treap);
  }
  treap::set_leaf_fill(treap::kLeafCapacity);
  // The paper's "Flexible" property: the flat sorted-array container pays
  // O(n) per update, the degradation §3 attributes to the k-ary tree's and
  // Leaplist's arrays when nodes grow.
  report("container=chunk (flat array)", base,
         Tag<lfca::LfcaTreeChunk>{"lfca-chunk"});
}

// Lookup latency under update churn (the §1/§3 argument for the wait-free
// lookup): a preempted CA-tree lock holder stalls updates, which shows in
// the tail; the LFCA lookup's tail depends only on depth and the scheduler.
// The calling thread times each lookup (run_mix's power-of-two histograms
// cannot give p99.9 or the maximum) while run_mix churns 50% insert / 50%
// remove on the other threads for exactly as long as sampling lasts.
void latency(const Options& opt, lfca::LfcaTree*) {
  const int churn_threads = std::max(1, std::ranges::max(opt.threads) - 1);
  const auto samples = std::max<std::size_t>(
      1, static_cast<std::size_t>(opt.duration * opt.runs * 400'000));
  if (opt.csv) {
    std::printf("figure,structure,p50_ns,p99_ns,p999_ns,max_ns\n");
  } else {
    std::printf("\n=== latency: %d churn threads, S=%lld, %zu samples ===\n"
                "structure     p50[ns]    p99[ns]  p99.9[ns]      max[ns]\n",
                churn_threads, static_cast<long long>(opt.size), samples);
  }
  for_each_structure(Roster::kAll, opt, [&](auto tag) {
    using S = typename decltype(tag)::type;
    using Codec = CodecOf<S>;
    const std::unique_ptr<S> s =
        harness::make_structure<S>(harness::lfca_config(opt));
    harness::prefill<S, Codec>(*s, opt.size);
    std::vector<std::uint64_t> ns(samples);
    harness::run_mix<S, Codec>(
        *s, {{churn_threads, Mix::of_percent(100, 0, 0)}}, opt.size, 0, 1,
        [&] {
          Xoshiro256 rng(7);
          for (std::uint64_t& sample : ns) {
            const auto key = Codec::encode(rng.next_in(1, opt.size - 1));
            const auto t0 = std::chrono::steady_clock::now();
            Value v;
            s->lookup(key, &v);
            sample = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
          }
        });
    std::sort(ns.begin(), ns.end());
    auto pct = [&](double q) {
      return static_cast<unsigned long long>(
          ns[static_cast<std::size_t>(q * static_cast<double>(ns.size() - 1))]);
    };
    std::printf(opt.csv ? "latency,%s,%llu,%llu,%llu,%llu\n"
                        : "%-10s %10llu %10llu %10llu %12llu\n",
                tag.name, pct(0.50), pct(0.99), pct(0.999), pct(1.0));
    std::fflush(stdout);
  });
}

// Observability overhead: the Fig. 9b mix on the LFCA tree with the
// flight recorder off (one relaxed load and a branch per op),
// enabled but unsampled (shift 20, ~1 op in 10^6) and sampled at a
// tracing-grade rate (shift 6).  Comparing a CATS_OBS=ON and an OFF build
// covers the compile-time axis; the ON build's first two series must stay
// within noise of OFF, where the three modes are identical.
void obs_overhead(const Options& opt, lfca::LfcaTree*) {
  const Mix mix = Mix::of_percent(20, 55, 25, 1000);
  const char* figure = obs::kEnabled ? "obs-on" : "obs-off";
  if (opt.csv) std::printf("%s,%s\n", kSweepColumns, kLfcaColumns);
  panel_title(opt, std::string(figure) + ": flight-recorder modes, " +
                       mix.describe());
  auto& recorder = obs::flight::Recorder::instance();
  auto set_shift = [&](int shift) {
    shift < 0 ? recorder.disable()
              : recorder.enable(static_cast<unsigned>(shift));
  };
  const int shift_before = recorder.enabled() ? recorder.sample_shift() : -1;
  const std::pair<const char*, int> modes[] = {
      {"off", -1}, {"unsampled", 20}, {"sampled", 6}};
  for (const auto& [mode, shift] : modes) {
    set_shift(shift);
    sweep<lfca::LfcaTree>(figure, mode, opt, mix);
  }
  set_shift(shift_before);  // as MonitoredRun left it
  // Hardware counters of every measure phase so far: cycles/IPC where the
  // kernel permits, the reason where it does not — never a failure.
  obs::flight::PerfCounts m{.unavailable_reason = "no samples"};
  for (const auto& [phase, c] : obs::flight::perf_phase_totals()) {
    if (phase == "measure") m = c;
  }
  if (m.available) {
    std::printf("perf,measure,cycles=%llu,instructions=%llu,ipc=%.2f\n",
                static_cast<unsigned long long>(m.cycles),
                static_cast<unsigned long long>(m.instructions), m.ipc());
  } else {
    std::printf("perf,measure,unavailable: %s\n", m.unavailable_reason.c_str());
  }
}

struct Scenario {
  const char* name;
  Roster roster;
  bool str_keys;  // has a --key-type=str roster
  /// `fig11_tree` is fig11's persistent tree (built by main() so the
  /// monitor can sample it); null when fig11 is not selected.
  void (*run)(const Options& opt, lfca::LfcaTree* fig11_tree);
};

constexpr Scenario kScenarios[] = {
    {"fig1", Roster::kFig1, false, fig1},
    {"fig8", Roster::kAll, true, fig8},
    {"fig9", Roster::kAll, true, fig9},
    {"fig10", Roster::kAll, true, fig10},
    {"fig11", Roster::kLfca, false, fig11},
    {"ablation", Roster::kLfca, false, ablation},
    {"latency", Roster::kAll, false, latency},
    {"obs", Roster::kLfca, false, obs_overhead},
};

int usage(const std::string& error) {
  std::FILE* out = error.empty() ? stdout : stderr;
  if (!error.empty()) std::fprintf(out, "%s\n", error.c_str());
  std::fprintf(out, "usage: bench_paper <scenario>... [options]\nscenarios:");
  for (const Scenario& s : kScenarios) std::fprintf(out, " %s", s.name);
  std::fprintf(out, "\n%s\n", Options::usage());
  return error.empty() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Positional arguments name scenarios; the rest are harness options.
  std::vector<const Scenario*> chosen;
  std::vector<char*> flags = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.starts_with("-")) {
      flags.push_back(argv[i]);
      continue;
    }
    const auto* s = std::find_if(
        std::begin(kScenarios), std::end(kScenarios),
        [&](const Scenario& sc) { return arg == sc.name; });
    if (s == std::end(kScenarios)) return usage("unknown scenario: " + arg);
    if (std::find(chosen.begin(), chosen.end(), s) != chosen.end()) {
      return usage("scenario listed twice: " + arg);
    }
    chosen.push_back(s);
  }
  Options opt;
  std::string error;
  bool help = false;
  if (!Options::parse_into(static_cast<int>(flags.size()), flags.data(), opt,
                           error, &help)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (help) return usage("");
  if (chosen.empty()) return usage("no scenario given");

  // Refuse what a scenario cannot honour before anything runs.
  for (const Scenario* s : chosen) {
    const std::string name = s->name;
    if (opt.key_type == "str" && !s->str_keys) {
      return usage(name + ": --key-type=str runs fig8, fig9 and fig10 only");
    }
    Options all = opt;
    all.only.clear();
    std::string roster;
    for_each_structure(s->roster, all, [&](auto tag) {
      roster += std::string(" ") + tag.name;
    });
    if (!opt.only.empty() && (roster + " ").find(" " + opt.only + " ") ==
                                 std::string::npos) {
      return usage(name + ": --only=" + opt.only + " is not in its roster:" +
                   roster);
    }
  }

  // fig11's tree is built before the MonitoredRun (and so outlives it):
  // the monitor then samples its counters and topology as well.
  std::unique_ptr<lfca::LfcaTree> fig11_tree;
  for (const Scenario* s : chosen) {
    if (s->run == fig11) {
      fig11_tree = harness::make_structure<lfca::LfcaTree>(
          harness::lfca_config(opt));
    }
  }
  harness::MonitoredRun monitored(
      opt,
      fig11_tree ? harness::tree_stats_source(*fig11_tree)
                 : harness::global_stats_source(),
      fig11_tree ? harness::tree_topology_source(*fig11_tree)
                 : harness::MonitoredRun::TopologySource());
  for (const Scenario* s : chosen) s->run(opt, fig11_tree.get());
  return 0;
}

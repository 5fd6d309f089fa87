// Tests for the benchmark harness itself: workload descriptions, the
// pre-fill contract, operation-mix proportions and the paper's sanity
// statistic (average items traversed per range query).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "imtr/imtr_set.hpp"
#include "lfca/lfca_tree.hpp"

namespace cats::harness {
namespace {

TEST(Workload, DescribeMatchesPaperNotation) {
  EXPECT_EQ(Mix::of_percent(20, 55, 25, 1000).describe(),
            "w:20% r:55% q:25%-1000");
  EXPECT_EQ(Mix::of_percent(50, 50, 0).describe(), "w:50% r:50% q:0%");
  EXPECT_EQ(Mix::of_percent(0, 0, 100, 128, true).describe(),
            "w:0% r:0% q:100%-128 (fixed)");
}

TEST(Workload, PermilleSumsTo1000) {
  const Mix mix = Mix::of_percent(20, 55, 25, 10);
  EXPECT_EQ(mix.update_permille + mix.lookup_permille + mix.range_permille,
            1000u);
}

TEST(Prefill, FillsToExactlyHalf) {
  imtr::ImTreeSet set;
  prefill(set, 10'000);
  EXPECT_EQ(set.size(), 5'000u);
  // Keys are within [1, S-1].
  std::size_t bad = 0;
  set.range_query(kKeyMin, kKeyMax, [&](Key k, Value) {
    if (k < 1 || k > 9'999) ++bad;
  });
  EXPECT_EQ(bad, 0u);
}

TEST(Runner, CountsOperationsAndStops) {
  lfca::LfcaTree tree;
  prefill(tree, 10'000);
  const Mix mix = Mix::of_percent(20, 55, 25, 100);
  const RunResult r = run_mix(tree, 2, mix, 10'000, 0.1);
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_GT(r.seconds, 0.05);
  EXPECT_LT(r.seconds, 5.0);
  EXPECT_EQ(r.total_ops, r.group_ops[0]);
}

#if CATS_OBS_ENABLED
// The flight recorder is the one op sampler: every span a run_mix worker
// seals is one latency-histogram sample, and with the recorder off the
// histograms do not move.
TEST(Harness, LatencyHistogramsComeFromSpans) {
  lfca::LfcaTree tree;
  prefill(tree, 10'000);
  const Mix mix = Mix::of_percent(20, 55, 25, 100);
  auto latency_samples = [] {
    const obs::RegistryValues v = obs::Registry::instance().snapshot();
    return v.histogram(obs::GHistogram::kUpdateLatencyNs).count +
           v.histogram(obs::GHistogram::kLookupLatencyNs).count +
           v.histogram(obs::GHistogram::kRangeLatencyNs).count;
  };
  auto& recorder = obs::flight::Recorder::instance();
  recorder.enable(5);
  const std::uint64_t samples0 = latency_samples();
  const std::uint64_t spans0 = recorder.recorded();
  run_mix(tree, 2, mix, 10'000, 0.1);
  recorder.disable();
  const std::uint64_t spans = recorder.recorded() - spans0;
  EXPECT_GT(spans, 0u);
  EXPECT_EQ(latency_samples() - samples0, spans);

  const std::uint64_t samples1 = latency_samples();
  run_mix(tree, 2, mix, 10'000, 0.1);
  EXPECT_EQ(latency_samples(), samples1);
}
#endif  // CATS_OBS_ENABLED

TEST(Runner, ReportsPerThreadOperationCounts) {
  lfca::LfcaTree tree;
  prefill(tree, 10'000);
  const Mix mix = Mix::of_percent(50, 50, 0);
  const RunResult r = run_mix(tree, 3, mix, 10'000, 0.1);
  ASSERT_EQ(r.per_thread_ops.size(), 3u);
  std::uint64_t sum = 0;
  for (std::uint64_t ops : r.per_thread_ops) sum += ops;
  EXPECT_EQ(sum, r.total_ops);
  EXPECT_LE(r.ops_min(), r.ops_max());
  EXPECT_GE(r.ops_stddev(), 0.0);
  EXPECT_LE(r.ops_stddev(),
            static_cast<double>(r.ops_max()));
}

TEST(Workload, PerThreadFairnessStatistics) {
  RunResult r;
  r.per_thread_ops = {10, 20, 30};
  r.total_ops = 60;
  EXPECT_EQ(r.ops_min(), 10u);
  EXPECT_EQ(r.ops_max(), 30u);
  // Population stddev of {10, 20, 30} = sqrt(200/3).
  EXPECT_NEAR(r.ops_stddev(), std::sqrt(200.0 / 3.0), 1e-9);
  EXPECT_EQ(RunResult{}.ops_min(), 0u);
  EXPECT_EQ(RunResult{}.ops_stddev(), 0.0);
}

TEST(Runner, GroupsAreCountedSeparately) {
  lfca::LfcaTree tree;
  prefill(tree, 10'000);
  const RunResult r = run_mix(
      tree,
      {ThreadGroup{1, Mix::of_percent(100, 0, 0)},
       ThreadGroup{1, Mix::of_percent(0, 100, 0)}},
      10'000, 0.1);
  EXPECT_EQ(r.total_ops, r.group_ops[0] + r.group_ops[1]);
  EXPECT_GT(r.group_ops[0], 0u);
  EXPECT_GT(r.group_ops[1], 0u);
  EXPECT_EQ(r.range_queries, 0u);
}

// The paper's sanity check (§7): with keys uniform over [0, S), a structure
// holding S/2 items and range sizes uniform in [1, R], a range query covers
// about R/4 items on average (expected span R/2, half the keys present).
TEST(Runner, RangeItemsSanityCheck) {
  lfca::LfcaTree tree;
  constexpr Key kS = 100'000;
  prefill(tree, kS);
  const Mix mix = Mix::of_percent(0, 0, 100, 1000);
  const RunResult r = run_mix(tree, 2, mix, kS, 0.2);
  ASSERT_GT(r.range_queries, 100u);
  const double avg = r.items_per_range_query();
  EXPECT_GT(avg, 1000.0 / 4 * 0.7);
  EXPECT_LT(avg, 1000.0 / 4 * 1.3);
}

TEST(Runner, FixedRangeSizesAreExact) {
  imtr::ImTreeSet set;
  // Fully populate so a fixed-size range always covers exactly `size` keys.
  for (Key k = 1; k < 2'000; ++k) set.insert(k, 1);
  Mix mix = Mix::of_percent(0, 0, 100, 64, /*fixed=*/true);
  const RunResult r = run_mix(set, 1, mix, 1'000, 0.05);
  ASSERT_GT(r.range_queries, 0u);
  // Every query spans exactly 64 keys, all present.
  EXPECT_DOUBLE_EQ(r.items_per_range_query(), 64.0);
}

// --- Command-line parsing (Options::parse_into). -----------------------------
//
// The binaries exit on a bad flag, so the tests drive parse_into(), which
// reports through a (success, message) pair instead.

struct ParseResult {
  bool ok = false;
  bool help = false;
  std::string error;
  Options opt;
};

ParseResult parse_args(std::vector<std::string> args) {
  ParseResult r;
  std::vector<char*> argv;
  std::string prog = "bench";
  argv.push_back(prog.data());
  for (std::string& a : args) argv.push_back(a.data());
  r.ok = Options::parse_into(static_cast<int>(argv.size()), argv.data(),
                             r.opt, r.error, &r.help);
  return r;
}

TEST(Cli, DefaultsWhenNoArgs) {
  const ParseResult r = parse_args({});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.help);
  EXPECT_DOUBLE_EQ(r.opt.duration, 0.25);
  EXPECT_EQ(r.opt.runs, 1);
  EXPECT_EQ(r.opt.size, 100'000);
  EXPECT_EQ(r.opt.threads, (std::vector<int>{1, 2, 4, 8}));
  EXPECT_FALSE(r.opt.csv);
}

TEST(Cli, ParsesEveryFlag) {
  const ParseResult r = parse_args(
      {"--duration=1.5", "--runs=3", "--size=4096", "--threads=1,16,128",
       "--csv", "--only=lfca", "--high-cont=7", "--low-cont=-7",
       "--cont-contrib=42", "--monitor-interval-ms=10", "--monitor-port=0",
       "--metrics-out=m.json", "--series-out=s.csv",
       "--check-every-n-ops=1000"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.opt.duration, 1.5);
  EXPECT_EQ(r.opt.runs, 3);
  EXPECT_EQ(r.opt.size, 4096);
  EXPECT_EQ(r.opt.threads, (std::vector<int>{1, 16, 128}));
  EXPECT_TRUE(r.opt.csv);
  EXPECT_EQ(r.opt.only, "lfca");
  EXPECT_EQ(r.opt.high_cont, 7);
  EXPECT_EQ(r.opt.low_cont, -7);
  EXPECT_EQ(r.opt.cont_contrib, 42);
  EXPECT_EQ(r.opt.monitor_interval_ms, 10);
  EXPECT_EQ(r.opt.monitor_port, 0);
  EXPECT_EQ(r.opt.metrics_out, "m.json");
  EXPECT_EQ(r.opt.series_out, "s.csv");
  EXPECT_EQ(r.opt.check_every_n_ops, 1000u);
  g_check_every_n_ops.store(0);  // don't leak state into other tests
}

TEST(Cli, KeyTypeSelection) {
  EXPECT_EQ(parse_args({}).opt.key_type, "int");  // default: the fast path
  const ParseResult str = parse_args({"--key-type=str"});
  ASSERT_TRUE(str.ok) << str.error;
  EXPECT_EQ(str.opt.key_type, "str");
  const ParseResult i = parse_args({"--key-type=int"});
  ASSERT_TRUE(i.ok) << i.error;
  EXPECT_EQ(i.opt.key_type, "int");
  // Anything else is a hard parse error, not a silent fallback.
  const ParseResult bad = parse_args({"--key-type=uuid"});
  ASSERT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, "--key-type: expected 'int' or 'str', got 'uuid'");
  EXPECT_FALSE(parse_args({"--key-type="}).ok);
}

TEST(Cli, RejectsDuplicateFlags) {
  const ParseResult r = parse_args({"--runs=2", "--runs=3"});
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error, "duplicate option: --runs");
  // Also when the values differ only syntactically, and for value-less
  // flags.
  EXPECT_FALSE(parse_args({"--csv", "--csv"}).ok);
  EXPECT_FALSE(parse_args({"--threads=1", "--threads=1"}).ok);
}

TEST(Cli, RejectsMalformedNumbers) {
  // atoi-style silent garbage-to-zero parses must be errors instead.
  EXPECT_FALSE(parse_args({"--duration=abc"}).ok);
  EXPECT_FALSE(parse_args({"--duration=1.5x"}).ok);
  EXPECT_FALSE(parse_args({"--duration="}).ok);
  EXPECT_FALSE(parse_args({"--duration=0"}).ok);    // must be positive
  EXPECT_FALSE(parse_args({"--duration=-1"}).ok);
  EXPECT_FALSE(parse_args({"--runs=0"}).ok);
  EXPECT_FALSE(parse_args({"--runs=two"}).ok);
  EXPECT_FALSE(parse_args({"--size=0"}).ok);
  EXPECT_FALSE(parse_args({"--size=12tb"}).ok);
  EXPECT_FALSE(parse_args({"--monitor-interval-ms=-1"}).ok);
  EXPECT_FALSE(parse_args({"--monitor-port=65536"}).ok);
  EXPECT_FALSE(parse_args({"--monitor-port=-2"}).ok);
  EXPECT_FALSE(parse_args({"--check-every-n-ops=-5"}).ok);
  EXPECT_FALSE(parse_args({"--runs=99999999999999999999"}).ok);  // overflow
  const ParseResult r = parse_args({"--runs=1.5"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--runs"), std::string::npos);
  EXPECT_NE(r.error.find("1.5"), std::string::npos);
}

TEST(Cli, RejectsBadThreadLists) {
  EXPECT_FALSE(parse_args({"--threads="}).ok);
  EXPECT_FALSE(parse_args({"--threads=1,,4"}).ok);
  EXPECT_FALSE(parse_args({"--threads=1,2,"}).ok);
  EXPECT_FALSE(parse_args({"--threads=0"}).ok);
  EXPECT_FALSE(parse_args({"--threads=1,-2"}).ok);
  EXPECT_FALSE(parse_args({"--threads=1;2"}).ok);
  const ParseResult r = parse_args({"--threads=4"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.threads, (std::vector<int>{4}));
}

TEST(Cli, TraceFlagsParseWhenRecorderCompiledIn) {
  if (!obs::kEnabled) GTEST_SKIP() << "flight recorder compiled out";
  const ParseResult r =
      parse_args({"--trace-out=t.json", "--trace-sample-shift=4"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.trace_out, "t.json");
  EXPECT_EQ(r.opt.trace_sample_shift, 4);
  // Default: no trace file, the latency histograms' 1-in-32 sampling.
  const ParseResult d = parse_args({});
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_TRUE(d.opt.trace_out.empty());
  EXPECT_EQ(d.opt.trace_sample_shift, 5);
}

TEST(Cli, TraceFlagsRejectBadValues) {
  // An empty path is an error in every build.
  EXPECT_FALSE(parse_args({"--trace-out="}).ok);
  if (!obs::kEnabled) GTEST_SKIP() << "flight recorder compiled out";
  const ParseResult r = parse_args({"--trace-sample-shift=21"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--trace-sample-shift"), std::string::npos);
  EXPECT_NE(r.error.find("21"), std::string::npos);
  EXPECT_FALSE(parse_args({"--trace-sample-shift=-1"}).ok);
  EXPECT_FALSE(parse_args({"--trace-sample-shift=abc"}).ok);
  EXPECT_FALSE(parse_args({"--trace-sample-shift="}).ok);
}

TEST(Cli, TraceFlagsHardFailWhenRecorderCompiledOut) {
  // A trace request against a build with no recorder must refuse loudly —
  // silently producing no trace would be worse than an error.
  if (obs::kEnabled) GTEST_SKIP() << "flight recorder compiled in";
  const ParseResult r = parse_args({"--trace-out=t.json"});
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error,
            "--trace-out: flight recorder compiled out (CATS_OBS=OFF)");
  const ParseResult s = parse_args({"--trace-sample-shift=4"});
  ASSERT_FALSE(s.ok);
  EXPECT_EQ(s.error,
            "--trace-sample-shift: flight recorder compiled out "
            "(CATS_OBS=OFF)");
}

TEST(Cli, RejectsUnknownFlags) {
  const ParseResult r = parse_args({"--frobnicate=9"});
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error, "unknown option: --frobnicate=9");
  // A value passed to a value-less flag is unknown, not silently accepted.
  EXPECT_FALSE(parse_args({"--csv=yes"}).ok);
}

TEST(Cli, HelpIsReportedNotExited) {
  ParseResult r = parse_args({"--help"});
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.help);
  r = parse_args({"-h"});
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.help);
  // --help wins even when earlier flags are fine and later ones are bogus.
  r = parse_args({"--runs=2", "--help", "--garbage"});
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.help);
}

TEST(Cli, PresetsStillApply) {
  const ParseResult paper = parse_args({"--paper"});
  ASSERT_TRUE(paper.ok) << paper.error;
  EXPECT_EQ(paper.opt.size, 1'000'000);
  EXPECT_DOUBLE_EQ(paper.opt.duration, 10.0);
  EXPECT_EQ(paper.opt.runs, 3);
  const ParseResult sens = parse_args({"--sensitive"});
  ASSERT_TRUE(sens.ok) << sens.error;
  EXPECT_EQ(sens.opt.high_cont, 0);
  EXPECT_EQ(sens.opt.low_cont, -100);
}

// The heuristic flags reach the tree a benchmark builds, not just Options.
TEST(Cli, SensitiveReachesTheBuiltTree) {
  const ParseResult sens = parse_args({"--sensitive"});
  ASSERT_TRUE(sens.ok) << sens.error;
  const auto tree = make_structure<lfca::LfcaTree>(lfca_config(sens.opt));
  EXPECT_EQ(tree->config().high_cont, 0);
  EXPECT_EQ(tree->config().low_cont, -100);
}

}  // namespace
}  // namespace cats::harness

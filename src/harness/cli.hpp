// Command-line options shared by bench_paper and the bench_micro metrics
// demo.  Defaults are scaled down from the paper's 10-second, 10^6-key
// runs so the whole suite finishes in CI time; pass --paper for the
// full-scale parameters.
#pragma once

#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "common/types.hpp"
#include "obs/obs.hpp"

namespace cats::harness {

/// Process-wide period of the in-workload tree validator (0 = disabled).
/// Set by Options::parse_into from --check-every-n-ops; read by run_mix
/// workers.  Only effective in CATS_CHECKED builds — the validator is
/// compiled out otherwise.
inline std::atomic<std::uint64_t> g_check_every_n_ops{0};

namespace detail {

// Strict numeric parsers: the whole value must parse (no trailing garbage,
// no empty string), unlike atoi/atof which silently return 0.

inline bool parse_double(const char* s, double* out) {
  if (*s == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

inline bool parse_i64(const char* s, long long* out) {
  if (*s == '\0') return false;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

inline bool parse_int(const char* s, int* out) {
  long long v = 0;
  if (!parse_i64(s, &v) || v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

inline bool parse_u64(const char* s, std::uint64_t* out) {
  long long v = 0;
  if (!parse_i64(s, &v) || v < 0) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

}  // namespace detail

struct Options {
  /// Seconds measured per data point.
  double duration = 0.25;
  /// Measurement repetitions averaged per data point.
  int runs = 1;
  /// Key range S; the structure is pre-filled with S/2 items.
  Key size = 100'000;
  /// Thread counts for sweeps.
  std::vector<int> threads = {1, 2, 4, 8};
  /// Emit machine-readable CSV instead of the table layout.
  bool csv = false;
  /// Run only the structure with this name (empty = all); bench_paper
  /// rejects a name outside the selected scenario's roster.
  std::string only;
  /// Key type driven through the structures: "int" (the fast path) or
  /// "str" (StrKey instantiations via harness::StrKeyCodec).  Scenarios
  /// without a string-keyed roster reject "str".
  std::string key_type = "int";
  /// LFCA heuristic overrides (paper defaults when untouched).  On hosts
  /// with few hardware threads, genuine CAS contention is rare and the
  /// paper's +/-1000 thresholds barely trigger; --sensitive drops them so
  /// the adaptation *direction* is still demonstrable (see EXPERIMENTS.md).
  int high_cont = 1000;
  int low_cont = -1000;
  int cont_contrib = 250;
  /// Live monitoring (CATS_OBS builds; see harness::MonitoredRun).
  /// Sampling interval of the background monitor; 0 disables the sampler.
  int monitor_interval_ms = 0;
  /// HTTP endpoint port (-1 disabled, 0 ephemeral — the bound port is
  /// printed to stderr).
  int monitor_port = -1;
  /// Where the final metrics snapshot (JSON) is written; empty = nowhere.
  std::string metrics_out;
  /// Where the monitor's rate time-series (CSV) is written; empty =
  /// nowhere.  Needs --monitor-interval-ms > 0 to have any rows.
  std::string series_out;
  /// Run the concurrent-mode tree validator every N operations per worker
  /// thread (CATS_CHECKED builds; 0 = never).  A failed validation aborts
  /// with the diagnostic report.
  std::uint64_t check_every_n_ops = 0;
  /// Where the flight-recorder timeline (Chrome/Perfetto trace-event JSON)
  /// is written; empty = flight recorder stays off unless the monitor
  /// endpoint is up.  Hard error in CATS_OBS=OFF builds — a silently empty
  /// trace is worse than a refused run.
  std::string trace_out;
  /// Flight-recorder sampling: record every 2^shift-th operation per
  /// thread (0 = every op, default 10 = 1/1024).
  int trace_sample_shift = 10;

  /// Parses argv into `opt`.  Returns false (with a one-line message in
  /// `error`) on the first unknown flag, duplicate flag, malformed numeric
  /// value or out-of-range value — instead of silently taking the last
  /// occurrence or atoi's garbage-to-zero parse.  `--help` is reported via
  /// `help_requested` so the caller owns the exit.
  static bool parse_into(int argc, char** argv, Options& opt,
                         std::string& error, bool* help_requested = nullptr) {
    constexpr const char* kNoRecorder =
        ": flight recorder compiled out (CATS_OBS=OFF)";
    std::vector<std::string> seen;
    if (help_requested != nullptr) *help_requested = false;
    auto fail = [&](const std::string& msg) {
      error = msg;
      return false;
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      auto expected = [&](const char* what, const std::string& got) {
        return fail(name + ": expected " + what + ", got '" + got + "'");
      };
      auto value = [&](const char* prefix) -> const char* {
        return arg.compare(0, std::strlen(prefix), prefix) == 0
                   ? arg.c_str() + std::strlen(prefix)
                   : nullptr;
      };
      if (arg == "--help" || arg == "-h") {
        if (help_requested != nullptr) *help_requested = true;
        return true;
      }
      // Every other flag is single-use: a repeated flag is almost always a
      // stale shell history edit, and silently taking the last value has
      // burned enough benchmark runs to reject it outright.
      for (const std::string& s : seen) {
        if (s == name) return fail("duplicate option: " + name);
      }
      seen.push_back(name);
      if (const char* v = value("--duration=")) {
        if (!detail::parse_double(v, &opt.duration) || opt.duration <= 0) {
          return expected("a positive number", v);
        }
      } else if (const char* v = value("--runs=")) {
        if (!detail::parse_int(v, &opt.runs) || opt.runs < 1) {
          return expected("a positive integer", v);
        }
      } else if (const char* v = value("--size=")) {
        long long size = 0;
        if (!detail::parse_i64(v, &size) || size < 1) {
          return expected("a positive integer", v);
        }
        opt.size = size;
      } else if (const char* v = value("--threads=")) {
        opt.threads.clear();
        std::string list(v);
        std::size_t pos = 0;
        while (true) {
          const std::size_t comma = list.find(',', pos);
          const std::string item = list.substr(pos, comma - pos);
          int n = 0;
          if (!detail::parse_int(item.c_str(), &n) || n < 1) {
            return expected("positive integers", item);
          }
          opt.threads.push_back(n);
          if (comma == std::string::npos) break;
          pos = comma + 1;
        }
      } else if (arg == "--csv") {
        opt.csv = true;
      } else if (const char* v = value("--only=")) {
        opt.only = v;
      } else if (const char* v = value("--key-type=")) {
        if (std::strcmp(v, "int") != 0 && std::strcmp(v, "str") != 0) {
          return expected("'int' or 'str'", v);
        }
        opt.key_type = v;
      } else if (const char* v = value("--high-cont=")) {
        if (!detail::parse_int(v, &opt.high_cont)) {
          return expected("an integer", v);
        }
      } else if (const char* v = value("--low-cont=")) {
        if (!detail::parse_int(v, &opt.low_cont)) {
          return expected("an integer", v);
        }
      } else if (const char* v = value("--cont-contrib=")) {
        if (!detail::parse_int(v, &opt.cont_contrib)) {
          return expected("an integer", v);
        }
      } else if (arg == "--sensitive") {
        opt.high_cont = 0;
        opt.low_cont = -100;
      } else if (const char* v = value("--monitor-interval-ms=")) {
        if (!detail::parse_int(v, &opt.monitor_interval_ms) ||
            opt.monitor_interval_ms < 0) {
          return expected("a non-negative integer", v);
        }
      } else if (const char* v = value("--monitor-port=")) {
        if (!detail::parse_int(v, &opt.monitor_port) ||
            opt.monitor_port < -1 || opt.monitor_port > 65535) {
          return expected("-1..65535", v);
        }
      } else if (const char* v = value("--metrics-out=")) {
        opt.metrics_out = v;
      } else if (const char* v = value("--series-out=")) {
        opt.series_out = v;
      } else if (const char* v = value("--check-every-n-ops=")) {
        if (!detail::parse_u64(v, &opt.check_every_n_ops)) {
          return expected("a non-negative integer", v);
        }
        g_check_every_n_ops.store(opt.check_every_n_ops,
                                  std::memory_order_relaxed);
        if (!check::kCheckedEnabled && opt.check_every_n_ops != 0) {
          std::fprintf(stderr,
                       "--check-every-n-ops: requested but compiled out "
                       "(CATS_CHECKED=OFF)\n");
        }
      } else if (const char* v = value("--trace-out=")) {
        if (*v == '\0') {
          return expected("a file path", v);
        }
        // Unlike --check-every-n-ops (a validator that can degrade to a
        // warning), a trace request with no recorder would produce nothing
        // at all — refuse instead of no-opping.
        if (!obs::kEnabled) return fail(name + kNoRecorder);
        opt.trace_out = v;
      } else if (const char* v = value("--trace-sample-shift=")) {
        if (!detail::parse_int(v, &opt.trace_sample_shift) ||
            opt.trace_sample_shift < 0 || opt.trace_sample_shift > 20) {
          return expected("0..20", v);
        }
        if (!obs::kEnabled) return fail(name + kNoRecorder);
      } else if (arg == "--paper") {
        // The paper's configuration (§7): S = 10^6, 10 s runs, 3 runs
        // averaged, thread counts up to 128.
        opt.size = 1'000'000;
        opt.duration = 10.0;
        opt.runs = 3;
        opt.threads = {1, 2, 4, 8, 16, 32, 64, 128};
      } else {
        return fail("unknown option: " + arg);
      }
    }
    return true;
  }

  /// One-line summary of every flag parse_into() accepts, for --help.
  static const char* usage() {
    return "options: --duration=SEC --runs=N --size=S --threads=a,b,c "
           "--csv --only=NAME --key-type=int|str --paper --sensitive "
           "--high-cont=X --low-cont=X --cont-contrib=X "
           "--monitor-interval-ms=MS --monitor-port=P --metrics-out=FILE "
           "--series-out=FILE --check-every-n-ops=N --trace-out=FILE "
           "--trace-sample-shift=N";
  }
};

}  // namespace cats::harness

#include "obs/flight/perfetto.hpp"

#if CATS_OBS_ENABLED

#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "obs/registry.hpp"

namespace cats::obs::flight {

namespace {

/// Microsecond timestamps with nanosecond precision (the Trace Event
/// Format's `ts`/`dur` unit is microseconds; fractions are allowed).
void write_us(std::ostream& os, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  os << buf;
}

void write_span(std::ostream& os, const SpanEvent& e) {
  os << "{\"name\":\"" << span_kind_name(e.kind)
     << "\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.thread
     << ",\"ts\":";
  write_us(os, e.t_ns);
  os << ",\"dur\":";
  write_us(os, e.dur_ns);
  os << ",\"args\":{\"key_hash\":" << e.key_hash
     << ",\"cas_fails\":" << e.cas_fails
     << ",\"epoch_waits\":" << e.epoch_waits
     << ",\"pool_refills\":" << e.pool_refills << "}}";
}

void write_instant(std::ostream& os, const TraceEvent& e) {
  os << "{\"name\":\"" << adapt_kind_name(e.kind)
     << "\",\"cat\":\"adapt\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":"
     << e.thread << ",\"ts\":";
  write_us(os, e.time_ns);
  os << ",\"args\":{\"items\":" << e.items << ",\"stat\":" << e.stat << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<SpanEvent>& spans,
                        const std::vector<TraceEvent>& instants) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"cats\"}}";
  // Label every track that carries at least one event.
  bool used[kShards] = {};
  for (const SpanEvent& e : spans) used[e.thread % kShards] = true;
  for (const TraceEvent& e : instants) used[e.thread % kShards] = true;
  for (std::size_t t = 0; t < kShards; ++t) {
    if (!used[t]) continue;
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t
       << ",\"args\":{\"name\":\"shard " << t << "\"}}";
  }
  // Two-way merge by timestamp: both inputs are already sorted (the dump()
  // contracts), so the document reads chronologically.
  std::size_t si = 0;
  std::size_t ii = 0;
  while (si < spans.size() || ii < instants.size()) {
    os << ',';
    const bool take_span =
        ii >= instants.size() ||
        (si < spans.size() && spans[si].t_ns <= instants[ii].time_ns);
    if (take_span) {
      write_span(os, spans[si++]);
    } else {
      write_instant(os, instants[ii++]);
    }
  }
  os << "]}";
}

void write_chrome_trace(std::ostream& os) {
  write_chrome_trace(os, Recorder::instance().dump(),
                     Registry::instance().trace().dump());
}

}  // namespace cats::obs::flight

#endif  // CATS_OBS_ENABLED

#include "obs/flight/flight.hpp"

#if CATS_OBS_ENABLED

#include <chrono>
#include <thread>

namespace cats::obs::flight {

Recorder& Recorder::instance() {
  static Recorder* const rec = new Recorder();  // leaked on purpose: spans
  return *rec;  // may be sealed from thread-exit paths after static dtors
}

void Recorder::enable(unsigned sample_shift) {
  if (sample_shift > 20) sample_shift = 20;  // 1/2^20 is already "never"
  disable();  // stop recorders racing the ring reset below
  reset();
  // Calibrate raw ticks against the AdaptTrace monotonic clock over a
  // short sleep, so span timestamps and adaptation instants share one
  // timeline.  2 ms is ~10^5 clock granules on every host we target —
  // plenty for the ~0.1% accuracy a trace view needs.
  const std::uint64_t t0 = AdaptTrace::now_ns();
  const std::uint64_t c0 = read_ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::uint64_t t1 = AdaptTrace::now_ns();
  const std::uint64_t c1 = read_ticks();
  double ticks_per_ns = 1.0;
  if (t1 > t0 && c1 > c0) {
    ticks_per_ns = static_cast<double>(c1 - c0) / static_cast<double>(t1 - t0);
  }
  origin_ticks_.store(c1, std::memory_order_relaxed);
  origin_ns_.store(t1, std::memory_order_relaxed);
  ticks_per_ns_.store(ticks_per_ns, std::memory_order_release);
  ++generation_;
  g_control.store((generation_ << 8) | (sample_shift + 1),
                  std::memory_order_release);
}

}  // namespace cats::obs::flight

#endif  // CATS_OBS_ENABLED

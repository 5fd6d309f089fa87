// runtime.cpp -- cooperative scheduler, vector-clock race detector and
// reclamation quarantine for the cats simulator.
//
// Invariants the code below leans on:
//   * Exactly one managed thread runs between two scheduling points (the
//     "token holder").  All vector-clock / race / trace state is therefore
//     only ever touched by the token holder and needs no locking; mu_ only
//     protects the scheduling state (thread table, current_, choices_).
//   * Every visible operation announces itself *before* executing, so at
//     every decision point the scheduler knows each enabled thread's next
//     operation (location + read/write) -- that is what sleep sets need.
//   * On a blown step budget the runtime flips `aborting_`: parked threads
//     wake and unwind via sim::Abort, hooks degrade to passthrough, and the
//     execution is reported as failed.  (During unwinding destructors we
//     never throw; threads then free-run, which is safe because the real
//     code is a correct concurrent algorithm being torn down.)

#include "sim/sim_internal.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>

namespace cats::sim {

namespace {

std::atomic<Runtime*> g_rt{nullptr};
thread_local int tl_tid = -1;

bool is_acquire(std::memory_order mo) {
  return mo == std::memory_order_acquire || mo == std::memory_order_consume ||
         mo == std::memory_order_acq_rel || mo == std::memory_order_seq_cst;
}

bool is_release(std::memory_order mo) {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

const char* mo_name(std::memory_order mo) {
  switch (mo) {
    case std::memory_order_relaxed: return "relaxed";
    case std::memory_order_consume: return "consume";
    case std::memory_order_acquire: return "acquire";
    case std::memory_order_release: return "release";
    case std::memory_order_acq_rel: return "acq_rel";
    default: return "seq_cst";
  }
}

const char* kind_name(OpKind k) {
  switch (k) {
    case OpKind::kLoad: return "load";
    case OpKind::kStore: return "store";
    case OpKind::kRmw: return "rmw";
    case OpKind::kRmwFail: return "rmw-fail";
    case OpKind::kSpawn: return "spawn";
    case OpKind::kJoinWait: return "join-wait";
    case OpKind::kThreadExit: return "exit";
    case OpKind::kEvent: return "event";
  }
  return "?";
}

Site make_site(const std::source_location& loc) {
  return Site{loc.file_name(), loc.line(), loc.function_name()};
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string short_site(const Site& s) {
  if (!s.file) return "<unknown>";
  const char* base = s.file;
  for (const char* p = s.file; *p; ++p)
    if (*p == '/' || *p == '\\') base = p + 1;
  return std::string(base) + ":" + std::to_string(s.line);
}

bool ops_independent(const Pending& a, const Pending& b) {
  // Unknown ops (never-announced fresh threads) are dependent on everything.
  if (a.addr == nullptr || b.addr == nullptr) return false;
  if (a.addr != b.addr) return true;
  return !a.is_write && !b.is_write;
}

// --- Runtime ---------------------------------------------------------------

Runtime::Runtime(const Options& opts) : opts_(opts) {
  Runtime* expected = nullptr;
  Runtime* self = this;
  if (!g_rt.compare_exchange_strong(expected, self,
                                    std::memory_order_acq_rel)) {
    std::fprintf(stderr, "cats-sim: nested explore() is not supported\n");
    std::abort();
  }
}

Runtime::~Runtime() {
  g_rt.store(nullptr, std::memory_order_release);
  tl_tid = -1;
}

Runtime* Runtime::get() noexcept { return g_rt.load(std::memory_order_acquire); }

void Runtime::begin_execution(Strategy* strat, std::uint64_t exec_index) {
  std::lock_guard<std::mutex> lk(mu_);
  strat_ = strat;
  exec_index_ = exec_index;
  step_ = 0;
  current_ = 0;
  last_run_ = -1;
  nthreads_ = 1;
  for (auto& t : th_) t = ThreadRec{};
  th_[0].st = ThreadRec::St::kReady;
  aborting_.store(false, std::memory_order_relaxed);
  abort_hit_ = false;
  choices_.clear();
  trace_.clear();
  atomics_.clear();
  plain_.clear();
  freed_.clear();
  strat->begin_execution(exec_index);
  tl_tid = 0;  // the driver is simulated thread 0
}

bool Runtime::finish_execution() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (int i = 1; i < nthreads_; ++i) {
      if (th_[i].st != ThreadRec::St::kFinished && !abort_hit_ && !failed_) {
        failed_ = true;
        fail_msg_ = "scenario returned with unjoined sim threads";
        fail_step_ = step_;
      }
    }
  }
  // Release everything the execution reclaimed.  Deferred until here so no
  // address is recycled while vector-clock state still refers to it.
  for (auto& q : quarantine_) q.fr(q.p, q.size);
  quarantine_.clear();
  tl_tid = -1;
  return abort_hit_;
}

void Runtime::trigger_abort() {
  abort_hit_ = true;
  aborting_.store(true, std::memory_order_relaxed);
  cv_.notify_all();
}

void Runtime::fail(int tid, const std::string& msg) {
  // First failure wins; the CAS also makes this safe from free-running
  // threads during an abort.
  bool expected = false;
  if (!failed_.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel))
    return;
  fail_msg_ = msg;
  fail_step_ = step_;
  (void)tid;
}

void Runtime::clear_failure() {
  failed_.store(false, std::memory_order_relaxed);
  fail_msg_.clear();
  fail_step_ = 0;
}

void Runtime::pick_next(std::unique_lock<std::mutex>& lk, int from,
                        bool from_enabled) {
  (void)lk;
  (void)from_enabled;
  if (step_ >= opts_.max_steps) {
    fail(from, "step budget exceeded (" + std::to_string(opts_.max_steps) +
                   " scheduling points) -- possible livelock");
    trigger_abort();
    return;
  }
  std::vector<EnabledThread> en;
  en.reserve(static_cast<std::size_t>(nthreads_));
  for (int i = 0; i < nthreads_; ++i)
    if (th_[i].st == ThreadRec::St::kReady)
      en.push_back(EnabledThread{i, th_[i].announced, th_[i].pending});
  if (en.empty()) {
    fail(from, "deadlock: every live thread is blocked in join");
    trigger_abort();
    return;
  }
  int c = strat_->choose(static_cast<std::uint64_t>(choices_.size()), en,
                         last_run_);
  bool valid = c >= 0 && c < nthreads_ && th_[c].st == ThreadRec::St::kReady;
  if (!valid) {
    fail(from, "internal: strategy chose a non-enabled thread");
    c = en.front().tid;
  }
  choices_.push_back(c);
  trace_.push_back(TraceStep{c, th_[c].announced ? th_[c].pending : Pending{}});
  ++step_;
  last_run_ = c;
  current_ = c;
  cv_.notify_all();
}

void Runtime::wait_for_token(std::unique_lock<std::mutex>& lk, int self) {
  cv_.wait(lk, [&] {
    return current_ == self || aborting_.load(std::memory_order_relaxed);
  });
}

void Runtime::announce_and_schedule(int tid, const Pending& p) {
  // Once aborting, scheduling points become passthroughs and every thread
  // free-runs to completion.  No exceptions: atomic ops sit inside noexcept
  // functions (e.g. refcount decrefs), where an unwind would terminate.
  // Free-running is safe -- the code under test is real concurrent code --
  // and the execution is already recorded as failed.
  if (aborting_.load(std::memory_order_relaxed)) return;
  std::unique_lock<std::mutex> lk(mu_);
  th_[tid].pending = p;
  th_[tid].announced = true;
  pick_next(lk, tid, /*from_enabled=*/true);
  wait_for_token(lk, tid);
}

// --- happens-before machinery (token holder only, no lock) -----------------

void Runtime::sync_acquire(int tid, const void* addr, const Site& site) {
  auto it = atomics_.find(addr);
  if (it == atomics_.end() || !it->second.has_release) return;
  th_[tid].vc.join(it->second.release_vc);
  if (opts_.collect_pairs) {
    pairs_[PairKey{it->second.release_site.file, it->second.release_site.line,
                   site.file, site.line}]++;
  }
}

void Runtime::check_freed(int tid, std::uintptr_t lo, std::uintptr_t hi,
                          const Site& site, const char* what) {
  if (freed_.empty()) return;
  auto it = freed_.upper_bound(lo);
  if (it != freed_.begin()) --it;
  for (; it != freed_.end() && it->second.lo < hi; ++it) {
    if (it->second.hi <= lo) continue;
    std::ostringstream os;
    if (it->second.vc.leq(th_[tid].vc)) {
      os << "use-after-reclaim: " << what << " at " << short_site(site)
         << " touches memory already freed by T" << it->second.tid
         << " (ordered, protocol bug)";
    } else {
      os << "data race with free: " << what << " at " << short_site(site)
         << " by T" << tid << " races with concurrent free by T"
         << it->second.tid;
    }
    fail(tid, os.str());
    return;
  }
}

void Runtime::commit(int tid, const void* addr, OpKind kind,
                     std::memory_order mo, const Site& site) {
  if (aborting_.load(std::memory_order_relaxed)) return;
  ThreadRec& t = th_[tid];
  t.vc.c[tid]++;
  if (!trace_.empty() && trace_.back().tid == tid) {
    trace_.back().op.kind = kind;
    trace_.back().op.mo = mo;
    trace_.back().op.addr = addr;
    trace_.back().op.site = site;
  }
  switch (kind) {
    case OpKind::kLoad:
    case OpKind::kRmwFail:
      check_freed(tid, reinterpret_cast<std::uintptr_t>(addr),
                  reinterpret_cast<std::uintptr_t>(addr) + 1, site,
                  "atomic load");
      if (is_acquire(mo)) sync_acquire(tid, addr, site);
      break;
    case OpKind::kStore: {
      check_freed(tid, reinterpret_cast<std::uintptr_t>(addr),
                  reinterpret_cast<std::uintptr_t>(addr) + 1, site,
                  "atomic store");
      AtomicLoc& loc = atomics_[addr];
      if (is_release(mo)) {
        loc.has_release = true;
        loc.release_vc = t.vc;
        loc.release_site = site;
      } else {
        // A relaxed store is not a release and breaks any release sequence
        // headed by an earlier store to this location.
        loc.has_release = false;
      }
      break;
    }
    case OpKind::kRmw: {
      check_freed(tid, reinterpret_cast<std::uintptr_t>(addr),
                  reinterpret_cast<std::uintptr_t>(addr) + 1, site,
                  "atomic rmw");
      if (is_acquire(mo)) sync_acquire(tid, addr, site);
      AtomicLoc& loc = atomics_[addr];
      if (is_release(mo)) {
        // The RMW heads a new release sequence AND continues the existing
        // one (an acquire of its value synchronises with both writers).
        loc.release_vc.join(t.vc);
        loc.has_release = true;
        loc.release_site = site;
      }
      // Relaxed RMW: the existing release sequence continues unchanged.
      break;
    }
    case OpKind::kSpawn:
    case OpKind::kJoinWait:
    case OpKind::kThreadExit:
    case OpKind::kEvent:
      break;
  }
}

void Runtime::plain(int tid, const void* addr, std::size_t size, bool is_write,
                    const Site& site) {
  if (aborting_.load(std::memory_order_relaxed)) return;
  ThreadRec& t = th_[tid];
  t.vc.c[tid]++;
  std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
  check_freed(tid, a, a + size, site,
              is_write ? "plain write" : "plain read");
  auto& entry = plain_[a];
  entry.first = size;
  PlainLoc& p = entry.second;
  if (is_write) {
    if (p.w_tid >= 0 && p.w_clk > t.vc.c[p.w_tid] && p.w_tid != tid) {
      fail(tid, "data race: plain write at " + short_site(site) + " by T" +
                    std::to_string(tid) + " races with plain write at " +
                    short_site(p.w_site) + " by T" + std::to_string(p.w_tid));
      return;
    }
    for (int u = 0; u < kMaxSimThreads; ++u) {
      if (u != tid && p.r_clk[u] > t.vc.c[u]) {
        fail(tid, "data race: plain write at " + short_site(site) + " by T" +
                      std::to_string(tid) + " races with plain read at " +
                      short_site(p.r_site[u]) + " by T" + std::to_string(u));
        return;
      }
    }
    p.w_tid = tid;
    p.w_clk = t.vc.c[tid];
    p.w_site = site;
    p.r_clk.fill(0);
  } else {
    if (p.w_tid >= 0 && p.w_tid != tid && p.w_clk > t.vc.c[p.w_tid]) {
      fail(tid, "data race: plain read at " + short_site(site) + " by T" +
                    std::to_string(tid) + " races with plain write at " +
                    short_site(p.w_site) + " by T" + std::to_string(p.w_tid));
      return;
    }
    p.r_clk[tid] = t.vc.c[tid];
    p.r_site[tid] = site;
  }
}

void Runtime::on_note_alloc(void* ptr, std::size_t size) {
  if (aborting_.load(std::memory_order_relaxed)) return;
  // Fresh storage: drop any state a previous (untracked) occupant of this
  // address range left behind.  Tracked node frees are quarantined until the
  // end of the execution, so tracked atomic state is never recycled and
  // atomics_ needs no range sweep here.
  std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(ptr);
  std::uintptr_t hi = lo + size;
  if (!freed_.empty()) {
    auto it = freed_.lower_bound(lo);
    if (it != freed_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.hi > lo) it = prev;
    }
    while (it != freed_.end() && it->second.lo < hi) it = freed_.erase(it);
  }
  if (!plain_.empty()) {
    auto it = plain_.lower_bound(lo);
    while (it != plain_.end() && it->first < hi) it = plain_.erase(it);
  }
}

bool Runtime::on_quarantine_free(int tid, void* ptr, std::size_t size,
                                 void (*fr)(void*, std::size_t)) {
  if (aborting_.load(std::memory_order_relaxed)) {
    // Threads free-run during an abort; keep memory alive anyway so the
    // teardown cannot turn into a real use-after-free.
    std::lock_guard<std::mutex> lk(mu_);
    quarantine_.push_back(QuarantinedBlock{ptr, size, fr});
    return true;
  }
  ThreadRec& t = th_[tid];
  t.vc.c[tid]++;
  std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(ptr);
  std::uintptr_t hi = lo + size;
  if (auto dup = freed_.find(lo); dup != freed_.end()) {
    // The block is already quarantined: queueing it again would make
    // finish_execution release it twice.
    fail(tid, "double free by T" + std::to_string(tid) +
                  " of a block already freed by T" +
                  std::to_string(dup->second.tid));
    return true;
  }
  Site fsite{"<free>", 0, nullptr};
  check_freed(tid, lo, hi, fsite, "free");
  // A free behaves like a write to the whole block: it must be ordered after
  // every instrumented access.
  auto it = plain_.lower_bound(lo);
  while (it != plain_.end() && it->first < hi) {
    PlainLoc& p = it->second.second;
    if (p.w_tid >= 0 && p.w_tid != tid && p.w_clk > t.vc.c[p.w_tid]) {
      fail(tid, "data race: free by T" + std::to_string(tid) +
                    " races with plain write at " + short_site(p.w_site) +
                    " by T" + std::to_string(p.w_tid));
    }
    for (int u = 0; u < kMaxSimThreads; ++u) {
      if (u != tid && p.r_clk[u] > t.vc.c[u]) {
        fail(tid, "data race: free by T" + std::to_string(tid) +
                      " races with plain read at " + short_site(p.r_site[u]) +
                      " by T" + std::to_string(u));
      }
    }
    it = plain_.erase(it);
  }
  freed_[lo] = FreedRange{lo, hi, tid, t.vc};
  quarantine_.push_back(QuarantinedBlock{ptr, size, fr});
  return true;
}

// --- thread management ------------------------------------------------------

int Runtime::register_child(int parent) {
  std::unique_lock<std::mutex> lk(mu_);
  if (nthreads_ >= kMaxSimThreads) {
    fail(parent, "too many sim threads (max " +
                     std::to_string(kMaxSimThreads) + ")");
    trigger_abort();
    // Overflow threads free-run in the dump slot; it is never scheduled
    // (nthreads_ stays within bounds) and commits are skipped while
    // aborting.
    return kMaxSimThreads;
  }
  int id = nthreads_++;
  th_[id].st = ThreadRec::St::kReady;
  th_[id].announced = false;
  th_[id].vc = th_[parent].vc;  // fork edge: child starts after the parent
  return id;
}

void Runtime::enter_thread(int self) {
  tl_tid = self;
  if (aborting_.load(std::memory_order_relaxed)) return;  // free-run teardown
  std::unique_lock<std::mutex> lk(mu_);
  wait_for_token(lk, self);
}

void Runtime::exit_thread(int self) {
  std::unique_lock<std::mutex> lk(mu_);
  th_[self].st = ThreadRec::St::kFinished;
  for (int i = 0; i < nthreads_; ++i) {
    if (th_[i].st == ThreadRec::St::kBlockedJoin && th_[i].wait_child == self)
      th_[i].st = ThreadRec::St::kReady;
  }
  tl_tid = -1;
  if (aborting_.load(std::memory_order_relaxed)) {
    cv_.notify_all();
    return;
  }
  pick_next(lk, self, /*from_enabled=*/false);
}

void Runtime::join_wait(int self, int child) {
  if (aborting_.load(std::memory_order_relaxed)) return;  // caller real-joins
  std::unique_lock<std::mutex> lk(mu_);
  while (th_[child].st != ThreadRec::St::kFinished) {
    th_[self].st = ThreadRec::St::kBlockedJoin;
    th_[self].wait_child = child;
    th_[self].pending =
        Pending{&th_[child], OpKind::kJoinWait, /*is_write=*/true,
                std::memory_order_seq_cst, Site{}, nullptr};
    th_[self].announced = true;
    pick_next(lk, self, /*from_enabled=*/false);
    if (aborting_.load(std::memory_order_relaxed)) {
      th_[self].st = ThreadRec::St::kReady;
      th_[self].wait_child = -1;
      return;  // caller falls through to the real join; children free-run
    }
    wait_for_token(lk, self);
  }
  th_[self].wait_child = -1;
  th_[self].vc.join(th_[child].vc);  // join edge
}

// --- trace formatting -------------------------------------------------------

std::string Runtime::format_trace() const {
  std::ostringstream os;
  os << "# cats-sim failure trace\n";
  os << "# execution " << exec_index_ << ", " << trace_.size() << " steps\n";
  os << "schedule:";
  for (int c : choices_) os << ' ' << c;
  os << '\n';
  std::map<const void*, int> loc_ids;
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    const TraceStep& s = trace_[i];
    os << "step " << i << "  T" << s.tid << "  ";
    if (s.op.addr == nullptr && s.op.kind == OpKind::kEvent && !s.op.tag) {
      os << "(start)\n";
      continue;
    }
    os << kind_name(s.op.kind);
    if (s.op.kind == OpKind::kEvent && s.op.tag) os << '[' << s.op.tag << ']';
    if (s.op.kind == OpKind::kLoad || s.op.kind == OpKind::kStore ||
        s.op.kind == OpKind::kRmw || s.op.kind == OpKind::kRmwFail)
      os << ' ' << mo_name(s.op.mo);
    if (s.op.addr) {
      auto [it, fresh] =
          loc_ids.emplace(s.op.addr, static_cast<int>(loc_ids.size()));
      os << "  obj#" << it->second;
      (void)fresh;
    }
    if (s.op.site.file) os << "  " << short_site(s.op.site);
    os << '\n';
  }
  if (failed_)
    os << "failure (step " << fail_step_ << "): " << fail_msg_ << '\n';
  return os.str();
}

// --- free-function hooks (declared in common/catomic.hpp & sim.hpp) --------

bool thread_active() noexcept {
  return tl_tid >= 0 && g_rt.load(std::memory_order_acquire) != nullptr;
}

bool active() noexcept { return thread_active(); }

std::uint64_t logical_time() noexcept {
  Runtime* rt = Runtime::get();
  return rt ? rt->steps() : 0;
}

void atomic_pre(const void* addr, bool is_write, std::memory_order order,
                const std::source_location& loc) {
  Runtime::get()->announce_and_schedule(
      tl_tid, Pending{addr, is_write ? OpKind::kStore : OpKind::kLoad,
                      is_write, order, make_site(loc), nullptr});
}

void atomic_commit(const void* addr, OpKind kind, std::memory_order order,
                   const std::source_location& loc) {
  Runtime::get()->commit(tl_tid, addr, kind, order, make_site(loc));
}

void plain_access(const void* addr, std::size_t size, bool is_write,
                  const std::source_location& loc) {
  Runtime::get()->plain(tl_tid, addr, size, is_write, make_site(loc));
}

void event_point(const char* tag, const void* addr,
                 const std::source_location& loc) {
  Runtime* rt = Runtime::get();
  Site site = make_site(loc);
  rt->announce_and_schedule(tl_tid, Pending{addr, OpKind::kEvent,
                                            /*is_write=*/true,
                                            std::memory_order_seq_cst, site,
                                            tag});
  rt->commit(tl_tid, addr, OpKind::kEvent, std::memory_order_seq_cst, site);
}

void note_alloc(void* p, std::size_t size) noexcept {
  Runtime* rt = Runtime::get();
  if (rt) rt->on_note_alloc(p, size);
}

bool quarantine_free(void* p, std::size_t size, void (*fr)(void*, std::size_t)) {
  Runtime* rt = Runtime::get();
  if (!rt) return false;
  return rt->on_quarantine_free(tl_tid, p, size, fr);
}

std::uint64_t deterministic_seed() noexcept {
  return mix64(0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(tl_tid + 2));
}

std::uint64_t execution_generation() noexcept {
  Runtime* rt = Runtime::get();
  return rt ? rt->exec_index() + 1 : 0;
}

int thread_register_child() {
  return Runtime::get()->register_child(tl_tid);
}

void thread_spawn_point(int child, const std::source_location& loc) {
  Runtime* rt = Runtime::get();
  Site site = make_site(loc);
  // addr == nullptr makes the spawn conservatively dependent on everything.
  rt->announce_and_schedule(tl_tid, Pending{nullptr, OpKind::kSpawn,
                                            /*is_write=*/true,
                                            std::memory_order_seq_cst, site,
                                            "spawn"});
  rt->commit(tl_tid, nullptr, OpKind::kSpawn, std::memory_order_seq_cst, site);
  (void)child;
}

void thread_enter(int self) { Runtime::get()->enter_thread(self); }

void thread_exit(int self) { Runtime::get()->exit_thread(self); }

void thread_join_wait(int child) {
  Runtime::get()->join_wait(tl_tid, child);
}

void check(bool ok, const char* msg) {
  if (ok) return;
  Runtime* rt = Runtime::get();
  if (rt && tl_tid >= 0) rt->fail(tl_tid, msg ? msg : "sim::check failed");
}

void fail(const std::string& msg) {
  Runtime* rt = Runtime::get();
  if (rt && tl_tid >= 0) rt->fail(tl_tid, msg);
}

}  // namespace cats::sim

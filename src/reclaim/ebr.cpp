#include "reclaim/ebr.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/flight/annot.hpp"
#include "obs/registry.hpp"

namespace cats::reclaim {

// ---------------------------------------------------------------------------
// Thread-local registry.
//
// A thread may use several domains (the global one plus per-test domains), so
// its TLS holds a small vector of (domain, context) pairs, plus a one-entry
// cache for the domain it touched last.  The DomainTls destructor runs at
// thread exit and hands any still-pending retirements back to the domain as
// orphans.
// ---------------------------------------------------------------------------

struct DomainTls {
  struct Entry {
    Domain* domain;
    Domain::ThreadCtx* ctx;
  };
  std::vector<Entry> entries;

  ~DomainTls() {
    for (auto& entry : entries) {
      if (entry.domain != nullptr) entry.domain->unregister(entry.ctx);
    }
  }

  static DomainTls& instance() {
    thread_local DomainTls tls;
    return tls;
  }
};

namespace {
thread_local Domain* tl_cached_domain = nullptr;
thread_local void* tl_cached_ctx = nullptr;
}  // namespace

// ---------------------------------------------------------------------------
// Domain
// ---------------------------------------------------------------------------

Domain::Domain() = default;

Domain::~Domain() {
  // Unregister the destroying thread itself, if it ever used this domain.
  // All other threads must have exited or been joined by now (lifetime
  // contract), which means their TLS destructors already ran.
  auto& tls = DomainTls::instance();
  std::erase_if(tls.entries, [this](DomainTls::Entry& entry) {
    if (entry.domain != this) return false;
    unregister(entry.ctx);
    return true;
  });
  // A successor domain can be constructed at this address (per-execution
  // domains in the sim tests live on the driver's stack): drop the
  // one-entry cache so it cannot resolve to the dead context.
  if (tl_cached_domain == this) {
    tl_cached_domain = nullptr;
    tl_cached_ctx = nullptr;
  }
  for (auto& slot : slots_) {
    if (slot->owner.load(std::memory_order_acquire) != nullptr) {
      std::fprintf(stderr,
                   "cats::reclaim::Domain destroyed while a thread is still "
                   "registered; leaking its pending retirements\n");
    }
  }
  // No concurrent users remain: everything pending is safe to free.
  std::lock_guard<std::mutex> lock(orphan_mutex_);
  for (const Retired& r : orphans_) {
    CATS_CHECKED_ONLY(check::on_reclaim(r.ptr));
    r.deleter(r.ptr);
  }
  pending_.fetch_sub(orphans_.size(), std::memory_order_relaxed);
  orphans_.clear();
}

Domain& Domain::global() {
  static Domain* const instance = new Domain();  // leaked on purpose
  return *instance;
}

Domain::ThreadCtx& Domain::context() {
  if (tl_cached_domain == this) {
    return *static_cast<ThreadCtx*>(tl_cached_ctx);
  }
  auto& tls = DomainTls::instance();
  for (auto& entry : tls.entries) {
    if (entry.domain == this) {
      tl_cached_domain = this;
      tl_cached_ctx = entry.ctx;
      return *entry.ctx;
    }
  }
  ThreadCtx* ctx = register_thread();
  tls.entries.push_back({this, ctx});
  tl_cached_domain = this;
  tl_cached_ctx = ctx;
  return *ctx;
}

Domain::ThreadCtx* Domain::register_thread() {
  auto* ctx = new ThreadCtx();
  ctx->domain = this;
  // A free slot's `announced` is already kIdle: unregister() resets it
  // before releasing ownership.  Never write to a slot before owning it.
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    void* expected = nullptr;
    if (slots_[i]->owner.compare_exchange_strong(expected, ctx,
                                                 std::memory_order_acq_rel)) {
      ctx->slot_index = i;
      // Adopt what exited threads left behind, so their retirements are
      // freed by this thread's next free_eligible instead of waiting for
      // drain() or ~Domain.
      std::lock_guard<std::mutex> lock(orphan_mutex_);
      ctx->retired.swap(orphans_);
      return ctx;
    }
  }
  std::fprintf(stderr, "cats::reclaim::Domain: more than %zu threads\n",
               kMaxThreads);
  std::abort();
}

void Domain::unregister(ThreadCtx* ctx) {
  if (!ctx->retired.empty()) {
    CATS_OBS_ONLY(
        obs::count(obs::GCounter::kEbrOrphaned, ctx->retired.size()));
    std::lock_guard<std::mutex> lock(orphan_mutex_);
    orphans_.insert(orphans_.end(), ctx->retired.begin(), ctx->retired.end());
  }
  auto& slot = *slots_[ctx->slot_index];
  slot.announced.store(kIdle, std::memory_order_release);
  slot.owner.store(nullptr, std::memory_order_release);
  if (tl_cached_domain == this) {
    tl_cached_domain = nullptr;
    tl_cached_ctx = nullptr;
  }
  delete ctx;
}

void Domain::enter() {
  ThreadCtx& ctx = context();
  if (ctx.guard_depth++ == 0) {
    cats::sim_point_event("ebr_guard_enter", this);
    const std::uint64_t e = global_epoch_.load(std::memory_order_relaxed);
    // seq_cst: the announcement must become visible before any subsequent
    // load of shared pointers, or try_advance could miss this reader.
    // catslint: seq_cst(store-load fence pairs with try_advance scan)
    slots_[ctx.slot_index]->announced.store(e, std::memory_order_seq_cst);
  }
}

void Domain::exit() {
  ThreadCtx& ctx = context();
  if (--ctx.guard_depth == 0) {
    cats::sim_point_event("ebr_guard_exit", this);
    slots_[ctx.slot_index]->announced.store(kIdle, std::memory_order_release);
  }
}

#if CATS_CHECKED_ENABLED
void Domain::retire(void* ptr, void (*deleter)(void*),
                    std::source_location site) {
  char site_buf[512];
  std::snprintf(site_buf, sizeof site_buf, "%s:%u", site.file_name(),
                static_cast<unsigned>(site.line()));
  check::on_retire(ptr, site_buf);
  enqueue_retirement(ptr, deleter);
}

void Domain::retire_shared(void* ptr, void (*deleter)(void*),
                           std::source_location site) {
  char site_buf[512];
  std::snprintf(site_buf, sizeof site_buf, "%s:%u", site.file_name(),
                static_cast<unsigned>(site.line()));
  check::on_retire_shared(ptr, site_buf);
  enqueue_retirement(ptr, deleter);
}

void Domain::enqueue_retirement(void* ptr, void (*deleter)(void*)) {
#else
void Domain::retire(void* ptr, void (*deleter)(void*)) {
#endif
  ThreadCtx& ctx = context();
  cats::sim_point_event("ebr_retire", this);
  const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
  ctx.retired.push_back({ptr, deleter, e});
  pending_.fetch_add(1, std::memory_order_relaxed);
  CATS_OBS_ONLY(obs::count(obs::GCounter::kEbrRetired));
  if (++ctx.retire_count % kDrainThreshold == 0) {
    // A failed advance means some reader still pins the epoch and this
    // thread's garbage backlog keeps growing — annotated on the current
    // flight-recorder span as an epoch wait.
    if (!try_advance()) CATS_OBS_ONLY(obs::flight::note_epoch_wait());
    free_eligible(ctx.retired, global_epoch_.load(std::memory_order_acquire));
  }
}

bool Domain::try_advance() {
  CATS_OBS_ONLY(obs::count(obs::GCounter::kEbrAdvanceAttempts));
  // Both seq_cst loads below close the Dekker race with enter(): a reader
  // announces (seq_cst store) and then reads shared pointers; the scan must
  // sit after that store in the single total order, or an advance could
  // free memory the reader is still traversing.  try_advance runs once per
  // kDrainThreshold retires, so this is off the operation hot path.
  // catslint: seq_cst(epoch read ordered against announce stores)
  std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  for (const auto& slot : slots_) {
    if (slot->owner.load(std::memory_order_acquire) == nullptr) continue;
    const std::uint64_t announced =
        // catslint: seq_cst(scan must observe every pre-scan announcement)
        slot->announced.load(std::memory_order_seq_cst);
    if (announced != kIdle && announced != e) return false;
  }
  const bool advanced = global_epoch_.compare_exchange_strong(
      e, e + 1, std::memory_order_acq_rel);
  CATS_OBS_ONLY(if (advanced) obs::count(obs::GCounter::kEbrAdvances));
  return advanced;
}

void Domain::free_eligible(std::vector<Retired>& list, std::uint64_t global) {
  // Partition first, run deleters after: a deleter may itself call
  // retire(), which appends to the calling thread's list — possibly this
  // very vector — and must not race with our iteration.
  std::vector<Retired> eligible;
  std::size_t kept = 0;
  for (const Retired& r : list) {
    if (r.epoch + 2 <= global) {
      eligible.push_back(r);
    } else {
      list[kept++] = r;
    }
  }
  list.resize(kept);
  for (const Retired& r : eligible) {
    CATS_CHECKED_ONLY(check::on_reclaim(r.ptr));
    r.deleter(r.ptr);
  }
  if (!eligible.empty()) {
    pending_.fetch_sub(eligible.size(), std::memory_order_relaxed);
    CATS_OBS_ONLY(obs::count(obs::GCounter::kEbrFreed, eligible.size()));
  }
}

void Domain::drain() {
  ThreadCtx& ctx = context();
  // Three advances move the epoch past everything retired so far; they can
  // only fail if a guard is active, which the caller promises is not the
  // case.
  for (int i = 0; i < 3; ++i) try_advance();
  const std::uint64_t global = global_epoch_.load(std::memory_order_acquire);
  free_eligible(ctx.retired, global);
  // Run orphan deleters outside the lock: deleters touch shared state
  // (refcounts, pools) and must not serialise — or, under CATS_SIM, hit a
  // scheduling point — while orphan_mutex_ is held.  Survivors (and
  // anything unregistered concurrently) are appended back afterwards.
  std::vector<Retired> grabbed;
  {
    std::lock_guard<std::mutex> lock(orphan_mutex_);
    grabbed.swap(orphans_);
  }
  free_eligible(grabbed, global);
  if (!grabbed.empty()) {
    std::lock_guard<std::mutex> lock(orphan_mutex_);
    orphans_.insert(orphans_.end(), grabbed.begin(), grabbed.end());
  }
}

void Domain::detach_current_thread() {
  // Erase the entry rather than nulling it: a sim run creates thousands
  // of short-lived per-execution domains on one driver thread, and dead
  // entries would make every context() lookup a linear scan over them.
  auto& tls = DomainTls::instance();
  std::erase_if(tls.entries, [this](DomainTls::Entry& entry) {
    if (entry.domain != this) return false;
    unregister(entry.ctx);
    return true;
  });
  if (tl_cached_domain == this) {
    tl_cached_domain = nullptr;
    tl_cached_ctx = nullptr;
  }
}

std::size_t Domain::pending() const {
  return pending_.load(std::memory_order_relaxed);
}

}  // namespace cats::reclaim

// Correctness-checking build gate (CATS_CHECKED).
//
// The LFCA tree's correctness rests on invariants the type system cannot
// express: route-node BST order over immutable base nodes, container
// key-range containment, the join protocol's reachability rules, and the
// retire-once/free-once discipline of the reclamation substrate that stands
// in for the JVM garbage collector the paper's Java artifact relied on.
// This module provides the machinery to check those invariants mechanically:
//
//   * `CATS_CHECK(cond, fmt, ...)` — fatal assertion with a printf-style
//     diagnostic, compiled to nothing when the gate is off.
//   * `Report` — accumulator for the non-fatal validators (validate_tree,
//     BasicTreap::validate, BasicChunk::validate; compiled in every build)
//     so tests can inspect which invariant broke instead of just getting
//     `false`.
//   * Canary protocol — every reclaimable node carries a canary word (gated
//     member) that moves Alive -> Retired -> poison; incref/decref/retire
//     hooks verify the expected state and turn use-after-retire,
//     double-retire and double-free into immediate diagnostics instead of
//     silent corruption.
//   * Retired-pointer registry — `on_retire`/`on_reclaim` bracket every
//     EBR retirement, detect double retires across domains, and feed an
//     at-exit leak census with per-call-site counts.
//
// Mirrors the CATS_OBS pattern (obs/obs.hpp): `CATS_CHECKED_ENABLED` is
// defined 0 or 1 on every target through the cats_common interface library;
// an OFF build compiles every hook to nothing — no fields, no loads, no
// code — so the release layout and hot paths are bit-identical to an
// unchecked build.
#pragma once

#include <atomic>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#ifndef CATS_CHECKED_ENABLED
#define CATS_CHECKED_ENABLED 0
#endif

#if CATS_CHECKED_ENABLED
#define CATS_CHECKED_ONLY(...) \
  do {                         \
    __VA_ARGS__;               \
  } while (0)
/// Fatal invariant check: prints "CATS_CHECKED failure" plus the formatted
/// diagnostic to stderr and aborts.  The prefix is stable so death tests and
/// log scrapers can match on it.
#define CATS_CHECK(cond, ...)                                  \
  do {                                                         \
    if (!(cond)) {                                             \
      ::cats::check::fail(__FILE__, __LINE__, __VA_ARGS__);    \
    }                                                          \
  } while (0)
#else
#define CATS_CHECKED_ONLY(...) \
  do {                         \
  } while (0)
#define CATS_CHECK(cond, ...) \
  do {                        \
  } while (0)
#endif

namespace cats::check {

/// True in builds where the checking hooks are live.
inline constexpr bool kCheckedEnabled = CATS_CHECKED_ENABLED != 0;

// ---------------------------------------------------------------------------
// Canary values.  Chosen so no two states share a byte pattern and none
// looks like a plausible pointer, size or refcount.
// ---------------------------------------------------------------------------

/// Node is constructed and may be reachable from a shared structure.
inline constexpr std::uint64_t kCanaryAlive = 0xA11CE0DE'A11CE0DEull;
/// Node was unlinked and handed to a reclamation domain; concurrent readers
/// inside the grace period may still dereference its payload, but it must
/// never be retired again or reached by a quiescent validator.
inline constexpr std::uint64_t kCanaryRetired = 0x0DDB10CD'0DDB10CDull;
/// The byte every freed node's storage is filled with (poison-on-free): a
/// stale pointer dereference reads 0xEF...EF instead of plausible data, and
/// a canary load from poisoned storage fails both state checks.
inline constexpr int kPoisonByte = 0xEF;
inline constexpr std::uint64_t kPoisonWord = 0xEFEFEFEF'EFEFEFEFull;

/// Prints "CATS_CHECKED failure at file:line: <formatted message>" to
/// stderr and aborts.  Also the funnel for validator death tests.
[[noreturn]] void fail(const char* file, int line, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

// ---------------------------------------------------------------------------
// Report: diagnostic accumulator for the non-fatal validators.
// ---------------------------------------------------------------------------

class Report {
 public:
  /// Records one failed invariant (printf-style).
  void add(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  void addv(const char* fmt, std::va_list args);

  bool ok() const { return failures_.empty(); }
  std::size_t failure_count() const { return failures_.size(); }
  const std::vector<std::string>& failures() const { return failures_; }

  /// All failures joined with newlines (empty when ok()).
  std::string text() const;

 private:
  std::vector<std::string> failures_;
};

#if CATS_CHECKED_ENABLED

// ---------------------------------------------------------------------------
// Canary helpers.  The canary word lives inside the node (a "canary
// header"); these free functions keep the state-machine logic in one place.
// The canary is an atomic written only by the single constructing /
// retiring / freeing thread; concurrent validators read it relaxed, so the
// checking itself introduces no data races.
// ---------------------------------------------------------------------------

/// The canary member type.  Gated node structs declare
/// `CATS_CHECKED_ONLY`-style:  `check::Canary check_canary{...}`.
using Canary = std::atomic<std::uint64_t>;

enum class CanaryState { kAlive, kRetired, kDead };

inline CanaryState canary_state(std::uint64_t value) {
  if (value == kCanaryAlive) return CanaryState::kAlive;
  if (value == kCanaryRetired) return CanaryState::kRetired;
  return CanaryState::kDead;
}

/// Human-readable canary classification for diagnostics.
const char* canary_name(std::uint64_t value);

/// Alive -> Retired transition; fails on double retire (Retired -> Retired)
/// and on retiring freed/corrupt storage.
void canary_mark_retired(Canary& canary, const char* what);

/// Verifies the canary is Alive (incref/decref/read paths).
void canary_expect_alive(const Canary& canary, const char* what);

/// Verifies a node handed to a deleter was constructed and not yet freed
/// (Alive for direct deletes of unpublished nodes, Retired for reclaimed
/// ones).
void canary_expect_not_dead(const Canary& canary, const char* what);

/// Fills `size` bytes with kPoisonByte.  Called after the destructor and
/// before the storage is returned to the allocator, so any dangling reader
/// that wins the race against allocator reuse sees poison, not plausible
/// data.
void poison(void* ptr, std::size_t size);

// ---------------------------------------------------------------------------
// Retired-pointer registry (reclamation checker).
//
// Brackets every retirement that flows through a reclamation domain:
//   retire(ptr)  -> on_retire(ptr, site)   [fails on double retire]
//   deleter(ptr) -> on_reclaim(ptr)        [fails on reclaim-without-retire]
//
// Whatever is still registered at process exit is reported as the leak
// census, grouped by retirement call site.  Entries owned by the
// intentionally-leaked global EBR domain show up there too — the census is
// a report, not a failure; tests assert emptiness on drained local domains
// via `census()`.
// ---------------------------------------------------------------------------

void on_retire(void* ptr, const char* site);

/// Retirement of one *reference* to a refcounted object (the deleter is a
/// decref, not a destructor).  Several owners may retire the same address
/// while earlier retirements are still pending — e.g. two CA-tree base
/// nodes whose containers share a treap root after a split/join — so the
/// registry counts pending retirements per address instead of failing.
/// Each one must still be balanced by exactly one on_reclaim.  Mixing a
/// shared retire with a pending exclusive retire of the same address is
/// always a bug and still fails.
void on_retire_shared(void* ptr, const char* site);

void on_reclaim(void* ptr);

struct CensusEntry {
  std::string site;
  std::size_t count;
};

/// Current still-retired-not-yet-reclaimed pointers grouped by site,
/// sorted by descending count.
std::vector<CensusEntry> census();

/// Total registered pointers (for tests).
std::size_t registered_retirements();

#endif  // CATS_CHECKED_ENABLED

}  // namespace cats::check

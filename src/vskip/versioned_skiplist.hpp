// Versioned skiplist — the KiWi-mechanism baseline.
//
// Stand-in for KiWi (Basin et al., PPoPP'17), reproducing the mechanism the
// paper identifies as its scalability limit (§3): every range query
// atomically increments a GLOBAL version counter, and updates keep
// per-key version chains so that a scan at version v reads, for every key,
// the newest record with version <= v.  Update/scan ordering uses KiWi's
// helping rule: a record is linked with a PENDING version and assigned its
// real version afterwards (by the writer or by any scan that encounters it),
// which guarantees that a record is ordered after any scan it was not
// visible to.
//
// Simplifications vs. the full KiWi (documented in DESIGN.md): one node per
// key in the skiplist index that SkipList also uses (skiplist/
// skip_index.hpp) instead of multi-key chunks with rebalancing, and
// key nodes are never physically removed (removal writes a tombstone
// record).  Neither changes the global-version hot spot or the version-chain
// cost that the paper's Fig. 9/10 comparisons exercise.
//
// Old records are pruned using a scan-announcement array: an active scan
// publishes its version; writers may free chain suffixes no announced scan
// can need.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/catomic.hpp"
#include "common/function_ref.hpp"
#include "common/padded.hpp"
#include "common/types.hpp"
#include "reclaim/ebr.hpp"
#include "skiplist/skip_index.hpp"

namespace cats::vskip {

class VersionedSkipList {
 public:
  static constexpr std::size_t kScanSlots = 256;

  explicit VersionedSkipList(
      reclaim::Domain& domain = reclaim::Domain::global());
  ~VersionedSkipList();

  VersionedSkipList(const VersionedSkipList&) = delete;
  VersionedSkipList& operator=(const VersionedSkipList&) = delete;

  /// Lock-free; true iff the key was not logically present before.
  bool insert(Key key, Value value);
  /// Lock-free; true iff the key was logically present.
  bool remove(Key key);
  /// Lock-free; does not touch the global version counter.
  bool lookup(Key key, Value* value_out = nullptr) const;
  /// Linearizable snapshot scan; increments the global version counter
  /// (the KiWi hot spot).
  void range_query(Key lo, Key hi, ItemVisitor visit) const;

  std::size_t size() const;
  std::uint64_t version() const {
    return version_.load(std::memory_order_relaxed);
  }

  reclaim::Domain& domain() const { return domain_; }

 private:
  struct Record;  // one version of a key's state
  /// Per-key payload of the index: the newest record of the key's version
  /// chain.  Index nodes are never removed (removal writes a tombstone
  /// record), so the index never marks or snips.
  struct Versions {
    cats::atomic<Record*> records{nullptr};
  };
  using Index = skiplist::SkipIndex<Versions>;
  using Node = Index::Node;

  bool write(Key key, Value value, bool deleted);
  /// Assigns a real version to a pending record (helping rule) and returns
  /// the assigned version.
  std::uint64_t finalize(Record* record) const;
  /// Smallest version any active scan announced (or current version).
  std::uint64_t min_active_scan() const;
  void prune(Node* node, std::uint64_t min_needed);

  reclaim::Domain& domain_;
  alignas(kCacheLine) mutable cats::atomic<std::uint64_t> version_{1};
  mutable Padded<cats::atomic<std::uint64_t>> scan_slots_[kScanSlots];
  Index index_;
};

}  // namespace cats::vskip

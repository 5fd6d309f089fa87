#include "vskip/versioned_skiplist.hpp"

#include <algorithm>
#include <cstdint>

#include "common/backoff.hpp"
#include "common/rng.hpp"

namespace cats::vskip {

/// One version of a key's state.  `next` points to the previous (older)
/// record; it is atomic only so that pruning can detach dead suffixes.
struct VersionedSkipList::Record {
  /// 0 = pending (not yet ordered); assigned once, by writer or helper.
  cats::atomic<std::uint64_t> version{0};
  const Value value;
  const bool deleted;
  cats::atomic<Record*> next;

  Record(Value v, bool d, Record* n) : value(v), deleted(d), next(n) {}

  // Under CATS_SIM the simulator tracks each record and quarantines its
  // free until the end of the execution, so a second free of the same
  // record is reported instead of corrupting the heap.
  static void* operator new(std::size_t size) {
    void* p = ::operator new(size);
    cats::sim_note_alloc(p, size);
    return p;
  }
  static void operator delete(void* p, std::size_t size) {
    if (cats::sim_quarantine_free(
            p, size, [](void* q, std::size_t) { ::operator delete(q); })) {
      return;
    }
    ::operator delete(p);
  }
};

VersionedSkipList::VersionedSkipList(reclaim::Domain& domain)
    : domain_(domain) {
  for (auto& slot : scan_slots_) slot->store(0, std::memory_order_relaxed);
}

// catslint: quiescent(destructor; caller guarantees no concurrent access)
VersionedSkipList::~VersionedSkipList() {
  // The index frees the nodes; each node's record chain is freed here.
  for (Node* n = index_.first(); n->is_item(); n = Index::successor(n)) {
    Record* rec = n->records.load(std::memory_order_relaxed);
    while (rec != nullptr) {
      Record* older = rec->next.load(std::memory_order_relaxed);
      delete rec;  // catslint: direct-delete(quiescent teardown)
      rec = older;
    }
  }
}

std::uint64_t VersionedSkipList::finalize(Record* record) const {
  std::uint64_t w = record->version.load(std::memory_order_acquire);
  if (w != 0) return w;
  std::uint64_t fresh = version_.load(std::memory_order_acquire);
  std::uint64_t expected = 0;
  record->version.compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel);
  return record->version.load(std::memory_order_acquire);
}

std::uint64_t VersionedSkipList::min_active_scan() const {
  std::uint64_t m = version_.load(std::memory_order_acquire);
  for (const auto& slot : scan_slots_) {
    const std::uint64_t announced = slot->load(std::memory_order_acquire);
    if (announced != 0) m = std::min(m, announced);
  }
  return m;
}

// Detaches and retires every record strictly older than the newest record
// with version <= min_needed: no active or future scan can select them.
//
// Pruners that read different min_active_scan() values cut the chain at
// different records, so their suffixes can overlap.  Every link is
// therefore taken exactly once, by the detach CAS or by the exchange in
// the retire walk, and a record is retired by whoever took the link to it:
// a walk that finds a link already taken stops, and so does a pruner whose
// detach CAS finds its cut already taken.
void VersionedSkipList::prune(Node* node, std::uint64_t min_needed) {
  Record* rec = node->records.load(std::memory_order_acquire);
  while (rec != nullptr) {
    const std::uint64_t w = rec->version.load(std::memory_order_acquire);
    if (w != 0 && w <= min_needed) break;  // newest scannable record
    rec = rec->next.load(std::memory_order_acquire);
  }
  if (rec == nullptr) return;
  Record* suffix = rec->next.load(std::memory_order_acquire);
  if (suffix == nullptr) return;
  if (!rec->next.compare_exchange_strong(suffix, nullptr,
                                         std::memory_order_acq_rel)) {
    return;  // a link only ever changes to null: another pruner owns it
  }
  while (suffix != nullptr) {
    Record* older = suffix->next.exchange(nullptr, std::memory_order_acq_rel);
    domain_.retire(suffix);
    suffix = older;
  }
}

bool VersionedSkipList::write(Key key, Value value, bool deleted) {
  reclaim::Domain::Guard guard(domain_);
  Node* node = index_.find_or_insert(key).first;
  auto* rec = new Record(value, deleted, nullptr);
  Record* head = node->records.load(std::memory_order_acquire);
  do {
    rec->next.store(head, std::memory_order_relaxed);
  } while (!node->records.compare_exchange_weak(head, rec,
                                                std::memory_order_acq_rel));
  finalize(rec);
  // Logical state before this write = the record the CAS displaced.  Not
  // rec->next: once rec is finalized a concurrent pruner may cut there.
  const bool was_present = head != nullptr && !head->deleted;

  // Opportunistic chain maintenance.
  int length = 0;
  for (Record* r = rec; r != nullptr && length < 5;
       r = r->next.load(std::memory_order_acquire)) {
    ++length;
  }
  if (length >= 4) prune(node, min_active_scan());
  return was_present;
}

bool VersionedSkipList::insert(Key key, Value value) {
  return !write(key, value, /*deleted=*/false);
}

bool VersionedSkipList::remove(Key key) {
  // Avoid creating index nodes for keys that were never inserted.
  {
    reclaim::Domain::Guard guard(domain_);
    Node* node = index_.seek(key);
    if (!node->holds(key)) return false;
    Record* head = node->records.load(std::memory_order_acquire);
    if (head == nullptr || head->deleted) return false;
  }
  return write(key, Value{}, /*deleted=*/true);
}

bool VersionedSkipList::lookup(Key key, Value* value_out) const {
  reclaim::Domain::Guard guard(domain_);
  Node* node = index_.seek(key);
  if (!node->holds(key)) return false;
  Record* head = node->records.load(std::memory_order_acquire);
  if (head == nullptr) return false;
  finalize(head);  // the newest committed state
  if (head->deleted) return false;
  if (value_out != nullptr) *value_out = head->value;
  return true;
}

void VersionedSkipList::range_query(Key lo, Key hi, ItemVisitor visit) const {
  reclaim::Domain::Guard guard(domain_);

  // Announce before incrementing so pruners always see a version no newer
  // than the one this scan will use.
  const std::uint64_t announced = version_.load(std::memory_order_acquire);
  std::size_t slot = 0;
  {
    thread_local std::size_t preferred =
        static_cast<std::size_t>(mix64(
            reinterpret_cast<std::uintptr_t>(&slot))) % kScanSlots;
    Backoff backoff;
    while (true) {
      bool claimed = false;
      for (std::size_t probe = 0; probe < kScanSlots; ++probe) {
        const std::size_t index = (preferred + probe) % kScanSlots;
        std::uint64_t expected = 0;
        if (scan_slots_[index]->compare_exchange_strong(
                expected, announced, std::memory_order_acq_rel)) {
          slot = index;
          claimed = true;
          break;
        }
      }
      if (claimed) break;
      backoff.spin();
    }
  }

  // KiWi's linearization: the scan owns version v; records finalized later
  // get versions > v and are invisible.
  const std::uint64_t v =
      version_.fetch_add(1, std::memory_order_acq_rel);

  // Walk the bottom level across the range; the tail sentinel's rank
  // terminates the walk regardless of hi.
  for (Node* curr = index_.seek(lo); curr->is_item() && curr->key <= hi;
       curr = Index::successor(curr)) {
    Record* rec = curr->records.load(std::memory_order_acquire);
    while (rec != nullptr) {
      if (finalize(rec) <= v) break;  // newest record visible at v
      rec = rec->next.load(std::memory_order_acquire);
    }
    if (rec != nullptr && !rec->deleted) visit(curr->key, rec->value);
  }

  scan_slots_[slot]->store(0, std::memory_order_release);
}

std::size_t VersionedSkipList::size() const {
  reclaim::Domain::Guard guard(domain_);
  std::size_t count = 0;
  for (Node* n = index_.first(); n->is_item(); n = Index::successor(n)) {
    Record* head = n->records.load(std::memory_order_acquire);
    if (head != nullptr && !head->deleted) ++count;
  }
  return count;
}

}  // namespace cats::vskip

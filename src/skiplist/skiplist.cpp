#include "skiplist/skiplist.hpp"

#include <cstdint>

namespace cats::skiplist {

SkipList::SkipList(reclaim::Domain& domain) : domain_(domain) {}

bool SkipList::insert(Key key, Value value) {
  reclaim::Domain::Guard guard(domain_);
  const auto [node, inserted] = index_.find_or_insert(key, value);
  // Present: update the value in place (linearizes at the store).
  if (!inserted) node->value.store(value, std::memory_order_release);
  return inserted;
}

bool SkipList::remove(Key key) {
  reclaim::Domain::Guard guard(domain_);
  Index::Window window;
  if (!index_.find(key, window)) return false;
  Node* victim = window.succs[0];
  // Mark the upper levels top-down.
  for (int level = victim->top_level; level >= 1; --level) {
    std::uintptr_t word = victim->next[level].load(std::memory_order_acquire);
    while (!Index::is_marked(word)) {
      victim->next[level].compare_exchange_weak(
          word, word | Index::kMarkBit, std::memory_order_acq_rel);
    }
  }
  // Level 0 decides logical deletion.
  std::uintptr_t word = victim->next[0].load(std::memory_order_acquire);
  while (true) {
    if (Index::is_marked(word)) return false;  // someone else removed it
    if (victim->next[0].compare_exchange_strong(
            word, word | Index::kMarkBit, std::memory_order_acq_rel)) {
      // We are the logical deleter: ensure physical unlinking, then retire.
      index_.find(key, window);
      domain_.retire(victim);
      return true;
    }
  }
}

bool SkipList::lookup(Key key, Value* value_out) const {
  reclaim::Domain::Guard guard(domain_);
  Node* node = index_.seek(key);
  if (!node->holds(key)) return false;
  if (Index::is_marked(node->next[0].load(std::memory_order_acquire))) {
    return false;
  }
  if (value_out != nullptr) {
    *value_out = node->value.load(std::memory_order_acquire);
  }
  return true;
}

void SkipList::range_query(Key lo, Key hi, ItemVisitor visit) const {
  reclaim::Domain::Guard guard(domain_);
  // The tail sentinel's rank terminates the walk regardless of hi.
  Node* curr = index_.seek(lo);
  while (curr->is_item() && curr->key <= hi) {
    const std::uintptr_t next_word =
        curr->next[0].load(std::memory_order_acquire);
    if (!Index::is_marked(next_word)) {
      visit(curr->key, curr->value.load(std::memory_order_acquire));
    }
    curr = Index::ptr_of(next_word);
  }
}

std::size_t SkipList::size() const {
  reclaim::Domain::Guard guard(domain_);
  std::size_t count = 0;
  for (Node* curr = index_.first(); curr->is_item();) {
    const std::uintptr_t next_word =
        curr->next[0].load(std::memory_order_acquire);
    if (!Index::is_marked(next_word)) ++count;
    curr = Index::ptr_of(next_word);
  }
  return count;
}

}  // namespace cats::skiplist

// Shared-ownership handle to one immutable version of a leaf container.
//
// Both leaf containers (treap::BasicTreap, chunk::BasicChunk) hand out
// intrusively reference-counted immutable nodes; every persistent operation
// returns a fresh reference owned by the caller.  ContainerRef<C> owns one
// such reference and drops it through C::decref, so the ownership contract
// is written once for every container policy.
#pragma once

#include <utility>

namespace cats {

/// Owns one reference to a `C::Node` (C supplies `Node`, `incref` and
/// `decref`).  A default-constructed ContainerRef is the empty container.
template <class C>
class ContainerRef {
 public:
  ContainerRef() noexcept = default;
  /// Adopts an already-owned reference (used by the implementation).
  static ContainerRef adopt(const typename C::Node* node) noexcept {
    ContainerRef ref;
    ref.node_ = node;
    return ref;
  }

  ContainerRef(const ContainerRef& other) noexcept : node_(other.node_) {
    if (node_ != nullptr) C::incref(node_);
  }
  ContainerRef(ContainerRef&& other) noexcept
      : node_(std::exchange(other.node_, nullptr)) {}
  ContainerRef& operator=(const ContainerRef& other) noexcept {
    ContainerRef copy(other);
    swap(copy);
    return *this;
  }
  ContainerRef& operator=(ContainerRef&& other) noexcept {
    ContainerRef moved(std::move(other));
    swap(moved);
    return *this;
  }
  ~ContainerRef() {
    if (node_ != nullptr) C::decref(node_);
  }

  void swap(ContainerRef& other) noexcept { std::swap(node_, other.node_); }
  const typename C::Node* get() const noexcept { return node_; }
  explicit operator bool() const noexcept { return node_ != nullptr; }

  /// Releases ownership without decrementing (for handoff into atomics).
  const typename C::Node* release() noexcept {
    return std::exchange(node_, nullptr);
  }

 private:
  const typename C::Node* node_ = nullptr;
};

}  // namespace cats

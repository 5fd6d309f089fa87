// Immutable sorted-array container ("chunk").
//
// The alternative leaf container discussed in the paper's §3: the k-ary
// search tree and the Leaplist keep their items in immutable ARRAYS, which
// makes scans as cache friendly as possible but costs O(n) per update (the
// whole array is copied).  The paper points out that this is exactly why
// those structures degrade when their granularity parameter is set high —
// and the LFCA tree's "Flexible" property says any container with this
// interface can be plugged in.  This module provides the array variant so
// the flexibility claim is exercised end to end (see BasicLfcaTree and
// `bench_paper ablation`).
//
// The implementation is the BasicChunk<K, V, Cmp> template (chunk_impl.hpp),
// whose statics are the whole API and which is itself the LFCA tree's
// leaf-container policy.  This header names the default <int64_t, uint64_t,
// std::less> instantiation `Impl`, explicitly instantiated in chunk.cpp.
//
// Complexity (n items): lookup O(log n); insert/remove/join/split O(n);
// for_range O(log n + k).
#pragma once

#include <cstddef>

#include "chunk/chunk_impl.hpp"
#include "common/types.hpp"

namespace cats::chunk {

/// The default (integer-key) instantiation; codegen lives in chunk.cpp.
using Impl = BasicChunk<Key, Value, std::less<Key>>;
extern template struct BasicChunk<Key, Value, std::less<Key>>;

using Node = Impl::Node;
using Ref = Impl::Ref;

/// Total live node count across all chunks and all key-type instantiations.
std::size_t live_nodes();

}  // namespace cats::chunk

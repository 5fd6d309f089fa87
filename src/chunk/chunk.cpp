#include "chunk/chunk.hpp"

#include "common/strkey.hpp"

namespace cats::chunk {

namespace detail {

// Shared by every BasicChunk instantiation (see chunk_impl.hpp).
constinit obs::ShardedCounters<1> g_live_nodes;

}  // namespace detail

// All member-function codegen for the supported key types lives here.
template struct BasicChunk<Key, Value, std::less<Key>>;
template struct BasicChunk<StrKey, Value, std::less<StrKey>>;

std::size_t live_nodes() {
  return static_cast<std::size_t>(detail::g_live_nodes.read(0));
}

}  // namespace cats::chunk

// Instantiates LfcaTreeChunk (int64 keys, flat-array leaves);
// see lfca_tree_treap.cpp.
#include "lfca/lfca_tree_impl.hpp"

template class cats::lfca::BasicLfcaTree<cats::lfca::ChunkContainer>;

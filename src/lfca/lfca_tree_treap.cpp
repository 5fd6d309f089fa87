// Explicit instantiation of LfcaTree (int64 keys, treap leaves), the paper's
// configuration and the benchmarked fast path.  Each container policy gets
// its own lfca_tree_*.cpp unit, so GCC's inlining decisions on one policy's
// hot paths do not depend on the other policies.  Code using the tree sees
// only the extern-template declarations in lfca_tree.hpp.
#include "lfca/lfca_tree_impl.hpp"

template class cats::lfca::BasicLfcaTree<cats::lfca::TreapContainer>;

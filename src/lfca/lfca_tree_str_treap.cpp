// Instantiates LfcaStrTree (string keys, treap leaves);
// see lfca_tree_treap.cpp.
#include "lfca/lfca_tree_impl.hpp"

template class cats::lfca::BasicLfcaTree<cats::lfca::StrTreapContainer>;

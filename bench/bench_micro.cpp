// Microbenchmarks (google-benchmark) for the substrates: persistent treap
// operation costs at various sizes, EBR guard/retire overhead, and the
// single-operation costs of each concurrent structure.  These are the
// numbers behind the throughput figures: e.g. the O(log n) path-copy cost
// of a persistent insert bounds the update throughput of every
// immutable-container design.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/rng.hpp"
#include "imtr/imtr_set.hpp"
#include "lfca/lfca_tree.hpp"
#include "reclaim/ebr.hpp"
#include "skiplist/skiplist.hpp"
#include "treap/treap.hpp"

namespace {

using namespace cats;

treap::Ref build_treap(std::int64_t n, std::uint64_t seed = 7) {
  Xoshiro256 rng(seed);
  treap::Ref t;
  std::int64_t inserted = 0;
  while (inserted < n) {
    bool replaced = false;
    t = treap::Impl::insert(t.get(), rng.next_in(0, n * 2), 1, &replaced);
    if (!replaced) ++inserted;
  }
  return t;
}

void BM_TreapInsert(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  treap::Ref base = build_treap(n);
  Xoshiro256 rng(13);
  for (auto _ : state) {
    treap::Ref next = treap::Impl::insert(base.get(), rng.next_in(0, n * 2), 2);
    benchmark::DoNotOptimize(next.get());
  }
  state.SetLabel("persistent path copy");
}
BENCHMARK(BM_TreapInsert)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_TreapRemove(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  treap::Ref base = build_treap(n);
  Xoshiro256 rng(17);
  for (auto _ : state) {
    treap::Ref next = treap::Impl::remove(base.get(), rng.next_in(0, n * 2));
    benchmark::DoNotOptimize(next.get());
  }
}
BENCHMARK(BM_TreapRemove)->Arg(1000)->Arg(100000);

void BM_TreapLookup(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  treap::Ref base = build_treap(n);
  Xoshiro256 rng(19);
  for (auto _ : state) {
    Value v = 0;
    benchmark::DoNotOptimize(
        treap::Impl::lookup(base.get(), rng.next_in(0, n * 2), &v));
  }
}
BENCHMARK(BM_TreapLookup)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_TreapSplitJoin(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  treap::Ref base = build_treap(n);
  for (auto _ : state) {
    treap::Ref l, r;
    Key pivot = 0;
    treap::Impl::split_evenly(base.get(), &l, &r, &pivot);
    treap::Ref joined = treap::Impl::join(l.get(), r.get());
    benchmark::DoNotOptimize(joined.get());
  }
  state.SetLabel("split_evenly + join");
}
BENCHMARK(BM_TreapSplitJoin)->Arg(1000)->Arg(100000);

void BM_TreapRangeScan(benchmark::State& state) {
  treap::Ref base = build_treap(100000);
  const std::int64_t span = state.range(0);
  Xoshiro256 rng(23);
  for (auto _ : state) {
    const Key lo = rng.next_in(0, 200000 - span);
    std::uint64_t sum = 0;
    treap::Impl::for_range(base.get(), lo, lo + span,
                     [&](Key k, Value) { sum += k; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * span / 2);
}
BENCHMARK(BM_TreapRangeScan)->Arg(100)->Arg(10000);

void BM_EbrGuard(benchmark::State& state) {
  reclaim::Domain domain;
  for (auto _ : state) {
    reclaim::Domain::Guard guard(domain);
    benchmark::ClobberMemory();
  }
  state.SetLabel("enter+exit");
}
BENCHMARK(BM_EbrGuard);

void BM_EbrRetire(benchmark::State& state) {
  reclaim::Domain domain;
  for (auto _ : state) {
    domain.retire(new int(1));
  }
  domain.drain();
}
BENCHMARK(BM_EbrRetire);

template <class S>
void BM_StructureLookup(benchmark::State& state) {
  S s;
  Xoshiro256 rng(29);
  for (Key k = 1; k <= 100000; ++k) s.insert(k, 1);
  for (auto _ : state) {
    Value v = 0;
    benchmark::DoNotOptimize(s.lookup(rng.next_in(1, 100000), &v));
  }
}
BENCHMARK(BM_StructureLookup<lfca::LfcaTree>)->Name("BM_Lookup/lfca");
BENCHMARK(BM_StructureLookup<imtr::ImTreeSet>)->Name("BM_Lookup/imtr");
BENCHMARK(BM_StructureLookup<skiplist::SkipList>)->Name("BM_Lookup/skiplist");

template <class S>
void BM_StructureInsertRemove(benchmark::State& state) {
  S s;
  Xoshiro256 rng(31);
  for (Key k = 1; k <= 100000; ++k) s.insert(k, 1);
  for (auto _ : state) {
    const Key k = rng.next_in(1, 100000);
    s.insert(k, 2);
    s.remove(k);
  }
  state.SetLabel("insert+remove pair");
}
BENCHMARK(BM_StructureInsertRemove<lfca::LfcaTree>)->Name("BM_Update/lfca");
BENCHMARK(BM_StructureInsertRemove<imtr::ImTreeSet>)->Name("BM_Update/imtr");
BENCHMARK(BM_StructureInsertRemove<skiplist::SkipList>)
    ->Name("BM_Update/skiplist");

}  // namespace

BENCHMARK_MAIN();

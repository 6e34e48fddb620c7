// google-benchmark microbenchmarks for the parallel runtime substrate:
// team dispatch overhead, parallel_for/reduce/scan/filter throughput, and
// the concurrent bag the LLP-Prim R set uses.
#include <benchmark/benchmark.h>

#include <vector>

#include "parallel/concurrent_bag.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "parallel/thread_pool.hpp"
#include "support/random.hpp"

namespace {

using namespace llpmst;

void bm_team_dispatch(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    pool.run_team([](std::size_t id) { benchmark::DoNotOptimize(id); });
  }
}

void bm_parallel_for(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = 1 << 20;
  std::vector<std::uint32_t> data(n, 1);
  for (auto _ : state) {
    parallel_for(pool, 0, n, [&](std::size_t i) { data[i] += 1; });
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void bm_parallel_reduce(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = 1 << 20;
  std::vector<std::uint32_t> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<std::uint32_t>(i);
  for (auto _ : state) {
    auto s = parallel_sum(pool, 0, n, std::uint64_t{0},
                          [&](std::size_t i) { return data[i]; });
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void bm_exclusive_scan(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = 1 << 20;
  std::vector<std::uint64_t> scratch(n);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < n; ++i) scratch[i] = i % 7;
    state.ResumeTiming();
    benchmark::DoNotOptimize(exclusive_scan_inplace(pool, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void bm_parallel_filter(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = 1 << 20;
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    auto kept = parallel_filter(
        pool, n, out, [](std::size_t i) { return (i & 3) == 0; },
        [](std::size_t i) { return static_cast<std::uint32_t>(i); });
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void bm_concurrent_bag(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads);
  const std::size_t n = 1 << 18;
  ConcurrentBag<std::uint32_t> bag(threads);
  std::vector<std::uint32_t> sink;
  for (auto _ : state) {
    parallel_for_worker(pool, 0, n, [&](std::size_t i, std::size_t w) {
      bag.push(w, static_cast<std::uint32_t>(i));
    });
    sink.clear();
    bag.drain_into(sink);
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void bm_parallel_sort(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = 1 << 19;
  std::vector<std::uint64_t> base(n);
  Xoshiro256 rng(5);
  for (auto& v : base) v = rng.next();
  std::vector<std::uint64_t> scratch;
  for (auto _ : state) {
    state.PauseTiming();
    scratch = base;
    state.ResumeTiming();
    parallel_sort(pool, scratch);
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

}  // namespace

BENCHMARK(bm_team_dispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(bm_parallel_for)->Arg(1)->Arg(4);
BENCHMARK(bm_parallel_reduce)->Arg(1)->Arg(4);
BENCHMARK(bm_exclusive_scan)->Arg(1)->Arg(4);
BENCHMARK(bm_parallel_filter)->Arg(1)->Arg(4);
BENCHMARK(bm_concurrent_bag)->Arg(1)->Arg(4);
BENCHMARK(bm_parallel_sort)->Arg(1)->Arg(4);

BENCHMARK_MAIN();

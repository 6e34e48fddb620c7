#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "parallel/thread_pool.hpp"

namespace llpmst {
namespace {

// Thread counts swept by the parameterized suites: sequential, small team,
// and oversubscribed relative to this machine.
class ParallelPrimitives : public testing::TestWithParam<int> {
 protected:
  ThreadPool pool_{static_cast<std::size_t>(GetParam())};
};

INSTANTIATE_TEST_SUITE_P(Threads, ParallelPrimitives,
                         testing::Values(1, 2, 4, 8));

TEST_P(ParallelPrimitives, ForVisitsEveryIndexOnce) {
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  parallel_for(pool_, 0, n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ParallelPrimitives, ForStaticVisitsEveryIndexOnce) {
  const std::size_t n = 54321;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  parallel_for_static(pool_, 0, n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1);
  }
}

TEST_P(ParallelPrimitives, ForWorkerGivesValidWorkerIds) {
  const std::size_t n = 20000;
  std::atomic<std::size_t> bad{0};
  parallel_for_worker(pool_, 0, n, [&](std::size_t, std::size_t w) {
    if (w >= pool_.num_threads()) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0u);
}

TEST_P(ParallelPrimitives, ForHandlesEmptyAndReversedRanges) {
  int calls = 0;
  parallel_for(pool_, 5, 5, [&](std::size_t) { ++calls; });
  parallel_for(pool_, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_P(ParallelPrimitives, ForNonZeroBegin) {
  std::atomic<std::uint64_t> sum{0};
  parallel_for(pool_, 100, 200, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), (100ull + 199ull) * 100 / 2);
}

TEST_P(ParallelPrimitives, BlocksCoverRangeWithoutOverlap) {
  const std::size_t n = 9973;  // prime, exercises uneven splits
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  parallel_blocks(pool_, 0, n, [&](std::size_t lo, std::size_t hi,
                                   std::size_t w) {
    EXPECT_LT(w, pool_.num_threads());
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

// --- GrainFeedback: the adaptive-grain controller. --------------------
// The clamp bounds [128, 65536] and the ~30us serial cutoff are part of
// the contract parallel_chunks_adaptive call sites tune against.

TEST(GrainFeedback, GrainClampsToFloorWhenElementsAreExpensive) {
  GrainFeedback fb;
  fb.update(1000, 1e9);  // 1 ms per element measured
  EXPECT_DOUBLE_EQ(fb.ns_per_item(), 1e6);
  // Target chunk cost / cost-per-item would be a fraction of an element;
  // the floor keeps every dequeue worth its atomic.
  EXPECT_EQ(fb.grain(1u << 20, 4), 128u);
}

TEST(GrainFeedback, GrainClampsToCeilingWhenElementsAreCheap) {
  GrainFeedback fb;
  fb.update(1u << 20, 1000.0);  // ~0.001 ns per element measured
  // Unclamped this would be tens of millions; the ceiling preserves load
  // balance even when elements are nearly free.
  EXPECT_EQ(fb.grain(100000000, 1), std::size_t{1} << 16);
}

TEST(GrainFeedback, NoFeedbackSplitsByRangeShape) {
  GrainFeedback fb;
  EXPECT_DOUBLE_EQ(fb.ns_per_item(), 0.0);
  // n / (threads * 4 slices): 65536 / 16 = 4096, inside the clamp window.
  EXPECT_EQ(fb.grain(65536, 4), 4096u);
  // Small ranges still clamp up to the floor.
  EXPECT_EQ(fb.grain(100, 8), 128u);
}

TEST(GrainFeedback, UpdateMixesWithEwmaAlphaHalf) {
  GrainFeedback fb;
  fb.update(100, 10000.0);  // first sample is taken whole: 100 ns/item
  EXPECT_DOUBLE_EQ(fb.ns_per_item(), 100.0);
  fb.update(100, 20000.0);  // 0.5 * 100 + 0.5 * 200
  EXPECT_DOUBLE_EQ(fb.ns_per_item(), 150.0);
  fb.update(0, 99999.0);  // empty ranges must not poison the estimate
  EXPECT_DOUBLE_EQ(fb.ns_per_item(), 150.0);
}

TEST(GrainFeedback, PrefersSerialOnlyBelowTheMeasuredCutoff) {
  GrainFeedback fb;
  // Unknown cost predicts optimistically (parallel) so the first call
  // gathers a real measurement.
  EXPECT_FALSE(fb.prefers_serial(10));
  fb.update(100, 10000.0);  // 100 ns/item
  EXPECT_TRUE(fb.prefers_serial(100));    // ~10us predicted < ~30us cutoff
  EXPECT_FALSE(fb.prefers_serial(1000));  // ~100us predicted
}

TEST_P(ParallelPrimitives, AdaptiveForVisitsEveryIndexOnceAcrossRounds) {
  const std::size_t n = 50000;
  GrainFeedback fb;
  // Repeated invocations move the grain as the EWMA settles; coverage must
  // hold on the untrained first round and the trained later ones alike.
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    parallel_chunks_adaptive(
        pool_, 0, n, fb, [&](std::size_t lo, std::size_t hi, std::size_t) {
          for (std::size_t i = lo; i < hi; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
        });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "rep " << rep << " index " << i;
    }
  }
  EXPECT_GT(fb.ns_per_item(), 0.0) << "loop timing never fed back";
}

TEST_P(ParallelPrimitives, AdaptiveForRunsInlineBelowTheSerialCutoff) {
  GrainFeedback fb;
  fb.update(1u << 20, 1000.0);  // measured: elements are nearly free
  ASSERT_TRUE(fb.prefers_serial(256));
  const std::thread::id me = std::this_thread::get_id();
  std::atomic<int> calls{0};
  std::atomic<int> off_thread{0};
  parallel_chunks_adaptive(
      pool_, 0, 256, fb, [&](std::size_t lo, std::size_t hi, std::size_t) {
        // Inline means one call over the whole range.
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 256u);
        calls.fetch_add(1, std::memory_order_relaxed);
        if (std::this_thread::get_id() != me) {
          off_thread.fetch_add(1, std::memory_order_relaxed);
        }
      });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(off_thread.load(), 0)
      << "serial-cutoff path dispatched a team anyway";
}

TEST_P(ParallelPrimitives, ReduceMatchesSequential) {
  const std::size_t n = 123457;
  std::vector<std::uint64_t> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = (i * 2654435761u) % 1000;
  const std::uint64_t expected =
      std::accumulate(data.begin(), data.end(), std::uint64_t{0});
  const auto got = parallel_sum(pool_, 0, n, std::uint64_t{0},
                                [&](std::size_t i) { return data[i]; });
  EXPECT_EQ(got, expected);
}

TEST_P(ParallelPrimitives, ReduceWithCustomCombine) {
  const std::size_t n = 100001;
  const auto max_val = parallel_reduce(
      pool_, 0, n, std::uint64_t{0},
      [&](std::size_t i) { return (i * 48271) % 99991; },
      [](std::uint64_t a, std::uint64_t b) { return a > b ? a : b; });
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expected = std::max(expected, (i * 48271) % 99991);
  }
  EXPECT_EQ(max_val, expected);
}

TEST_P(ParallelPrimitives, CountMatchesPredicate) {
  const std::size_t n = 65536;
  const auto c = parallel_count(pool_, 0, n,
                                [](std::size_t i) { return i % 3 == 0; });
  EXPECT_EQ(c, (n + 2) / 3);
}

TEST_P(ParallelPrimitives, ScanMatchesSequential) {
  for (const std::size_t n : {0ul, 1ul, 7ul, 1000ul, 131071ul}) {
    std::vector<std::uint64_t> data(n), expected(n);
    for (std::size_t i = 0; i < n; ++i) data[i] = (i * 7 + 3) % 13;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] = acc;
      acc += data[i];
    }
    const auto total = exclusive_scan_inplace(pool_, data);
    EXPECT_EQ(total, acc) << "n=" << n;
    EXPECT_EQ(data, expected) << "n=" << n;
  }
}

TEST_P(ParallelPrimitives, FilterPreservesOrder) {
  const std::size_t n = 100000;
  std::vector<std::uint32_t> out;
  const auto kept = parallel_filter(
      pool_, n, out, [](std::size_t i) { return i % 7 == 0; },
      [](std::size_t i) { return static_cast<std::uint32_t>(i); });
  EXPECT_EQ(kept, out.size());
  ASSERT_EQ(out.size(), (n + 6) / 7);
  for (std::size_t k = 0; k < out.size(); ++k) {
    ASSERT_EQ(out[k], k * 7);
  }
}

TEST_P(ParallelPrimitives, FilterKeepsNothingAndEverything) {
  std::vector<int> out{1, 2, 3};  // must be overwritten
  EXPECT_EQ(parallel_filter(
                pool_, 1000, out, [](std::size_t) { return false; },
                [](std::size_t i) { return static_cast<int>(i); }),
            0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(parallel_filter(
                pool_, 1000, out, [](std::size_t) { return true; },
                [](std::size_t i) { return static_cast<int>(i); }),
            1000u);
  EXPECT_EQ(out.size(), 1000u);
}

}  // namespace
}  // namespace llpmst

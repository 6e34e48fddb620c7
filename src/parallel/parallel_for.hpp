// Data-parallel loop primitives over a ThreadPool.
//
//   parallel_for(pool, 0, n, [&](std::size_t i) { ... });          // dynamic
//   parallel_for_static(pool, 0, n, [&](std::size_t i) { ... });   // static
//   parallel_blocks(pool, 0, n, [&](size_t lo, size_t hi, size_t w) {...});
//   parallel_chunks_adaptive(pool, 0, n, grain_feedback,
//                            [&](size_t lo, size_t hi, size_t w) {...});
//
// The dynamic variant hands out fixed-size chunks from a shared atomic
// counter — good for irregular per-element cost (graph loops whose cost is a
// vertex's degree).  The static variant pre-splits the range evenly — good
// for uniform cost, no atomic traffic.  parallel_blocks exposes the chunk
// bounds and worker id so callers can keep per-thread accumulators.
// The adaptive variant sizes its chunks from a GrainFeedback the caller owns:
// measured per-element cost feeds back into the next invocation's grain, and
// loops too cheap to amortize a team dispatch run inline (see GrainFeedback).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "obs/sched_events.hpp"
#include "parallel/executor.hpp"
#include "parallel/thread_pool.hpp"
#include "support/cancel.hpp"
#include "support/sim_hooks.hpp"
#include "support/virtual_time.hpp"

namespace llpmst {

namespace detail {
/// Chunk size for dynamic scheduling: big enough to amortize the atomic,
/// small enough to balance skewed work.
inline constexpr std::size_t kDynamicChunk = 1024;

/// Clock behind GrainFeedback measurements.  Routed through vtime so the
/// deterministic simulator controls it — grain decisions feed back into
/// chunk sizes, which are schedule-affecting, so they must not read real
/// time under simulation.
inline std::uint64_t grain_clock_ns() { return vtime::steady_now_ns(); }
}  // namespace detail

/// Per-call-site grain controller for parallel_chunks_adaptive.
///
/// The caller keeps one instance per loop site (e.g. a member of a scratch
/// struct reused across Boruvka rounds).  Each invocation times the whole
/// loop and folds ns-per-element into an EWMA; the next invocation derives
/// its chunk size from that cost, the range size, and the thread count:
///
///   * chunk ~ kTargetChunkNs / ns_per_item  — each dequeue amortizes the
///     shared-counter atomic AND is small enough to rebalance skew;
///   * chunk <= n / (threads * kMinSlicesPerThread) — every worker gets
///     several slices even on small ranges;
///   * loops whose PREDICTED total cost is below kSerialCutoffNs run inline:
///     at that size a team wake/join costs more than the loop itself.
///
/// Not thread-safe: one loop site is driven by one submitting thread at a
/// time (run_team is not reentrant anyway).
class GrainFeedback {
 public:
  /// EWMA of per-element cost in ns (0 = no measurement yet).
  [[nodiscard]] double ns_per_item() const { return ns_per_item_; }

  /// Chunk size to use for a range of n elements on t workers.
  [[nodiscard]] std::size_t grain(std::size_t n, std::size_t t) const {
    std::size_t g;
    if (ns_per_item_ <= 0.0) {
      // No feedback yet: split by range shape alone.
      g = n / (t * kMinSlicesPerThread);
    } else {
      g = static_cast<std::size_t>(kTargetChunkNs / ns_per_item_);
      const std::size_t cap = n / (t * kMinSlicesPerThread);
      if (g > cap) g = cap;
    }
    if (g < kMinGrain) g = kMinGrain;
    if (g > kMaxGrain) g = kMaxGrain;
    return g;
  }

  /// True when the predicted total cost is too small to win from a team
  /// dispatch.  Unknown cost predicts optimistically (parallel) so the
  /// first invocation gathers a real measurement.
  [[nodiscard]] bool prefers_serial(std::size_t n) const {
    return ns_per_item_ > 0.0 &&
           ns_per_item_ * static_cast<double>(n) < kSerialCutoffNs;
  }

  void update(std::size_t n, double elapsed_ns) {
    if (n == 0) return;
    const double cost = elapsed_ns / static_cast<double>(n);
    // EWMA, alpha 0.5: reacts within a round or two but rides out one
    // noisy measurement (context switch, page faults on first touch).
    ns_per_item_ = ns_per_item_ <= 0.0 ? cost : 0.5 * ns_per_item_ + 0.5 * cost;
  }

 private:
  static constexpr double kTargetChunkNs = 20000.0;   // ~20us per dequeue
  static constexpr double kSerialCutoffNs = 30000.0;  // ~2 team dispatches
  static constexpr std::size_t kMinSlicesPerThread = 4;
  static constexpr std::size_t kMinGrain = 128;
  static constexpr std::size_t kMaxGrain = 1 << 16;

  double ns_per_item_ = 0.0;
};

/// Dynamic (chunk-stealing) parallel for over [begin, end).
template <typename Body>
void parallel_for(Executor& pool, std::size_t begin, std::size_t end,
                  Body&& body,
                  std::size_t chunk = detail::kDynamicChunk) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (pool.num_threads() == 1 || n <= chunk) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{begin};
  pool.run_team([&](std::size_t) {
    for (;;) {
      // Preemption point: each chunk grab is a spot where the OS scheduler
      // could interleave workers differently — under simulation the
      // deterministic scheduler decides here instead.
      simhook::preempt();
      const std::size_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) break;
      const std::size_t hi = lo + chunk < end ? lo + chunk : end;
      for (std::size_t i = lo; i < hi; ++i) body(i);
    }
  });
}

/// Dynamic parallel for that polls a CancelToken between chunks: when the
/// token triggers, workers stop taking new chunks (in-flight chunks finish).
/// Returns true iff the whole range was processed.  The poll costs one
/// relaxed load (plus a clock read while a deadline is armed) per `chunk`
/// elements — this is the cancellation granularity a watchdog can rely on,
/// as long as individual loop bodies are short.
template <typename Body>
bool parallel_for_interruptible(Executor& pool, std::size_t begin,
                                std::size_t end, const CancelToken& cancel,
                                Body&& body,
                                std::size_t chunk = detail::kDynamicChunk) {
  if (begin >= end) return true;
  const std::size_t n = end - begin;
  if (pool.num_threads() == 1 || n <= chunk) {
    for (std::size_t lo = begin; lo < end; lo += chunk) {
      if (cancel.cancelled()) return false;
      const std::size_t hi = lo + chunk < end ? lo + chunk : end;
      for (std::size_t i = lo; i < hi; ++i) body(i);
    }
    return true;
  }
  std::atomic<std::size_t> next{begin};
  std::atomic<bool> stopped{false};
  pool.run_team([&](std::size_t) {
    for (;;) {
      simhook::preempt();
      if (cancel.cancelled()) {
        stopped.store(true, std::memory_order_relaxed);
        break;
      }
      const std::size_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) break;
      const std::size_t hi = lo + chunk < end ? lo + chunk : end;
      for (std::size_t i = lo; i < hi; ++i) body(i);
    }
  });
  return !stopped.load(std::memory_order_relaxed);
}

/// Static (even pre-split) parallel for over [begin, end).
template <typename Body>
void parallel_for_static(Executor& pool, std::size_t begin, std::size_t end,
                         Body&& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t t = pool.num_threads();
  if (t == 1 || n < 2 * t) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  pool.run_team([&](std::size_t w) {
    // One preemption point per worker: static splits have no load-balance
    // races, but the order in which block effects become visible is still a
    // schedule degree of freedom worth exploring.
    simhook::preempt();
    const std::size_t lo = begin + n * w / t;
    const std::size_t hi = begin + n * (w + 1) / t;
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

/// Dynamic parallel for whose body also receives the worker id — for loops
/// that feed per-worker buffers (ConcurrentBag) while still load-balancing
/// skewed per-element work (e.g. high-degree frontier vertices).
template <typename Body>
void parallel_for_worker(Executor& pool, std::size_t begin, std::size_t end,
                         Body&& body,
                         std::size_t chunk = detail::kDynamicChunk) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (pool.num_threads() == 1 || n <= chunk) {
    for (std::size_t i = begin; i < end; ++i) body(i, std::size_t{0});
    return;
  }
  std::atomic<std::size_t> next{begin};
  pool.run_team([&](std::size_t w) {
    for (;;) {
      simhook::preempt();
      const std::size_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) break;
      const std::size_t hi = lo + chunk < end ? lo + chunk : end;
      for (std::size_t i = lo; i < hi; ++i) body(i, w);
    }
  });
}

/// Dynamic parallel for over fixed-size chunks, exposing the chunk bounds
/// and worker id: body(lo, hi, worker).  Chunk boundaries are deterministic
/// (lo is always a multiple of `chunk` from begin), so callers can index
/// per-chunk state as (lo - begin) / chunk — the basis of the engine's
/// chunked stream compaction — while per-worker timing enables utilization
/// probes.  Workers race only for WHICH chunks they take, never for bounds.
template <typename ChunkBody>
void parallel_chunks(Executor& pool, std::size_t begin, std::size_t end,
                     std::size_t chunk, ChunkBody&& body) {
  if (begin >= end) return;
  if (chunk == 0) chunk = detail::kDynamicChunk;
  const std::size_t n = end - begin;
  if (pool.num_threads() == 1 || n <= chunk) {
    for (std::size_t lo = begin; lo < end; lo += chunk) {
      const std::size_t hi = lo + chunk < end ? lo + chunk : end;
      body(lo, hi, std::size_t{0});
    }
    return;
  }
  std::atomic<std::size_t> next{begin};
  pool.run_team([&](std::size_t w) {
    for (;;) {
      simhook::preempt();
      const std::size_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) break;
      const std::size_t hi = lo + chunk < end ? lo + chunk : end;
      body(lo, hi, w);
    }
  });
}

/// Adaptive-grain parallel_chunks: the chunk size and the serial-inline
/// decision come from `feedback`, which this call then updates with the
/// measured cost.  Use one GrainFeedback per loop site; loops that repeat
/// with similar per-element cost (Boruvka rounds) converge on a grain that
/// amortizes scheduling without starving load balance.  The inline path is
/// ONE body(begin, end, 0) call, so per-chunk work such as claiming an
/// output range happens once.
template <typename ChunkBody>
void parallel_chunks_adaptive(Executor& pool, std::size_t begin,
                              std::size_t end, GrainFeedback& feedback,
                              ChunkBody&& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::uint64_t t0 = detail::grain_clock_ns();
  if (pool.num_threads() == 1 || feedback.prefers_serial(n)) {
    if (obs::sched_collecting()) {
      obs::sched_record(obs::SchedEventKind::kGrainSerial, obs::now_us(), n);
    }
    body(begin, end, std::size_t{0});
  } else {
    const std::size_t g = feedback.grain(n, pool.num_threads());
    if (obs::sched_collecting()) {
      obs::sched_record(obs::SchedEventKind::kGrain, obs::now_us(), g);
    }
    parallel_chunks(pool, begin, end, g, body);
  }
  feedback.update(n, static_cast<double>(detail::grain_clock_ns() - t0));
}

/// Runs body(lo, hi, worker_id) on per-worker contiguous blocks covering
/// [begin, end).  Workers with an empty block still get called with lo==hi so
/// per-worker state can be initialized unconditionally.
template <typename BlockBody>
void parallel_blocks(Executor& pool, std::size_t begin, std::size_t end,
                     BlockBody&& body) {
  const std::size_t n = end >= begin ? end - begin : 0;
  const std::size_t t = pool.num_threads();
  if (t == 1) {
    body(begin, end >= begin ? end : begin, std::size_t{0});
    return;
  }
  pool.run_team([&](std::size_t w) {
    simhook::preempt();
    const std::size_t lo = begin + n * w / t;
    const std::size_t hi = begin + n * (w + 1) / t;
    body(lo, hi, w);
  });
}

}  // namespace llpmst

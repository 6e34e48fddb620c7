// Scheduler event collection: a fixed-capacity, lock-free ring buffer per
// worker thread recording what the parallel runtime actually did — task
// (team-region) spans and adaptive-grain decisions.  This is the raw
// material for the per-worker timelines, the utilization / critical-path
// analysis (obs/critical_path.hpp), the run report's "scheduler" section,
// and the "sched/*" tracks in the Chrome trace.
//
// Design contract (mirrors obs/metrics.hpp):
//   * SPSC per ring: each thread writes only its own ring (found via a
//     thread_local pointer, registered once under a cold mutex).  Slots are
//     a pair of relaxed atomics, so a straggler emit overlapping a snapshot
//     is at worst a stale/torn *event*, never a data race.
//   * Drop-oldest: the writer always overwrites slot (head % capacity); a
//     full ring keeps the newest kSchedRingCapacity events and the snapshot
//     reports how many older ones were overwritten.
//   * Cost when collection is off: one relaxed load per call site.  Cost
//     when on: two relaxed stores + the caller's clock reads — no locks, no
//     allocation after the ring exists (one 256 KiB block per thread,
//     allocated on that thread's first event).
//   * Fully compiled out under LLPMST_OBS=0: every function below becomes
//     an inline no-op and the call sites fold away.
//
// Lifecycle contract: sched_start() / sched_stop() / snapshot_sched_events()
// are coordinator calls — make them while no parallel region is in flight
// (the same rule trace_start/trace_stop follow).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace llpmst::obs {

enum class SchedEventKind : std::uint8_t {
  /// Span: one worker's share of a team region; value = duration in us.
  kTask = 0,
  /// Point: parallel_for_adaptive dispatched a team; value = chosen grain.
  kGrain = 1,
  /// Point: parallel_for_adaptive ran inline (predicted cost below the
  /// serial cutoff); value = range size.
  kGrainSerial = 2,
};

struct SchedEvent {
  SchedEventKind kind = SchedEventKind::kTask;
  std::uint32_t worker = 0;  // obs shard id of the recording thread
  std::uint64_t ts_us = 0;   // span start (spans) / event time (points)
  std::uint64_t value = 0;   // duration, grain or range size (see kind)
};

struct SchedSnapshot {
  /// Grouped by worker; time-ordered within each worker's run of events.
  std::vector<SchedEvent> events;
  /// Events overwritten by drop-oldest across all rings since sched_start().
  std::uint64_t dropped = 0;
};

#if LLPMST_OBS

/// Events retained per worker thread (16 bytes each).  Sized so a full
/// Graph500-scale solve keeps every region span while a pathological event
/// storm degrades to "newest events win" instead of unbounded memory.
inline constexpr std::size_t kSchedRingCapacity = 1u << 14;

/// One relaxed load; the gate every recording call site checks.
[[nodiscard]] bool sched_collecting();

/// Resets all rings (head and drop counts) and begins collecting.
void sched_start();
/// Stops collecting; buffered events stay readable until the next start.
void sched_stop();

/// Appends one event to the calling thread's ring.  No-op unless
/// collecting.  Timestamps come from obs::now_us().
void sched_record(SchedEventKind kind, std::uint64_t ts_us,
                  std::uint64_t value);

/// Copies out all buffered events (call after parallel work has joined).
[[nodiscard]] SchedSnapshot snapshot_sched_events();

#else  // !LLPMST_OBS — the whole subsystem folds away.

inline constexpr std::size_t kSchedRingCapacity = 0;
[[nodiscard]] inline bool sched_collecting() { return false; }
inline void sched_start() {}
inline void sched_stop() {}
inline void sched_record(SchedEventKind, std::uint64_t, std::uint64_t) {}
[[nodiscard]] inline SchedSnapshot snapshot_sched_events() { return {}; }

#endif  // LLPMST_OBS

}  // namespace llpmst::obs

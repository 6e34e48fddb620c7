// Utilization and critical-path analysis over the scheduler event rings
// (obs/sched_events.hpp): per-worker busy breakdowns, the adaptive-grain
// decision histogram, and a critical-path lower bound derived from the
// event timelines.
//
// The critical-path bound is the classic span argument run backwards: any
// wall-clock interval during which at most ONE worker was inside a task
// span is work that could not have been parallelized (or serial coordinator
// time between regions), so summing those intervals lower-bounds T_inf.
// Together with total busy time it brackets the achievable speedup:
// T_p >= max(busy / p, critical_path).
//
// Everything here is pure analysis over a SchedSnapshot, so it compiles in
// both obs flavours — under LLPMST_OBS=0 the snapshot is empty and
// scheduler_summary() reports has_events == false.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/sched_events.hpp"

namespace llpmst::obs {

struct WorkerBreakdown {
  std::uint32_t worker = 0;
  std::uint64_t busy_us = 0;  // summed task spans
  std::uint64_t tasks = 0;    // task spans recorded
};

struct SchedulerSummary {
  bool has_events = false;
  /// sum(busy) / (span * workers), capped at 1, whenever has_events.  A
  /// snapshot of point events only (span 0) reads 1.0, not a division by
  /// zero; 0 only when the events span time but none is a task span.
  double utilization = 0.0;
  std::uint64_t span_us = 0;  // first event start to last event end
  std::uint64_t busy_us = 0;
  /// Lower bound on the critical path: time with <= 1 worker busy.
  std::uint64_t critical_path_us = 0;
  std::uint64_t dropped_events = 0;
  std::vector<WorkerBreakdown> workers;  // sorted by worker id
  /// (grain value bucketed to its power of two, decision count), sorted.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> grain_hist;
};

/// Pure analysis of a snapshot (unit-testable on synthetic events).
[[nodiscard]] SchedulerSummary analyze_sched(const SchedSnapshot& snap);

/// snapshot_sched_events() + analyze_sched: the current rings' summary.
[[nodiscard]] SchedulerSummary scheduler_summary();

/// Re-emits the buffered scheduler events into the Chrome trace as
/// per-worker tracks — "sched/task" spans under pid 1, tid = worker — so
/// the trace viewer
/// shows the runtime's timeline next to the phase spans.  Call after the
/// parallel work joined and BEFORE trace_stop(); no-op when the trace is
/// not collecting.
void export_sched_to_trace();

}  // namespace llpmst::obs

// JSON run report: one stable document combining run metadata, the
// algorithm's MstAlgoStats/HeapStats/LLP instrumentation, every registered
// observability counter/gauge, aggregated phase timings, and warnings.
// This is what `mst_tool --metrics-json` and the bench `--metrics-json`
// flags write; tools/ and CI validate it against the schema described in
// docs/observability.md:
//
//   {
//     "schema": "llpmst-run-report", "schema_version": 4,
//     "run": {"tool":..., "algorithm":..., "threads":N,
//             "graph": {"vertices":N, "edges":M}, "wall_ms":X},
//     "algo": { heap/fix/sweep stats ... } | null,
//     "hw":   null                                    (not requested)
//           | {"available": false, "reason": "..."}   (degraded)
//           | {"available": true, "cycles":N|null, ..., "phases":[...]},
//     "mem":  {"peak_rss_bytes":N, "alloc": {...} | null},
//     "counters": {"llp_prim/heap_inserts": N, ...},
//     "gauges":   {"boruvka/rounds": N, ...},
//     "phases":   [{"name":..., "count":N, "total_ms":X}, ...],
//     "rounds":   [{"label":..., "round":N, "components":N, "edges":N,
//                   "advances":N, "wall_ms":X, "imbalance":X}, ...],
//     "scheduler": null | {"utilization":X, "span_us":N, "busy_us":N,
//                          "critical_path_us":N, "dropped_events":N,
//                          "workers":[{"worker":N, "busy_us":N,
//                                      "tasks":N}, ...],
//                          "grain_hist":[{"grain":N, "count":N}, ...]},
//     "profile": null                                  (not requested)
//              | {"available": false, "reason": "..."} (degraded)
//              | {"available": true, "hz":N, "samples":N, "dropped":N,
//                 "phases":[{"name":..., "samples":N}, ...],
//                 "top_stacks":[{"stack":"a;b;c", "samples":N}, ...]},
//     "warnings": ["..."]
//   }
//
// This is the one accepted shape.  The version stays 4 because consumers
// match the literal head `{"schema":"llpmst-run-report","schema_version":4,
// "run":` and read "algo" straight after "run"; keep that prefix stable.
//
// The report itself is always available — an LLPMST_OBS=0 build emits the
// same document with empty counters/gauges/phases (and the "unavailable"
// hw shape when counters were requested), so downstream parsers never
// branch on the build flavour.
#pragma once

#include <cstddef>
#include <string>

#include "mst/mst_result.hpp"
#include "obs/hw_counters.hpp"
#include "obs/profiler.hpp"

namespace llpmst::obs {

/// Metadata describing the measured run.
struct RunInfo {
  std::string tool;       // emitting binary, e.g. "mst_tool"
  std::string algorithm;  // algorithm label; empty when not applicable
  std::size_t threads = 0;
  std::size_t vertices = 0;
  std::size_t edges = 0;
  double wall_ms = 0.0;
  /// Per-run verdict ("ok", "deadline_exceeded", "injected_fault", ...);
  /// emitted as run.outcome.  Matches run_outcome_name().
  std::string outcome = "ok";
  /// Non-empty when the portfolio fell back to sequential Kruskal; emitted
  /// as run.fallback_reason ("" when no fallback happened).
  std::string fallback_reason;
};

/// Builds the report document.  `algo` may be null (no per-algorithm
/// stats); `hw` may be null (hardware counters not requested — the "hw"
/// section serializes as JSON null); `profile` may be null (profiling not
/// requested — the "profile" section serializes as JSON null).  The "mem"
/// section is always gathered internally via mem_sample().
[[nodiscard]] std::string build_run_report(const RunInfo& info,
                                           const MstAlgoStats* algo,
                                           const HwSample* hw = nullptr,
                                           const ProfSnapshot* profile =
                                               nullptr);

/// Writes `json` to `path`.  Returns false and sets *error on I/O failure.
bool write_run_report(const std::string& path, const std::string& json,
                      std::string* error);

}  // namespace llpmst::obs

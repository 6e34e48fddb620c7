// OpenMetrics / Prometheus text exposition of the observability state:
// registered counters and gauges, aggregated phase timings, the scheduler
// summary, per-solver round counts, and a build-info marker.  This is what
// `mst_tool --stats-out FILE` writes and what a future llpmstd would serve
// on /metrics — the pull-based twin of the JSON run report.
//
// Name mapping (docs/observability.md has the full table):
//   * every family is prefixed "llpmst_"; '/' and any other character
//     outside [a-zA-Z0-9_] in a metric name becomes '_'
//   * obs counters  -> counter families; samples carry the mandatory
//     "_total" suffix (llpmst_boruvka_rounds_total)
//   * obs gauges    -> gauge families, name used as-is after sanitizing
//   * phases        -> llpmst_phase_seconds_total{phase="..."} plus
//                      llpmst_phase_count_total{phase="..."}
//   * scheduler     -> llpmst_sched_utilization_ratio,
//                      llpmst_sched_critical_path_seconds, per-worker busy
//                      seconds keyed by a worker="N" label, and
//                      llpmst_sched_dropped_events_total
//   * rounds        -> llpmst_solver_rounds{site="..."} and
//                      llpmst_solver_round_seconds_total{site="..."}
//   * always        -> llpmst_build_info{obs="0"|"1"} 1 and a final "# EOF"
//
// Sanitization can collide two distinct metric names; the first family
// keeps the name and later collisions are skipped with a warning comment
// in the output (exposing two families with one name is a spec violation).
//
// Both build flavours compile this: under LLPMST_OBS=0 the document
// degrades to build_info + EOF, which still parses — downstream scrapers
// never branch on the flavour.
#pragma once

#include <string>

namespace llpmst::obs {

/// Renders the current observability state as an OpenMetrics text document
/// (always syntactically valid, terminated by "# EOF").
[[nodiscard]] std::string render_openmetrics();

/// The HTTP Content-Type an OpenMetrics response must carry (llpmstd's
/// /stats endpoint) — version-pinned per the exposition format spec.
[[nodiscard]] const char* openmetrics_content_type();

/// Writes render_openmetrics() to `path`.  Returns false and sets *error
/// on I/O failure.
bool write_openmetrics(const std::string& path, std::string* error);

}  // namespace llpmst::obs

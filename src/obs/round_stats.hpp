// Per-round telemetry for the iterative solvers: llp_solve sweeps,
// LLP-Prim super-steps, and Boruvka contraction rounds each record one
// RoundRecord per round, answering "which round was the bottleneck and was
// the work balanced?" — the per-round load-imbalance lens that
// "Engineering Massively Parallel MST Algorithms" (arXiv:2302.12199)
// identifies as the dominant scaling-loss signal.
//
// Recording is cold-path by construction (one mutex-guarded append per
// ROUND, not per element) and double-gated: call sites check
// obs::enabled() before gathering the fields, and record_round() checks it
// again so a stray call while obs is idle stays free.  The store caps at
// kMaxRoundRecords to bound memory on pathological non-converging runs;
// overflow drops the newest records and raises a warning once.
//
// The records fold into the run report's schema-v3 "rounds" array (see
// obs/report.cpp and docs/observability.md) and are compiled out entirely
// under LLPMST_OBS=0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace llpmst::obs {

/// One round of an iterative solver.  Sites fill what they can measure and
/// leave the rest 0 — e.g. llp_solve has no component notion, and
/// imbalance is only known on paths that time per-worker shares.
struct RoundRecord {
  /// Recording site ("llp_boruvka", "llp_prim_parallel", ...).  When left
  /// empty, record_round() substitutes the calling thread's nested phase
  /// path, so generic code (llp_solve) inherits its caller's attribution.
  std::string label;
  std::uint64_t round = 0;       // 1-based round / sweep / super-step index
  std::uint64_t components = 0;  // components (or unfixed vertices) remaining
  std::uint64_t edges = 0;       // edges surviving / frontier size entering
  std::uint64_t advances = 0;    // LLP advances, edges emitted, or early fixes
  double wall_ms = 0.0;          // wall time of this round
  /// max/mean per-worker busy time in the round's dominant sweep;
  /// 1.0 = perfectly balanced, 0.0 = not measured this round.
  double imbalance = 0.0;
};

#if LLPMST_OBS

/// Cap on buffered records: ~100 rounds per algorithm per run in practice;
/// the cap only matters for runaway sweep loops.
inline constexpr std::size_t kMaxRoundRecords = 4096;

/// Appends one record (no-op while obs::enabled() is false; drops and
/// warns once past kMaxRoundRecords).
void record_round(RoundRecord r);

/// All buffered records in recording order.
[[nodiscard]] std::vector<RoundRecord> snapshot_rounds();

/// Records dropped by the cap since the last reset.
[[nodiscard]] std::uint64_t rounds_dropped();

/// Clears the buffer and the drop count.
void reset_rounds();

#else  // !LLPMST_OBS

inline void record_round(const RoundRecord&) {}
[[nodiscard]] inline std::vector<RoundRecord> snapshot_rounds() { return {}; }
[[nodiscard]] inline std::uint64_t rounds_dropped() { return 0; }
inline void reset_rounds() {}

#endif  // LLPMST_OBS

}  // namespace llpmst::obs

// Parallel LLP-Prim ("LLP-Prim" in the paper's Figs. 3-4): the early-fixing
// algorithm with the R set of fixed-but-unexplored vertices drained in
// parallel when it is wide enough to pay for a team wake-up.
//
//   * R is a LIFO worklist.  While its Σ degree stays at or below
//     kLlpPrimTeamArcs, the caller drains it inline like llp_prim, pushing
//     newly early-fixed vertices straight back — no team, no barrier.  On
//     sparse graphs R is a few vertices wide and this is the whole story.
//   * A wider R is swept by the team: fixing a vertex is a CAS claim on its
//     fixed flag; tentative distances are atomic fetch-mins on the packed
//     (priority) word, whose low half *is* the parent edge id; claim
//     winners go into per-worker bags that become the next R.
//   * When R drains, the caller flushes the staged distance improvements
//     into the binary heap and pops the next nearest vertex — the
//     sequential bottleneck the paper acknowledges, which is why LLP-Prim
//     wins at low core counts and plateaus around 8 threads (Fig. 3).
//
// Each inline drain and each team sweep is one llp_sweeps.  With
// observability on, each team sweep also records one RoundRecord whose
// `advances` counts its early fixes; inline drains record none (they have
// no frontier or imbalance to report, and a record per drain would cost an
// allocation and the round store's lock on every super-step).
// The result is the same unique MST for every thread count.
#pragma once

#include <cstddef>

#include "mst/registry.hpp"

namespace llpmst {

class RunContext;

/// Σ degree of the pending R set above which the team sweeps it; at or
/// below it the caller drains R inline.  Chosen from a measured sweep on
/// road and rmat graphs at 4 threads (see CHANGES.md); not a tuning knob.
inline constexpr std::size_t kLlpPrimTeamArcs = 16384;

/// Runs on ctx.executor().  ctx.cancel_token() (when set) is polled once per
/// sweep and every 1024 vertices of an inline drain; a triggered token (or
/// the "llp_prim/handoff" / "llp_prim/drain" failpoints) stops the run
/// early with result.stats.outcome != kOk and a PARTIAL edge set — callers
/// must check the outcome before trusting the forest (mst::auto does, and
/// falls back).
[[nodiscard]] MstResult llp_prim_parallel(const CsrGraph& g, RunContext& ctx,
                                          VertexId root = 0);
/// Registry descriptor (see mst/registry.hpp).
[[nodiscard]] MstAlgorithm llp_prim_parallel_algorithm();

}  // namespace llpmst

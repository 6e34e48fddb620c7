#include "mst/mst_result.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "support/assert.hpp"

namespace llpmst {

void finalize_result(const CsrGraph& g, MstResult& r) {
  // Engines that emit ids in order (llp-prim-parallel) skip the sort; on
  // unsorted output the check stops at the first descent.
  if (!std::is_sorted(r.edges.begin(), r.edges.end())) {
    std::sort(r.edges.begin(), r.edges.end());
  }
  LLPMST_ASSERT(std::adjacent_find(r.edges.begin(), r.edges.end()) ==
                r.edges.end());
  r.total_weight = 0;
  r.weight_overflow = false;
  for (const EdgeId e : r.edges) {
    LLPMST_ASSERT(e < g.num_edges());
    if (!checked_weight_add(r.total_weight, g.edge(e).w)) {
      r.weight_overflow = true;
    }
  }
  if (r.weight_overflow && obs::kCompiledIn) {
    obs::add_warning("mst total_weight overflowed the 64-bit accumulator");
  }
  r.num_trees = g.num_vertices() - r.edges.size();
}

void record_algo_metrics(const char* algo, const MstAlgoStats& s) {
  if (!obs::kCompiledIn) return;
  const std::string p = std::string(algo) + "/";
  const auto add = [&](const char* name, std::uint64_t v) {
    if (v != 0) obs::counter(p + name).add(v);
  };
  add("heap_inserts", s.heap.pushes);
  add("heap_pops", s.heap.pops);
  add("heap_adjusts", s.heap.adjusts);
  add("heap_sift_steps", s.heap.sift_steps);
  add("fixed_via_heap", s.fixed_via_heap);
  add("mwe_early_fix", s.fixed_via_mwe);
  add("staged_in_q", s.staged_in_q);
  add("edges_relaxed", s.edges_relaxed);
  add("rounds", s.rounds);
  add("pointer_jumps", s.pointer_jumps);
  add("sweeps", s.llp_sweeps);
  add("advances", s.llp_advances);
  switch (s.outcome) {
    case RunOutcome::kOk:
      break;
    case RunOutcome::kNonConverged:
      obs::counter(p + "non_convergence").increment();
      obs::add_warning(p + "llp sweep cap hit without convergence");
      break;
    case RunOutcome::kCancelled:
    case RunOutcome::kDeadlineExceeded:
      obs::counter(p + "cancellations").increment();
      obs::add_warning(p + "run stopped: " +
                       run_outcome_name(s.outcome));
      break;
    case RunOutcome::kInjectedFault:
      obs::counter(p + "injected_faults").increment();
      obs::add_warning(p + "run stopped by an injected fault");
      break;
  }
  // Legacy flag path: cap hits recorded before outcome existed.
  if (!s.llp_converged && s.outcome == RunOutcome::kOk) {
    obs::counter(p + "non_convergence").increment();
    obs::add_warning(p + "llp sweep cap hit without convergence");
  }
}

}  // namespace llpmst

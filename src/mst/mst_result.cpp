#include "mst/mst_result.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "support/assert.hpp"

namespace llpmst {

namespace {

/// Puts `ids` in ascending order through an m-bit bitmap over edge ids:
/// O(k + m/64) instead of a sort's O(k log k).  Every id is checked against
/// m before it indexes the bitmap; a repeated id collapses into one bit and
/// fails the debug check.
void order_by_bitmap(std::vector<EdgeId>& ids, std::size_t m) {
  std::vector<std::uint64_t> bits((m + 63) / 64, 0);
  for (const EdgeId e : ids) {
    LLPMST_CHECK(e < m);
    bits[e / 64] |= std::uint64_t{1} << (e % 64);
  }
  std::size_t k = 0;
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
      ids[k++] = static_cast<EdgeId>(w * 64 + std::countr_zero(b));
    }
  }
  LLPMST_ASSERT(k == ids.size());
  ids.resize(k);
}

}  // namespace

void finalize_result(const CsrGraph& g, MstResult& r) {
  const std::size_t m = g.num_edges();
  if (std::is_sorted(r.edges.begin(), r.edges.end())) {
    // Engines that emit ids in order skip the bitmap: the last id is the
    // largest, so one check keeps g.edge() below in bounds.
    LLPMST_CHECK(r.edges.empty() || r.edges.back() < m);
    LLPMST_ASSERT(std::adjacent_find(r.edges.begin(), r.edges.end()) ==
                  r.edges.end());
  } else {
    order_by_bitmap(r.edges, m);
  }
  r.total_weight = 0;
  r.weight_overflow = false;
  for (const EdgeId e : r.edges) {
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

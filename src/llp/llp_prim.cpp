#include "llp/llp_prim.hpp"

#include <vector>

#include "core/run_context.hpp"
#include "ds/binary_heap.hpp"
#include "obs/hw_counters.hpp"
#include "obs/phase_timer.hpp"
#include "support/assert.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"

namespace llpmst {

MstResult llp_prim(const CsrGraph& g, VertexId root,
                   const LlpPrimOptions& options, const CancelToken* cancel) {
  const std::size_t n = g.num_vertices();
  LLPMST_CHECK_MSG(n >= 1, "LLP-Prim requires a non-empty graph");
  LLPMST_CHECK(root < n);

  obs::PhaseTimer algo_span("llp_prim");
  obs::ScopedHwCounters hw_scope("llp_prim");
  MstResult r;
  std::vector<EdgePriority> dist(n, kInfinitePriority);
  std::vector<EdgeId> parent_edge(n, kInvalidEdge);
  std::vector<std::uint8_t> fixed(n, 0);
  std::vector<std::uint8_t> in_q(n, 0);

  BinaryHeap<EdgePriority> heap(n);
  std::vector<VertexId> bag_r;   // the unordered R set
  std::vector<VertexId> q;       // staged insertOrAdjust targets

  std::size_t num_fixed = 1;
  std::size_t next_root = 0;  // forest-restart scan cursor
  std::uint64_t pops = 0;     // R pops so far
  // One R drain can fix most of a graph without returning to the
  // per-super-step checkpoint, so it also polls every kCancelPollPops pops.
  constexpr std::uint64_t kCancelPollPops = 1024;
  // Cancellation poll.  Every fixed vertex's parent edge is a forest edge,
  // so stopping leaves a partial forest — incomplete, never wrong.
  const auto cancelled = [&] {
    if (cancel == nullptr || !cancel->cancelled()) return false;
    r.stats.outcome = cancel->reason();
    return true;
  };
  fixed[root] = 1;
  ++r.stats.fixed_via_heap;  // the root counts as the initial heap seed
  bag_r.push_back(root);

  {
    // One lap per super-step phase (Algorithm 5): drain R, flush Q, pop.
    enum : std::size_t { kRelax, kHeapFlush, kHeapPop };
    obs::PhaseLaps laps({"relax", "heap_flush", "heap_pop"});
    for (;;) {
      // "This algorithm can be terminated as soon as n-1 edges have been
      // chosen" (Section V-A) — once everything is fixed, the remaining R
      // members' arcs lead only to fixed vertices and the heap holds only
      // stale entries.
      if (num_fixed == n || cancelled()) break;

      // Drain R: vertices here are already fixed; explore their edges.  Order
      // within R is irrelevant (the LLP property) — we pop LIFO.  Each drain
      // is one worklist sweep in the Algorithm 1 sense.
      if (!bag_r.empty()) ++r.stats.llp_sweeps;
      laps.enter(kRelax);
      while (!bag_r.empty() && num_fixed < n) {
        if (++pops % kCancelPollPops == 0) {
          // Chaos hook beside the poll, shared with llp_prim_parallel, so a
          // test can stop the run in the middle of one long drain.
          if (LLPMST_FAILPOINT("llp_prim/drain") != fail::Action::kNone) {
            r.stats.outcome = RunOutcome::kInjectedFault;
            break;
          }
          if (cancelled()) break;
        }
        const VertexId j = bag_r.back();
        bag_r.pop_back();

        const auto nbrs = g.neighbors(j);
        const auto prios = g.arc_priorities(j);
        const auto mwe_flags = g.arc_mwe_flags(j);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const VertexId k = nbrs[i];
          if (fixed[k]) continue;
          ++r.stats.edges_relaxed;
          const EdgePriority p = prios[i];

          // Early fixing: (j, k) is the MWE of j or of k -> it is an MST edge
          // and j is fixed, so k's parent is j (see Section V-A).  The flag is
          // precomputed per arc so this is a sequential-stream read.
          if (options.mwe_fixing && mwe_flags[i]) {
            fixed[k] = 1;
            ++num_fixed;
            ++r.stats.fixed_via_mwe;
            parent_edge[k] = priority_edge(p);
            bag_r.push_back(k);
            continue;
          }

          if (p < dist[k]) {
            dist[k] = p;
            parent_edge[k] = priority_edge(p);
            if (options.q_staging) {
              if (!in_q[k]) {
                in_q[k] = 1;
                q.push_back(k);
              }
            } else {
              heap.insert_or_adjust(k, p);
            }
          }
        }
      }

      // Everything fixed during the drain: skip the flush and the stale heap
      // pops entirely (keeps the heap-op counters meaningful).
      if (num_fixed == n || r.stats.outcome != RunOutcome::kOk) break;

      // R drained: flush the staged heap updates.  Vertices fixed for free in
      // the meantime never touch the heap — that is the optimization.
      laps.enter(kHeapFlush);
      for (const VertexId k : q) {
        in_q[k] = 0;
        if (!fixed[k]) {
          heap.insert_or_adjust(k, dist[k]);
          ++r.stats.staged_in_q;
        }
      }
      q.clear();

      // Fall back to the heap for the next nearest non-fixed vertex.
      laps.enter(kHeapPop);
      bool advanced = false;
      while (!heap.empty()) {
        const auto [j, key] = heap.pop();
        (void)key;
        if (fixed[j]) continue;  // fixed via R while resident: skip (stale)
        fixed[j] = 1;
        ++num_fixed;
        ++r.stats.fixed_via_heap;
        bag_r.push_back(j);
        advanced = true;
        break;
      }

      // Forest extension: component exhausted but vertices remain — start a
      // new tree from the next unfixed vertex (it becomes that tree's root
      // and contributes no edge).
      if (!advanced && options.allow_forest && num_fixed < n) {
        while (next_root < n && fixed[next_root]) ++next_root;
        if (next_root < n) {
          fixed[next_root] = 1;
          ++num_fixed;
          ++r.stats.fixed_via_heap;
          bag_r.push_back(static_cast<VertexId>(next_root));
          advanced = true;
        }
      }
      if (!advanced) break;
    }
  }

  // A stopped run legitimately leaves vertices unfixed.
  LLPMST_CHECK_MSG(r.stats.outcome != RunOutcome::kOk || num_fixed == n,
                   "LLP-Prim requires a connected graph; use llp_prim_msf "
                   "or LLP-Boruvka for forests");
  // Emit the parent edge of every fixed vertex; tree roots have none.  An
  // unfixed vertex's parent edge is only tentative, so a partial run skips
  // it.  finalize_result puts the ids in order.
  r.edges.reserve(num_fixed);
  for (VertexId v = 0; v < n; ++v) {
    if (fixed[v] && parent_edge[v] != kInvalidEdge) {
      r.edges.push_back(parent_edge[v]);
    }
  }
  r.stats.heap = heap.stats();
  record_algo_metrics("llp_prim", r.stats);
  finalize_result(g, r);
  return r;
}

MstResult llp_prim_msf(const CsrGraph& g, const CancelToken* cancel) {
  if (g.num_vertices() == 0) return {};  // empty graph: the empty forest
  LlpPrimOptions options;
  options.allow_forest = true;
  return llp_prim(g, 0, options, cancel);
}

MstResult llp_prim_msf(const CsrGraph& g, RunContext& ctx) {
  return llp_prim_msf(g, ctx.cancel_token());
}

MstAlgorithm llp_prim_algorithm() {
  return {"llp-prim", "LLP-Prim (1T)",
          "Prim with early fixing + staged heap inserts (Algorithm 5)",
          {.parallel = false, .msf_capable = true, .deterministic = true,
           .cancellable = true},
          [](const CsrGraph& g, RunContext& ctx) {
            return llp_prim_msf(g, ctx);
          }};
}

}  // namespace llpmst

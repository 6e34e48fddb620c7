#include "llp/llp_prim_parallel.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <utility>
#include <vector>

#include "core/run_context.hpp"
#include "ds/binary_heap.hpp"
#include "obs/hw_counters.hpp"
#include "obs/phase_timer.hpp"
#include "obs/round_stats.hpp"
#include "parallel/atomic_utils.hpp"
#include "parallel/concurrent_bag.hpp"
#include "parallel/parallel_for.hpp"
#include "support/assert.hpp"
#include "support/failpoint.hpp"

namespace llpmst {

MstResult llp_prim_parallel(const CsrGraph& g, RunContext& ctx,
                            VertexId root) {
  Executor& pool = ctx.executor();
  const CancelToken* cancel = ctx.cancel_token();
  const std::size_t n = g.num_vertices();
  LLPMST_CHECK_MSG(n >= 1, "LLP-Prim requires a non-empty graph");
  LLPMST_CHECK(root < n);

  obs::PhaseTimer algo_span("llp_prim_parallel");
  obs::ScopedHwCounters hw_scope("llp_prim_parallel");
  MstResult r;
  // dist[k] packs the tentative priority; its low 32 bits are the edge id,
  // so the parent edge rides along with every fetch-min for free.
  std::vector<std::atomic<EdgePriority>> dist(n);
  std::vector<std::atomic<std::uint8_t>> fixed(n);
  // chosen_edge[k] is written once, by the thread whose claim CAS on
  // fixed[k] succeeded (or by the heap pop that fixed k); it is read only
  // when the run ends.
  std::vector<EdgeId> chosen_edge(n, kInvalidEdge);
  parallel_for(pool, 0, n, [&](std::size_t v) {
    dist[v].store(kInfinitePriority, std::memory_order_relaxed);
    fixed[v].store(0, std::memory_order_relaxed);
  });

  const std::size_t workers = pool.num_threads();
  ConcurrentBag<VertexId> bag_r(workers);  // fixed by a team sweep
  ConcurrentBag<VertexId> bag_q(workers);  // staged heap candidates
  std::vector<VertexId> frontier;          // R: fixed, arcs not yet explored
  std::vector<VertexId> staged;            // bag_q drained at a heap flush
  BinaryHeap<EdgePriority> heap(n);

  std::atomic<std::uint64_t> team_relaxed{0};
  std::size_t num_fixed = 1;
  std::size_t pending_arcs = g.degree(root);  // Σ degree over the frontier
  std::uint64_t pops = 0;                     // inline-drain pops so far
  // One inline drain can fix most of a graph without returning to the
  // per-sweep checkpoint, so it also polls every kCancelPollPops pops.
  constexpr std::uint64_t kCancelPollPops = 1024;
  const auto narrow = [&] {
    return workers == 1 || pending_arcs <= kLlpPrimTeamArcs;
  };
  // Cancellation poll.  A partial forest is still a forest (every recorded
  // edge was individually claimed), so stopping is always safe — just
  // incomplete.
  const auto cancelled = [&] {
    if (cancel == nullptr || !cancel->cancelled()) return false;
    r.stats.outcome = cancel->reason();
    return true;
  };

  fixed[root].store(1, std::memory_order_relaxed);
  ++r.stats.fixed_via_heap;
  frontier.push_back(root);

  // Explores the arcs of fixed vertex j: early-fixes across MWEs (claim
  // CAS; the winner records the tree edge and hands k to `fix`) and lowers
  // tentative distances (fetch-min on the packed word updates distance AND
  // parent at once; improved vertices go to `stage` for the deferred heap
  // flush, which deduplicates via the idempotent insert_or_adjust).
  // Returns the number of arcs to unfixed vertices.
  const auto relax = [&](VertexId j, auto&& fix, auto&& stage) {
    const auto nbrs = g.neighbors(j);
    const auto prios = g.arc_priorities(j);
    const auto mwe_flags = g.arc_mwe_flags(j);
    std::uint64_t relaxed = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId k = nbrs[i];
      if (fixed[k].load(std::memory_order_relaxed)) continue;
      ++relaxed;
      const EdgePriority p = prios[i];
      if (mwe_flags[i]) {
        if (atomic_claim(fixed[k])) {
          chosen_edge[k] = priority_edge(p);
          fix(k);
        }
        continue;
      }
      if (atomic_fetch_min(dist[k], p)) stage(k);
    }
    return relaxed;
  };

  {
    // One lap per super-step phase (Algorithm 5): drain R, flush Q, pop.
    enum : std::size_t { kRelax, kHeapFlush, kHeapPop };
    obs::PhaseLaps laps({"relax", "heap_flush", "heap_pop"});
    for (;;) {
      // --- Drain R.  Every frontier vertex is already fixed.  Each pass is
      // one worklist sweep in the Algorithm 1 sense (stats.llp_sweeps).
      while (!frontier.empty() && num_fixed < n) {
        if (cancelled()) break;  // once per sweep
        laps.enter(kRelax);
        ++r.stats.llp_sweeps;
        const bool rounds_on = obs::kCompiledIn && obs::enabled();
        const std::uint64_t step_t0 = rounds_on ? obs::now_us() : 0;
        const std::size_t frontier_in = frontier.size();
        const std::size_t fixed_in = num_fixed;

        if (narrow()) {
          // Narrow R: the caller drains it LIFO, as llp_prim does.  Vertices
          // it early-fixes go straight back onto the worklist — no team, no
          // barrier — until R grows wide enough to hand to the team.
          while (!frontier.empty() && num_fixed < n && narrow()) {
            if (++pops % kCancelPollPops == 0) {
              // Chaos hook beside the poll, so a scripted timeline can cancel
              // (or fail) the run in the middle of one long drain.
              if (LLPMST_FAILPOINT("llp_prim/drain") != fail::Action::kNone) {
                r.stats.outcome = RunOutcome::kInjectedFault;
                break;
              }
              if (cancelled()) break;
            }
            const VertexId j = frontier.back();
            frontier.pop_back();
            pending_arcs -= g.degree(j);
            r.stats.edges_relaxed += relax(
                j,
                [&](VertexId k) {
                  ++num_fixed;
                  frontier.push_back(k);
                  pending_arcs += g.degree(k);
                },
                [&](VertexId k) { bag_q.push(0, k); });
          }
        } else {
          // Wide R: one team sweep over the whole worklist; claim winners
          // land in per-worker bags and form the next frontier.
          parallel_for_worker(
              pool, 0, frontier.size(),
              [&](std::size_t idx, std::size_t w) {
                const std::uint64_t relaxed = relax(
                    frontier[idx], [&](VertexId k) { bag_r.push(w, k); },
                    [&](VertexId k) { bag_q.push(w, k); });
                if (relaxed != 0) {
                  team_relaxed.fetch_add(relaxed, std::memory_order_relaxed);
                }
              },
              std::clamp<std::size_t>(frontier.size() / (4 * workers), 1, 256));
          frontier.clear();
          bag_r.drain_into(frontier);
          num_fixed += frontier.size();
          pending_arcs = 0;
          for (const VertexId k : frontier) pending_arcs += g.degree(k);
        }
        r.stats.fixed_via_mwe += num_fixed - fixed_in;

        if (rounds_on) {
          obs::RoundRecord round;
          round.label = "llp_prim_parallel";
          round.round = r.stats.llp_sweeps;
          round.components = n - num_fixed;     // unfixed vertices remaining
          round.edges = frontier_in;            // frontier entering the sweep
          round.advances = num_fixed - fixed_in;  // newly fixed via MWE
          round.wall_ms = static_cast<double>(obs::now_us() - step_t0) * 1e-3;
          obs::record_round(std::move(round));
        }
        if (r.stats.outcome != RunOutcome::kOk) break;
      }
      // Section V-A early termination: all vertices fixed -> done, without
      // the flush or the stale heap pops.
      if (num_fixed == n || r.stats.outcome != RunOutcome::kOk) break;

      // --- R drained: flush staged vertices into the heap (sequential — the
      // paper's acknowledged bottleneck), then pop the next nearest vertex.
      // Chaos hook at the bag→heap handoff: the single-threaded window where
      // a sleep/yield maximally skews the parallel/sequential interleaving,
      // and where an injected failure models the handoff going wrong.
      if (LLPMST_FAILPOINT("llp_prim/handoff") != fail::Action::kNone) {
        r.stats.outcome = RunOutcome::kInjectedFault;
        break;
      }
      laps.enter(kHeapFlush);
      staged.clear();
      bag_q.drain_into(staged);
      for (const VertexId k : staged) {
        if (fixed[k].load(std::memory_order_relaxed)) continue;
        heap.insert_or_adjust(k, dist[k].load(std::memory_order_relaxed));
        ++r.stats.staged_in_q;
      }

      laps.enter(kHeapPop);
      bool advanced = false;
      while (!heap.empty()) {
        const auto [j, key] = heap.pop();
        (void)key;
        if (fixed[j].load(std::memory_order_relaxed)) continue;  // stale
        fixed[j].store(1, std::memory_order_relaxed);
        ++num_fixed;
        ++r.stats.fixed_via_heap;
        chosen_edge[j] =
            priority_edge(dist[j].load(std::memory_order_relaxed));
        frontier.push_back(j);
        pending_arcs += g.degree(j);
        advanced = true;
        break;
      }
      if (!advanced) break;
    }
  }

  // On a clean run all vertices must have been fixed; an aborted run
  // (cancellation / injected fault) legitimately leaves some unfixed.
  LLPMST_CHECK_MSG(r.stats.outcome != RunOutcome::kOk || num_fixed == n,
                   "LLP-Prim requires a connected graph; use LLP-Boruvka "
                   "for forests");
  // Emit the tree edges of every fixed vertex (a partial forest when the
  // run stopped early) in id order via a bitmap over edge ids: O(n + m/64)
  // instead of sorting n ids, and finalize_result then skips its sort.
  std::vector<std::uint64_t> tree_bits((g.num_edges() + 63) / 64, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (v == root || !fixed[v].load(std::memory_order_relaxed)) continue;
    const EdgeId e = chosen_edge[v];
    tree_bits[e / 64] |= std::uint64_t{1} << (e % 64);
  }
  r.edges.reserve(num_fixed - 1);
  for (std::size_t w = 0; w < tree_bits.size(); ++w) {
    for (std::uint64_t bits = tree_bits[w]; bits != 0; bits &= bits - 1) {
      r.edges.push_back(static_cast<EdgeId>(w * 64 + std::countr_zero(bits)));
    }
  }
  r.stats.edges_relaxed += team_relaxed.load(std::memory_order_relaxed);
  r.stats.heap = heap.stats();
  record_algo_metrics("llp_prim_parallel", r.stats);
  finalize_result(g, r);
  return r;
}

MstAlgorithm llp_prim_parallel_algorithm() {
  return {"llp-prim-parallel", "LLP-Prim",
          "early-fixing Prim, narrow R drained inline, wide R by the team",
          {.parallel = true, .msf_capable = false, .deterministic = true,
           .cancellable = true},
          [](const CsrGraph& g, RunContext& ctx) {
            return llp_prim_parallel(g, ctx);
          }};
}

}  // namespace llpmst

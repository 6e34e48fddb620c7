// Shared round engine for the two parallel Boruvka variants.
//
// Both the GBBS-style baseline (mst/parallel_boruvka.hpp) and LLP-Boruvka
// (llp/llp_boruvka.hpp, the paper's Algorithm 6) perform the same rounds:
//
//   1. per-component minimum-weight-edge (MWE) selection — round 0 reads the
//      CSR's precomputed per-vertex minima; later rounds fuse the atomic min
//      into the previous round's contraction pass, so each round only runs a
//      cheap read-only "extract" sweep that recovers the partner component
//      of every winning edge;
//   2. hook — each component chooses its parent across its MWE, breaking the
//      2-cycle of a mutually-chosen edge by component id (Algorithm 6's
//      "break symmetry with w" initialization) and emitting the edge into
//      the MSF;
//   3. pointer jumping until every component is a rooted star — THIS is
//      where the two algorithms differ (see PointerJumping below);
//   4. contraction — relabel surviving edges into a *dense* component id
//      space [0, k), drop self-loops (and optionally bundle-heavy parallel
//      edges, see dedup_contracted_edges) in the same pass, and compute the
//      next round's per-component minima while the edge data is in cache.
//
// Cache design: after round 0 the engine leaves the original vertex-id space
// entirely — every per-component array (parent, best, partner) is sized to
// the current number of live components, which at least halves per round, so
// later rounds touch geometrically shrinking flat arrays instead of O(n)
// memory.  All round-local buffers live in a BoruvkaScratch that is reused
// across rounds (and, optionally, across runs): steady-state rounds perform
// no heap allocation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mst/mst_result.hpp"
#include "parallel/parallel_for.hpp"

namespace llpmst {

class RunContext;

/// How step 3 runs.
enum class PointerJumping {
  /// Bulk-synchronous: repeat { next[v] = parent[parent[v]] } with a barrier
  /// between jump rounds until a fixpoint — the conventional parallel
  /// formulation the baseline uses.
  kSynchronized,
  /// Chaotic/asynchronous: one parallel pass in which every vertex chases
  /// its chain to the root with relaxed atomics and writes the root back
  /// into EVERY node it visited (full path compression) — the paper's LLP
  /// formulation (`forbidden(j) = G[j] != G[G[j]]`,
  /// `advance(j) = G[j] := G[G[j]]`) "evaluated in parallel and without
  /// synchronization".
  kAsynchronous,
};

/// Per-round telemetry handed to BoruvkaConfig::round_observer (tests use
/// this to assert the contraction invariants round by round).
struct BoruvkaRoundStats {
  std::uint64_t round = 0;          // 1-based
  std::size_t components = 0;       // live components entering the round
  std::size_t active_edges = 0;     // edge-list length entering the round
  std::size_t msf_edges_emitted = 0;
  std::size_t self_loops_dropped = 0;    // intra-component edges contracted
  std::size_t bundle_edges_dropped = 0;  // heavier parallel edges filtered
  std::size_t components_after = 0;      // live components after contraction
  std::size_t edges_after = 0;
  /// Original edge ids dropped this round, populated only when
  /// BoruvkaConfig::collect_dropped_edges is set (testing hook; costs a
  /// gather pass).  Self-loop and bundle drops combined.
  const std::vector<EdgeId>* dropped_edge_ids = nullptr;
};

/// An edge of the contracted multigraph: endpoints are CURRENT dense
/// component ids; prio carries the original (weight, edge id) packing, so
/// the chosen MSF edge is always recoverable regardless of how many
/// contractions happened.
struct BoruvkaActiveEdge {
  VertexId u;
  VertexId v;
  EdgePriority prio;
};

/// All round-local buffers, owned by the caller so repeated runs (benchmark
/// repetitions, service request loops) reuse capacity instead of
/// reallocating.  A default-constructed scratch works for any graph/pool;
/// the engine grows each vector on first use and never shrinks capacity.
/// Not thread-safe: one run at a time per scratch.
struct BoruvkaScratch {
  std::vector<VertexId> parent;        // component parent links (atomic_ref)
  std::vector<EdgePriority> best;      // per-component MWE (atomic_ref)
  std::vector<VertexId> partner;       // partner component across the MWE
  std::vector<VertexId> dense;         // live marks, then scanned dense ids
  std::vector<BoruvkaActiveEdge> edges;       // current round's edge list
  std::vector<BoruvkaActiveEdge> next_edges;  // contraction output
  std::vector<VertexId> jump_buf;      // synchronized jumping double buffer
  std::vector<EdgeId> msf_edges;       // emitted MSF edges (atomic cursor)
  std::vector<std::size_t> chunk_count;   // per-chunk survivor counts
  std::vector<std::uint64_t> worker_ns;   // per-worker sweep times (skew)
  std::vector<std::uint64_t> filter_key;  // bundle-min hash: packed (u,v)
  std::vector<EdgePriority> filter_min;   // bundle-min hash: lightest prio
  std::vector<EdgeId> dropped;            // collect_dropped_edges gather
  GrainFeedback extract_grain;  // MWE extract sweep (reads, rare writes)
  GrainFeedback contract_grain;  // contraction sweeps (relabel + filter)
  GrainFeedback hook_grain;      // per-component hook sweep
  GrainFeedback jump_grain;      // asynchronous pointer-jumping sweep
};

struct BoruvkaConfig {
  PointerJumping jumping = PointerJumping::kAsynchronous;
  /// Drop all but the lightest parallel edge between each pair of components
  /// during contraction (the cycle property makes the heavier ones provably
  /// non-MSF).  Implemented as a sort-free hash bundle-min fused into the
  /// contraction sweeps: best effort under collisions — a kept duplicate is
  /// only a longer edge list, never a wrong forest.  The baseline engine
  /// enables it; LLP-Boruvka skips it, trading a longer edge list for one
  /// less sweep per round.
  bool dedup_contracted_edges = false;
  /// Prefix for observability metrics/phases ("<obs_label>/round/hook", ...)
  /// so the two engine clients stay distinguishable in reports.  Must be a
  /// string literal (borrowed, not owned).
  const char* obs_label = "boruvka";
  /// Optional caller-owned scratch, reused across runs.  nullptr = the
  /// engine uses an internal scratch for the run (still reused across
  /// rounds, so per-round allocation stays zero either way).  The named
  /// entry points (parallel_boruvka, llp_boruvka) pass the RunContext's
  /// arena scratch; the engine itself deliberately does NOT default to it,
  /// so the ablation's fresh-vs-reused scratch axis stays measurable.
  BoruvkaScratch* scratch = nullptr;
  /// Called after every round's contraction with that round's stats.
  std::function<void(const BoruvkaRoundStats&)> round_observer;
  /// Populate BoruvkaRoundStats::dropped_edge_ids (testing; extra pass).
  bool collect_dropped_edges = false;
};

/// Runs Boruvka rounds until no edges remain; returns the unique MSF.
/// Sweeps run on ctx.executor().  ctx.cancel_token() is polled once per
/// round (rounds shrink the edge list geometrically, so this is O(log n)
/// polls total); a triggered token — or the "boruvka/contract" failpoint —
/// stops the run with stats.outcome != kOk and the PARTIAL forest built so
/// far.
[[nodiscard]] MstResult boruvka_engine(const CsrGraph& g, RunContext& ctx,
                                       const BoruvkaConfig& config);

}  // namespace llpmst

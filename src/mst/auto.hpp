// Portfolio entry point: pick the MST/MSF algorithm the paper's conclusions
// recommend for the given graph and thread budget.
//
// Section VII/VIII's findings, operationalized as a preference order over
// the registry (mst/registry.hpp), capability-filtered per input:
//   * 1 thread, any graph -> LLP-Prim (1T) — fastest sequential (Fig. 2);
//     it restarts from a fresh root per tree, so forests are fine;
//   * 2+ threads and a sparse graph (m < 4n; road networks sit near 2n)
//                         -> LLP-Boruvka (Fig. 3/4: the Boruvka family wins
//     on sparse graphs), chosen before any connectivity census;
//   * few threads (< the crossover the paper places around 8) and a dense
//     connected graph     -> parallel LLP-Prim (Fig. 4, graph500 at low
//     core counts);
//   * many threads, or a dense disconnected graph at 2+ threads (parallel
//     LLP-Prim has no forest restarts)
//                         -> LLP-Boruvka (Fig. 3 right / Fig. 4).
//
// The crossover is a tunable with the paper's observed default; the sparse
// cut is fixed (measured in EXPERIMENTS.md).  Deadline and external
// cancellation come from the RunContext (set_deadline_ms / set_cancel);
// connectivity is taken from the context's cache unless the caller passes a
// hint.
#pragma once

#include <string>

#include "mst/registry.hpp"

namespace llpmst {

class RunContext;

/// Edges per vertex below which a graph is sparse (m < 4n): from two
/// threads up such a graph goes to LLP-Boruvka, connected or not, with no
/// connectivity census.  Measured in EXPERIMENTS.md ("auto's sparse cut").
inline constexpr std::size_t kSparseEdgesPerVertex = 4;

/// Caller knowledge about the input's connectivity (kUnknown triggers a
/// cached union-find check through RunContext::connected() for a dense graph
/// at 2+ threads; one thread, or a sparse graph, picks the same engine
/// either way and skips it).
enum class Connectivity { kUnknown, kConnected, kDisconnected };

struct AutoMstOptions {
  /// Thread count at which the Boruvka family starts winning (Fig. 3's ~8).
  std::size_t boruvka_crossover = 8;
  /// Connectivity hint; kUnknown = consult the RunContext's cache.
  Connectivity connectivity = Connectivity::kUnknown;
  /// When the chosen parallel algorithm fails (deadline, injected fault,
  /// thrown exception, non-convergence), rerun with sequential Kruskal —
  /// slower but dependable — instead of returning the partial result.
  bool fallback_to_sequential = true;
};

struct AutoMstResult {
  MstResult result;
  /// Canonical registry name of the algorithm that produced `result`
  /// ("llp-prim", "llp-boruvka", ..., "kruskal" after a fallback, or
  /// "trivial" for the empty graph).
  std::string algorithm;
  /// True when the chosen parallel algorithm failed and sequential Kruskal
  /// produced the result instead; `fallback_reason` says why (e.g.
  /// "deadline_exceeded", "injected_fault", "exception: ...").
  bool fell_back = false;
  std::string fallback_reason;
};

/// Computes the MSF with the recommended algorithm.  Deadline and external
/// cancellation are read from `ctx`; a user cancel is honoured as a cancel
/// (partial result, no fallback).
[[nodiscard]] AutoMstResult minimum_spanning_forest(
    const CsrGraph& g, RunContext& ctx, const AutoMstOptions& options = {});

}  // namespace llpmst

#include "mst/auto.hpp"

#include <exception>
#include <string>

#include "core/run_context.hpp"
#include "mst/kruskal.hpp"
#include "mst/registry.hpp"
#include "obs/metrics.hpp"
#include "support/failpoint.hpp"

namespace llpmst {

namespace {

/// Runs the chosen parallel algorithm, converting every failure mode —
/// structured outcome, injected FailpointError, bad_alloc, any other
/// exception — into a (ok, reason) verdict the portfolio can act on.
template <typename Run>
bool run_guarded(Run&& run, MstResult& result, std::string& reason) {
  try {
    result = run();
  } catch (const fail::FailpointError& e) {
    reason = std::string("exception: ") + e.what();
    return false;
  } catch (const std::bad_alloc&) {
    reason = "exception: out of memory";
    return false;
  } catch (const std::exception& e) {
    reason = std::string("exception: ") + e.what();
    return false;
  }
  if (result.stats.outcome != RunOutcome::kOk) {
    reason = run_outcome_name(result.stats.outcome);
    return false;
  }
  if (!result.stats.llp_converged) {
    reason = "non_converged";
    return false;
  }
  return true;
}

/// The paper's preference order for the given shape, resolved against the
/// registry and filtered by capability: a disconnected input discards every
/// entry that cannot produce a forest.  One thread picks LLP-Prim on every
/// shape (it restarts per tree, so forests are fine).  Falls back to the
/// Kruskal oracle if (in some trimmed build) no preferred entry is
/// registered.
const MstAlgorithm& select_algorithm(bool sparse, bool connected,
                                     std::size_t threads,
                                     const AutoMstOptions& options) {
  const char* preferred[3] = {nullptr, nullptr, nullptr};
  if (threads == 1) {
    preferred[0] = "llp-prim";
  } else if (sparse || !connected || threads >= options.boruvka_crossover) {
    preferred[0] = "llp-boruvka";
    preferred[1] = "parallel-boruvka";
  } else {
    preferred[0] = "llp-prim-parallel";
    preferred[1] = "llp-boruvka";
  }
  for (const char* name : preferred) {
    if (name == nullptr) continue;
    const MstAlgorithm* a = find_mst_algorithm(name);
    if (a == nullptr) continue;
    if (!connected && !a->caps.msf_capable) continue;
    return *a;
  }
  return mst_algorithm("kruskal");
}

}  // namespace

AutoMstResult minimum_spanning_forest(const CsrGraph& g, RunContext& ctx,
                                      const AutoMstOptions& options) {
  AutoMstResult out;
  if (g.num_vertices() == 0) {
    out.algorithm = "trivial";
    return out;
  }

  const std::size_t threads = ctx.threads();
  const bool sparse =
      g.num_edges() < kSparseEdgesPerVertex * g.num_vertices();
  bool connected = false;
  switch (options.connectivity) {
    case Connectivity::kConnected:
      connected = true;
      break;
    case Connectivity::kDisconnected:
      connected = false;
      break;
    case Connectivity::kUnknown:
      // One thread picks llp-prim on every shape and 2+ threads pick
      // llp-boruvka on every sparse graph, so only dense graphs at 2+
      // threads pay for the census.  Cached per (context, graph):
      // downstream verification through the same context reuses the answer
      // instead of recomputing components.
      connected = threads > 1 && !sparse && ctx.connected(g);
      break;
  }

  const MstAlgorithm& algo =
      select_algorithm(sparse, connected, threads, options);
  out.algorithm = algo.name;
  std::string reason;
  bool ok =
      run_guarded([&] { return algo.run(g, ctx); }, out.result, reason);

  if (!ok) {
    // A cancel requested by the CALLER is an instruction to stop, not a
    // failure to route around — honour it and return the partial result.
    if (options.fallback_to_sequential && !ctx.user_cancelled()) {
      if (obs::kCompiledIn) {
        obs::counter("auto/fallbacks").increment();
        obs::add_warning("auto: " + out.algorithm + " failed (" + reason +
                         "); falling back to sequential kruskal");
      }
      out.fell_back = true;
      out.fallback_reason = reason;
      out.algorithm = "kruskal";
      // The fallback must complete even when the run's DEADLINE already
      // expired (that expiry is why we are here), so it polls only the
      // caller's own token: a user cancel arriving mid-fallback still
      // stops the scan.
      out.result = kruskal_cancellable(g, ctx.external_cancel());
    } else {
      // No fallback: surface the partial result; the caller inspects
      // result.stats.outcome / fallback_reason.
      out.fallback_reason = reason;
    }
  }
  return out;
}

}  // namespace llpmst

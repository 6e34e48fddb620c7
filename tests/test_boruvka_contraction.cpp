// Round-by-round invariants of the Boruvka engine's fused contraction path
// (self-loop drop + bundle-min filter + dense relabeling in one sweep), the
// hook's chunked MSF-edge emission, plus a wide randomized cross-check
// against kruskal.
//
// The checks lean on two facts the engine must preserve:
//   * an MSF edge is emitted in the SAME round its endpoints merge, becomes
//     a self-loop in that round's contraction, and is dropped there — so the
//     reference-MSF edges among a round's drops must number exactly that
//     round's emissions (a drop of a not-yet-emitted MSF edge — e.g. a
//     bundle filter removing a bundle minimum — breaks this immediately);
//   * every input edge is dropped exactly once across the whole run (it
//     either survives a contraction into the next round's list or is
//     dropped; the run ends with an empty list).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "graph/generators/random_graph.hpp"
#include "graph/generators/special.hpp"
#include "mst/boruvka_engine.hpp"
#include "mst/kruskal.hpp"
#include "sim/sim_executor.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using test::csr;

struct RoundLog {
  std::vector<BoruvkaRoundStats> rounds;        // dropped_edge_ids nulled
  std::vector<std::vector<EdgeId>> dropped;     // per-round copies
};

MstResult run_logged(const CsrGraph& g, RunContext& ctx, BoruvkaConfig c,
                     RoundLog& log) {
  c.collect_dropped_edges = true;
  c.round_observer = [&log](const BoruvkaRoundStats& info) {
    log.rounds.push_back(info);
    log.rounds.back().dropped_edge_ids = nullptr;  // points into scratch
    ASSERT_NE(info.dropped_edge_ids, nullptr);
    log.dropped.push_back(*info.dropped_edge_ids);
  };
  return boruvka_engine(g, ctx, c);
}

/// Asserts every per-round invariant plus the whole-run drop accounting.
void check_rounds(const CsrGraph& g, const MstResult& reference,
                  const RoundLog& log, bool dedup) {
  const std::set<EdgeId> msf(reference.edges.begin(), reference.edges.end());
  std::set<EdgeId> dropped_union;
  std::size_t dropped_total = 0;

  ASSERT_EQ(log.rounds.size(), log.dropped.size());
  std::size_t prev_components = g.num_vertices() + 1;
  for (std::size_t i = 0; i < log.rounds.size(); ++i) {
    const BoruvkaRoundStats& r = log.rounds[i];
    SCOPED_TRACE(testing::Message() << "round " << r.round);

    // Exact edge bookkeeping: everything entering a round either survives
    // into the next list or is counted in one of the two drop buckets.
    EXPECT_EQ(r.edges_after, r.active_edges - r.self_loops_dropped -
                                 r.bundle_edges_dropped);
    EXPECT_EQ(log.dropped[i].size(),
              r.self_loops_dropped + r.bundle_edges_dropped);
    if (!dedup) {
      EXPECT_EQ(r.bundle_edges_dropped, 0u);
    }

    // Progress: a round with edges emits at least one MSF edge, which then
    // contracts to a self-loop — the edge list strictly shrinks.
    ASSERT_GT(r.active_edges, 0u);
    EXPECT_GE(r.msf_edges_emitted, 1u);
    EXPECT_LT(r.edges_after, r.active_edges);

    // Components monotonically decrease; each emission merges two (fully
    // spanned components vanish from the count entirely, hence <=).  From
    // round 2 on every live component has an incident edge and must merge,
    // so the count at least halves.
    EXPECT_LT(r.components, prev_components);
    EXPECT_LE(r.components_after, r.components - r.msf_edges_emitted);
    if (r.round >= 2) {
      EXPECT_LE(2 * r.components_after, r.components);
    }
    prev_components = r.components;

    // Cycle property: the reference-MSF edges among this round's drops are
    // exactly the edges emitted this round (already-merged duplicates and
    // bundle-filtered heavy edges are provably non-MSF).
    std::size_t msf_drops = 0;
    for (const EdgeId e : log.dropped[i]) {
      ASSERT_LT(e, g.num_edges());
      msf_drops += msf.count(e);
      EXPECT_TRUE(dropped_union.insert(e).second)
          << "edge " << e << " dropped twice";
    }
    EXPECT_EQ(msf_drops, r.msf_edges_emitted);
    dropped_total += log.dropped[i].size();
  }

  // Whole-run accounting: every input edge is dropped exactly once.
  EXPECT_EQ(dropped_total, g.num_edges());
  EXPECT_EQ(dropped_union.size(), g.num_edges());
}

class BoruvkaContraction : public testing::TestWithParam<int> {
 protected:
  ThreadPool pool_{static_cast<std::size_t>(GetParam())};
  RunContext ctx_{pool_};
};
INSTANTIATE_TEST_SUITE_P(Threads, BoruvkaContraction,
                         testing::Values(1, 2, 4, 8));

TEST_P(BoruvkaContraction, RoundInvariantsAcrossAllEngineConfigs) {
  ErdosRenyiParams p;
  p.num_vertices = 2000;
  p.num_edges = 8000;
  p.seed = 42;
  const CsrGraph g = csr(generate_erdos_renyi(p));
  const MstResult reference = kruskal(g);
  for (const auto jumping :
       {PointerJumping::kAsynchronous, PointerJumping::kSynchronized}) {
    for (const bool dedup : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "async=" << (jumping == PointerJumping::kAsynchronous)
                   << " dedup=" << dedup);
      BoruvkaConfig c;
      c.jumping = jumping;
      c.dedup_contracted_edges = dedup;
      RoundLog log;
      const MstResult r = run_logged(g, ctx_, c, log);
      ASSERT_EQ(r.edges, reference.edges);
      check_rounds(g, reference, log, dedup);
    }
  }
}

TEST_P(BoruvkaContraction, FewComponentsManyParallelEdgesKeepRoundInvariants) {
  // The contended shape: the clusters contract first, then a handful of
  // live roots share thousands of parallel bridges, so every chunk of the
  // contraction sweeps marks and min-reduces the same few roots.  The
  // per-round counts must not depend on how many workers race for them.
  const CsrGraph g = csr(test::clustered_graph(5));
  const MstResult reference = kruskal(g);
  ThreadPool serial_pool(1);
  RunContext serial_ctx(serial_pool);
  for (const auto jumping :
       {PointerJumping::kAsynchronous, PointerJumping::kSynchronized}) {
    for (const bool dedup : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "async=" << (jumping == PointerJumping::kAsynchronous)
                   << " dedup=" << dedup);
      BoruvkaConfig c;
      c.jumping = jumping;
      c.dedup_contracted_edges = dedup;
      RoundLog log;
      const MstResult r = run_logged(g, ctx_, c, log);
      ASSERT_EQ(r.edges, reference.edges);
      check_rounds(g, reference, log, dedup);

      RoundLog serial;
      ASSERT_EQ(run_logged(g, serial_ctx, c, serial).edges, reference.edges);
      ASSERT_EQ(log.rounds.size(), serial.rounds.size());
      for (std::size_t i = 0; i < log.rounds.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "round " << log.rounds[i].round);
        EXPECT_EQ(log.rounds[i].components, serial.rounds[i].components);
        EXPECT_EQ(log.rounds[i].components_after,
                  serial.rounds[i].components_after);
        EXPECT_EQ(log.rounds[i].edges_after, serial.rounds[i].edges_after);
        EXPECT_EQ(log.rounds[i].self_loops_dropped,
                  serial.rounds[i].self_loops_dropped);
      }

      // Without the bundle filter the bridges survive as parallel edges:
      // some round must really have few roots and many edges.
      if (!dedup) {
        EXPECT_TRUE(std::any_of(log.rounds.begin(), log.rounds.end(),
                                [](const BoruvkaRoundStats& rs) {
                                  return rs.components <= 10 &&
                                         rs.active_edges >= 1000;
                                }));
      }
    }
  }
}

TEST_P(BoruvkaContraction, ScratchReuseAcrossRunsIsClean) {
  // One scratch driven through graphs of very different shapes: stale
  // capacity from a bigger earlier run must never leak into a later one.
  BoruvkaScratch scratch;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ErdosRenyiParams big;
    big.num_vertices = 1500;
    big.num_edges = 6000;
    big.seed = seed;
    const CsrGraph g1 = csr(generate_erdos_renyi(big));
    const CsrGraph g2 = csr(make_forest(5, 30, seed));
    for (const CsrGraph* g : {&g1, &g2}) {
      BoruvkaConfig c;
      c.dedup_contracted_edges = true;
      c.scratch = &scratch;
      const MstResult r = boruvka_engine(*g, ctx_, c);
      EXPECT_EQ(r.edges, kruskal(*g).edges);
    }
  }
}

TEST_P(BoruvkaContraction, HundredSeedCrossCheckVsKruskal) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);

    // Sparse (m ~ 2n, disconnected fragments + isolated vertices), dense
    // (heavy parallel-bundle pressure after the first contraction), forest
    // (MSF = input, every algorithm's degenerate case).
    ErdosRenyiParams sparse;
    sparse.num_vertices = 300;
    sparse.num_edges = 600;
    sparse.seed = seed;
    ErdosRenyiParams dense;
    dense.num_vertices = 48;
    dense.num_edges = 1000;
    dense.seed = seed;
    const CsrGraph graphs[] = {csr(generate_erdos_renyi(sparse)),
                               csr(generate_erdos_renyi(dense)),
                               csr(make_forest(4, 25, seed))};
    for (const CsrGraph& g : graphs) {
      const MstResult reference = kruskal(g);
      for (const bool dedup : {false, true}) {
        BoruvkaConfig c;
        c.dedup_contracted_edges = dedup;
        RoundLog log;
        const MstResult r = run_logged(g, ctx_, c, log);
        ASSERT_EQ(r.edges, reference.edges)
            << "dedup=" << dedup << " n=" << g.num_vertices()
            << " m=" << g.num_edges();
        check_rounds(g, reference, log, dedup);
      }
    }
  }
}

// ------------------------------------------------- hook emission claims

/// The hook claims one output range per chunk and fills it with the chunk's
/// hooked components, so every schedule must emit each MSF edge exactly
/// once.  Runs the engine on `exec` with a fresh scratch (the first hook
/// and jump of a fresh scratch always dispatch the team) and checks the
/// per-round counts against n - trees, the raw emitted ids (left in claim
/// order in the scratch) for repeats, and the forest against Kruskal's.
void check_emission(const CsrGraph& g, const MstResult& reference,
                    Executor& exec, PointerJumping jumping) {
  RunContext ctx;
  ctx.attach_executor(&exec);
  BoruvkaScratch scratch;
  BoruvkaConfig c;
  c.jumping = jumping;
  c.scratch = &scratch;
  std::size_t emitted = 0;
  c.round_observer = [&emitted](const BoruvkaRoundStats& info) {
    emitted += info.msf_edges_emitted;
  };
  const MstResult r = boruvka_engine(g, ctx, c);
  ASSERT_EQ(r.edges, reference.edges);
  EXPECT_EQ(emitted, g.num_vertices() - reference.num_trees);
  ASSERT_LE(emitted, scratch.msf_edges.size());
  const std::set<EdgeId> distinct(
      scratch.msf_edges.begin(),
      scratch.msf_edges.begin() + static_cast<std::ptrdiff_t>(emitted));
  EXPECT_EQ(distinct.size(), emitted) << "an emitted id repeats";
}

struct EmissionGraph {
  const char* name;
  CsrGraph g;
  MstResult reference;
};

/// Star: every leaf hooks into the centre in round 1, so every hook chunk
/// claims a range at once.  Path: long parent chains for the jump.
/// Forest: several trees, so n - trees is not n - 1.
std::vector<EmissionGraph> emission_graphs() {
  std::vector<EmissionGraph> out;
  out.push_back({"star", csr(make_star(4096)), {}});
  out.push_back({"path", csr(make_path(4096)), {}});
  out.push_back({"forest", csr(make_forest(16, 256, 5)), {}});
  for (EmissionGraph& e : out) e.reference = kruskal(e.g);
  return out;
}

TEST(BoruvkaHookEmission, EachMsfEdgeIsEmittedOnceAtOneTwoAndFourThreads) {
  for (const EmissionGraph& e : emission_graphs()) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      for (const auto jumping :
           {PointerJumping::kAsynchronous, PointerJumping::kSynchronized}) {
        SCOPED_TRACE(testing::Message()
                     << e.name << " threads=" << threads << " async="
                     << (jumping == PointerJumping::kAsynchronous));
        check_emission(e.g, e.reference, pool, jumping);
      }
    }
  }
}

TEST(BoruvkaHookEmission, EachMsfEdgeIsEmittedOnceUnderSimulatedSchedules) {
  const std::vector<EmissionGraph> graphs = emission_graphs();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    for (const EmissionGraph& e : graphs) {
      for (const auto jumping :
           {PointerJumping::kAsynchronous, PointerJumping::kSynchronized}) {
        SCOPED_TRACE(testing::Message()
                     << e.name << " sim seed " << seed << " async="
                     << (jumping == PointerJumping::kAsynchronous));
        sim::SimExecutor::Options o;
        o.seed = seed;
        o.workers = 4;
        sim::SimExecutor exec(o);
        check_emission(e.g, e.reference, exec, jumping);
      }
    }
  }
}

}  // namespace
}  // namespace llpmst

// The algorithm portfolio (mst/auto.hpp): picks per the paper's conclusions
// and always returns the unique MSF.  Reported algorithm names are the
// canonical registry names.
#include <gtest/gtest.h>

#include "graph/generators/random_graph.hpp"
#include "graph/generators/road.hpp"
#include "graph/generators/special.hpp"
#include "mst/auto.hpp"
#include "mst/kruskal.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using test::csr;

CsrGraph road_graph() {
  RoadParams p;
  p.width = 40;
  p.height = 40;
  return csr(generate_road_network(p));
}

TEST(AutoMst, SingleThreadPicksSequentialLlpPrim) {
  ThreadPool pool(1);
  RunContext ctx(pool);
  const CsrGraph g = road_graph();
  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_EQ(r.algorithm, "llp-prim");
  EXPECT_EQ(r.result.edges, kruskal(g).edges);
}

TEST(AutoMst, FewThreadsPickParallelLlpPrim) {
  ThreadPool pool(4);
  RunContext ctx(pool);
  const CsrGraph g = road_graph();
  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_EQ(r.algorithm, "llp-prim-parallel");
  EXPECT_EQ(r.result.edges, kruskal(g).edges);
}

TEST(AutoMst, ManyThreadsPickLlpBoruvka) {
  ThreadPool pool(8);
  RunContext ctx(pool);
  const CsrGraph g = road_graph();
  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_EQ(r.algorithm, "llp-boruvka");
  EXPECT_EQ(r.result.edges, kruskal(g).edges);
}

TEST(AutoMst, SingleThreadForestPicksLlpPrim) {
  // One thread picks LLP-Prim on every shape: it restarts per tree.
  ThreadPool pool(1);
  RunContext ctx(pool);
  const CsrGraph g = csr(make_forest(3, 50, 7));
  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_EQ(r.algorithm, "llp-prim");
  EXPECT_EQ(r.result.num_trees, 3u);
  EXPECT_EQ(r.result.edges, kruskal(g).edges);
}

TEST(AutoMst, MultiThreadDisconnectedPicksLlpBoruvka) {
  // Parallel LLP-Prim is tree-only, so from 2 threads up a forest goes to
  // LLP-Boruvka.
  ThreadPool pool(2);
  RunContext ctx(pool);
  const CsrGraph g = csr(make_forest(3, 50, 7));
  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_EQ(r.algorithm, "llp-boruvka");
  EXPECT_EQ(r.result.num_trees, 3u);
  EXPECT_EQ(r.result.edges, kruskal(g).edges);
}

TEST(AutoMst, ConnectivityHintSkipsTheCheck) {
  ThreadPool pool(2);
  RunContext ctx(pool);
  const CsrGraph g = road_graph();
  AutoMstOptions opts;
  opts.connectivity = Connectivity::kConnected;
  const AutoMstResult hinted = minimum_spanning_forest(g, ctx, opts);
  EXPECT_EQ(hinted.algorithm, "llp-prim-parallel");
  opts.connectivity = Connectivity::kDisconnected;
  const AutoMstResult forced = minimum_spanning_forest(g, ctx, opts);
  EXPECT_EQ(forced.algorithm, "llp-boruvka");  // hint respected
  EXPECT_EQ(hinted.result.edges, forced.result.edges);
}

TEST(AutoMst, CrossoverTunable) {
  ThreadPool pool(4);
  RunContext ctx(pool);
  const CsrGraph g = road_graph();
  AutoMstOptions opts;
  opts.connectivity = Connectivity::kConnected;
  opts.boruvka_crossover = 2;  // lower the crossover below the pool size
  const AutoMstResult r = minimum_spanning_forest(g, ctx, opts);
  EXPECT_EQ(r.algorithm, "llp-boruvka");
}

TEST(AutoMst, EmptyGraph) {
  ThreadPool pool(2);
  RunContext ctx(pool);
  const CsrGraph g = csr(EdgeList(0));
  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_EQ(r.algorithm, "trivial");
  EXPECT_TRUE(r.result.edges.empty());
}

TEST(AutoMst, ConnectivityAnswerIsCachedOnTheContext) {
  ThreadPool pool(2);
  RunContext ctx(pool);
  const CsrGraph g = road_graph();
  EXPECT_FALSE(ctx.components_cached(g));
  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  // The selection's connectivity check seeds the cache; downstream
  // verification reuses it instead of recomputing components.
  EXPECT_TRUE(ctx.components_cached(g));
  EXPECT_EQ(ctx.num_components(g), 1u);
  EXPECT_EQ(r.result.num_trees, 1u);
}

TEST(AutoMst, SingleThreadSkipsTheConnectivityCensus) {
  // At one thread the pick does not depend on connectivity.
  ThreadPool pool(1);
  RunContext ctx(pool);
  const CsrGraph g = csr(make_forest(3, 50, 7));
  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_EQ(r.algorithm, "llp-prim");
  EXPECT_FALSE(ctx.components_cached(g));
}

}  // namespace
}  // namespace llpmst

// Shared helpers for the llpmst test suite.
#pragma once

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/run_context.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators/road.hpp"
#include "llp/llp_prim_parallel.hpp"
#include "mst/mst_result.hpp"
#include "mst/registry.hpp"
#include "parallel/executor.hpp"
#include "parallel/thread_pool.hpp"

namespace llpmst::test {

/// Builds a CSR graph from an already-normalized edge list.
inline CsrGraph csr(const EdgeList& list) { return CsrGraph::build(list); }

/// Named MSF algorithm for sweep-style tests.  `connected_only` marks the
/// Prim family, which requires connected inputs.
struct MsfAlgo {
  std::string name;
  bool connected_only;
  std::function<MstResult(const CsrGraph&, ThreadPool&)> run;
};

/// Every MSF implementation in the library, all expected to produce the
/// identical (unique) forest.  Driven by the registry: a newly registered
/// algorithm is swept by these tests with zero edits here, and
/// `connected_only` comes straight from its capability flags.
inline std::vector<MsfAlgo> all_msf_algorithms() {
  std::vector<MsfAlgo> out;
  for (const MstAlgorithm& a : mst_algorithms()) {
    out.push_back({a.name, !a.caps.msf_capable,
                   [algo = &a](const CsrGraph& g, ThreadPool& pool) {
                     RunContext ctx(pool);
                     return algo->run(g, ctx);
                   }});
  }
  return out;
}

/// Forwards every team region to `inner` and counts them, so a test can
/// assert that a code path really dispatched a team.
class CountingExecutor final : public Executor {
 public:
  explicit CountingExecutor(Executor& inner) : inner_(inner) {}
  [[nodiscard]] std::size_t num_threads() const override {
    return inner_.num_threads();
  }
  [[nodiscard]] std::size_t regions() const { return regions_; }

 private:
  void run_region_impl(const TeamFn& fn) override {
    ++regions_;
    inner_.run_team([&fn](std::size_t w) { fn.invoke(fn.obj, w); });
  }

  Executor& inner_;
  std::size_t regions_ = 0;
};

/// `list` plus one hub vertex joined to every other vertex.  About half the
/// hub arcs (picked by `seed`) weigh 1, lighter than any road edge, so they
/// are those vertices' MWEs: once the hub is fixed, LLP-Prim early-fixes
/// them all at once and its R set becomes thousands of vertices wide.  The
/// rest weigh more than any road edge.
inline EdgeList with_hub(EdgeList list, std::uint64_t seed) {
  const auto hub = static_cast<VertexId>(list.num_vertices());
  list.ensure_vertices(hub + std::size_t{1});
  std::mt19937_64 rng(seed);
  for (VertexId v = 0; v < hub; ++v) {
    list.add_edge(hub, v, (rng() & 1) != 0 ? Weight{1} : Weight{1} << 30);
  }
  list.normalize();
  return list;
}

/// Six dense clusters of 128 vertices each, joined by 4000 random
/// inter-cluster bridges that all weigh more than any intra-cluster edge.
/// Every part of a cluster has a lighter edge inside it than any bridge, so
/// Boruvka contracts each cluster whole before it takes a bridge: its last
/// rounds hold at most six live roots and thousands of parallel edges, and
/// every per-edge sweep of the contraction lands on the same few
/// per-component slots.
inline EdgeList clustered_graph(std::uint64_t seed) {
  constexpr std::size_t clusters = 6;
  constexpr std::size_t size = 128;
  constexpr std::size_t bridges = 4000;
  EdgeList list(clusters * size);
  std::mt19937_64 rng(seed);
  constexpr Weight kBridgeFloor = Weight{1} << 20;
  const auto vertex = [](std::size_t cluster, std::size_t i) {
    return static_cast<VertexId>(cluster * size + i);
  };
  for (std::size_t c = 0; c < clusters; ++c) {
    // A path keeps the cluster connected; 4 random chords per vertex make
    // it dense.
    for (std::size_t i = 0; i + 1 < size; ++i) {
      list.add_edge(vertex(c, i), vertex(c, i + 1),
                    1 + static_cast<Weight>(rng() % (kBridgeFloor - 1)));
    }
    for (std::size_t j = 0; j < 4 * size; ++j) {
      const std::size_t a = rng() % size;
      const std::size_t b = rng() % size;
      if (a == b) continue;
      list.add_edge(vertex(c, a), vertex(c, b),
                    1 + static_cast<Weight>(rng() % (kBridgeFloor - 1)));
    }
  }
  for (std::size_t j = 0; j < bridges; ++j) {
    const std::size_t ca = rng() % clusters;
    const std::size_t cb = (ca + 1 + rng() % (clusters - 1)) % clusters;
    const VertexId u = vertex(ca, rng() % size);
    const VertexId v = vertex(cb, rng() % size);
    list.add_edge(u, v,
                  kBridgeFloor + static_cast<Weight>(rng() % kBridgeFloor));
  }
  list.normalize();
  return list;
}

/// The smallest square road grid whose with_hub() hub has more than twice
/// kLlpPrimTeamArcs arcs: the hub's R set is sure to reach the team sweep.
inline EdgeList wide_hub_road_grid(std::uint64_t seed) {
  RoadParams p;
  p.width = 1;
  while (std::size_t{p.width} * p.width <= 2 * kLlpPrimTeamArcs) ++p.width;
  p.height = p.width;
  p.seed = seed;
  return generate_road_network(p);
}

}  // namespace llpmst::test

// Social-network backbone example: on a scale-free (Kronecker/RMAT) graph —
// the paper's graph500 workload family — compute the minimum spanning
// FOREST with LLP-Boruvka.  Scale-free samples are naturally disconnected,
// which is exactly the case LLP-Boruvka handles and parallel LLP-Prim does
// not: the forest gives, per community, the cheapest backbone that keeps
// everyone connected (think: minimum-latency overlay links to lease).
//
//   $ ./examples/social_network --scale 16 --threads 4
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "core/run_context.hpp"
#include "graph/algorithms/degree_stats.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "llp/llp_boruvka.hpp"
#include "llp/llp_components.hpp"
#include "mst/verifier.hpp"
#include "parallel/thread_pool.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  using namespace llpmst;

  CliParser cli("social_network",
                "Minimum spanning forest of a scale-free network with "
                "LLP-Boruvka + LLP connected components");
  auto& scale = cli.add_int("scale", 15, "log2 of the vertex count");
  auto& edge_factor = cli.add_int("edge-factor", 8, "edges per vertex");
  auto& threads = cli.add_int("threads", 4, "worker threads");
  auto& seed = cli.add_int("seed", 1, "generator seed");
  cli.parse(argc, argv);

  RmatParams params;
  params.scale = static_cast<int>(scale);
  params.edge_factor = static_cast<int>(edge_factor);
  params.seed = static_cast<std::uint64_t>(seed);

  Timer gen;
  const EdgeList list = generate_rmat(params);
  const CsrGraph g = CsrGraph::build(list);
  std::printf("Generated RMAT scale %lld (graph500 parameters) in %s\n",
              static_cast<long long>(scale),
              format_duration_ms(gen.elapsed_ms()).c_str());
  std::printf("Network: %s\n", describe(compute_stats(g)).c_str());

  ThreadPool pool(static_cast<std::size_t>(threads));

  // Community structure via the LLP connected-components solver.
  Timer cc_timer;
  const LlpComponentsResult cc = llp_connected_components(g, pool);
  std::printf("\nLLP components: %zu communities in %s (%llu sweeps)\n",
              cc.num_components,
              format_duration_ms(cc_timer.elapsed_ms()).c_str(),
              static_cast<unsigned long long>(cc.llp.sweeps));

  std::map<VertexId, std::size_t> sizes;
  for (const VertexId l : cc.label) ++sizes[l];
  std::vector<std::size_t> by_size;
  for (const auto& [label, count] : sizes) by_size.push_back(count);
  std::sort(by_size.rbegin(), by_size.rend());
  std::printf("  largest communities:");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, by_size.size()); ++i) {
    std::printf(" %s", format_count(by_size[i]).c_str());
  }
  std::printf("\n");

  // Backbone forest.
  Timer msf_timer;
  RunContext ctx(pool);
  const MstResult msf = llp_boruvka(g, ctx);
  const double msf_ms = msf_timer.elapsed_ms();
  const VerifyResult v = verify_spanning_forest(g, msf);
  if (!v.ok) {
    std::fprintf(stderr, "verification failed: %s\n", v.error.c_str());
    return 1;
  }
  if (msf.num_trees != cc.num_components) {
    std::fprintf(stderr, "tree/component count mismatch\n");
    return 1;
  }

  std::printf("\nBackbone forest (LLP-Boruvka, %lld threads, %s):\n",
              static_cast<long long>(threads),
              format_duration_ms(msf_ms).c_str());
  std::printf("  links kept   : %s of %s (%.2f%%)\n",
              format_count(msf.edges.size()).c_str(),
              format_count(g.num_edges()).c_str(),
              100.0 * static_cast<double>(msf.edges.size()) /
                  static_cast<double>(std::max<std::size_t>(1, g.num_edges())));
  std::printf("  total cost   : %s\n",
              format_count(msf.total_weight).c_str());
  std::printf("  Boruvka rounds: %llu, pointer jumps: %llu\n",
              static_cast<unsigned long long>(msf.stats.rounds),
              static_cast<unsigned long long>(msf.stats.pointer_jumps));
  return 0;
}

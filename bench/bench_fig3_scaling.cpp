// Reproduces Fig. 3: thread scaling of LLP-Prim, parallel Boruvka, and
// LLP-Boruvka on the USA-road stand-in, threads 1..32.
//
// Paper's claims to reproduce (shape):
//   * the Boruvka-family algorithms overtake LLP-Prim around 8 threads and
//     scale near-linearly;
//   * LLP-Prim speeds up a little, plateaus, and regresses past ~8 threads
//     (its heap phase is sequential);
//   * LLP-Boruvka stays at or below parallel Boruvka's time, with the gap
//     tapering at high thread counts.
//
// NOTE: on a machine with fewer physical cores than the sweep (this repro
// ran on 1), thread counts beyond the core count measure oversubscription
// overhead, not parallel speedup; EXPERIMENTS.md discusses this.
#include <cstdio>

#include "bench_common.hpp"
#include "core/run_context.hpp"
#include "mst/registry.hpp"

int main(int argc, char** argv) {
  using namespace llpmst;
  using namespace llpmst::bench;

  CliParser cli("bench_fig3_scaling",
                "Reproduces Fig. 3 (multithreaded scaling on the road "
                "graph)");
  auto& road_side = cli.add_int("road-side", 512, "road grid side length");
  auto& workload_spec = cli.add_string(
      "workload", "",
      "workload override: scenario:NAME (the src/scenario/ registry), "
      "road:SIDE, rmat:SCALE[:EDGE_FACTOR], or knn:SCALE:K; default is "
      "road:<--road-side>");
  auto& threads_flag =
      cli.add_string("threads", "1,2,4,8,16,32", "thread counts to sweep");
  auto& reps = cli.add_int("reps", 3, "timed repetitions");
  auto& seed = cli.add_int("seed", 1, "workload generator seed");
  auto& csv = cli.add_bool("csv", false, "emit CSV");
  ObsCli obs_cli(cli);
  cli.parse(argc, argv);
  obs_cli.begin();

  const std::vector<int> thread_counts =
      CliParser::parse_int_list(threads_flag);
  BenchOptions opts;
  opts.repetitions = static_cast<int>(reps);

  Workload w;
  if (workload_spec.empty()) {
    w = make_road_workload(static_cast<std::uint32_t>(road_side),
                           static_cast<std::uint64_t>(seed));
  } else {
    std::string werr;
    if (!make_workload_spec(workload_spec, static_cast<std::uint64_t>(seed),
                            &w, &werr)) {
      std::fprintf(stderr, "bad --workload: %s\n", werr.c_str());
      return 2;
    }
  }
  const MstResult reference = kruskal(w.graph);

  std::printf("Fig. 3: thread scaling on %s (%zu vertices, %zu edges)\n\n",
              w.name.c_str(), w.graph.num_vertices(), w.graph.num_edges());

  Table t({"Threads", "LLP-Prim", "Boruvka", "LLP-Boruvka",
           "LLP-Prim speedup", "Boruvka speedup", "LLP-Boruvka speedup"});

  const MstAlgorithm& llp_prim = mst_algorithm("llp-prim-parallel");
  const MstAlgorithm& boruvka = mst_algorithm("parallel-boruvka");
  const MstAlgorithm& llp_boruvka = mst_algorithm("llp-boruvka");

  // One context for the whole sweep: the Boruvka scratch arena persists
  // across thread counts, as the engine's thread_local scratch used to.
  RunContext ctx;
  double base_llp_prim = 0, base_boruvka = 0, base_llp_boruvka = 0;
  for (const int threads : thread_counts) {
    set_bench_context(w.name, static_cast<std::size_t>(threads));
    ThreadPool pool(static_cast<std::size_t>(threads));
    ctx.attach_pool(pool);
    const BenchMeasurement lp = measure_mst(
        llp_prim.name, w.graph, reference,
        [&] { return llp_prim.run(w.graph, ctx); }, opts);
    const BenchMeasurement pb = measure_mst(
        boruvka.name, w.graph, reference,
        [&] { return boruvka.run(w.graph, ctx); }, opts);
    const BenchMeasurement lb = measure_mst(
        llp_boruvka.name, w.graph, reference,
        [&] { return llp_boruvka.run(w.graph, ctx); }, opts);

    if (threads == thread_counts.front()) {
      base_llp_prim = lp.time_ms.median;
      base_boruvka = pb.time_ms.median;
      base_llp_boruvka = lb.time_ms.median;
    }
    t.add_row({strf("%d", threads), time_cell(lp.time_ms),
               time_cell(pb.time_ms), time_cell(lb.time_ms),
               speedup_cell(base_llp_prim, lp.time_ms.median),
               speedup_cell(base_boruvka, pb.time_ms.median),
               speedup_cell(base_llp_boruvka, lb.time_ms.median)});
  }

  t.print(csv);
  obs_cli.write_table(t);
  obs_cli.finish("bench_fig3_scaling");
  return 0;
}

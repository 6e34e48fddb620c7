// Ablation: where does LLP-Prim's single-thread win over Prim come from?
//
// Runs Prim, lazy-heap Prim (the paper's Section IV analysis variant), and
// LLP-Prim with each optimization toggled independently:
//   * MWE early fixing (the R set),
//   * Q staging of heap inserts,
// reporting wall time and the direct mechanism metrics: heap pushes / pops /
// adjusts and the fraction of vertices fixed without any heap operation.
#include <cstdio>

#include "bench_common.hpp"
#include "core/run_context.hpp"
#include "llp/llp_prim.hpp"
#include "mst/registry.hpp"
#include "parallel/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace llpmst;
  using namespace llpmst::bench;

  CliParser cli("bench_ablation_llp_prim",
                "Ablation of LLP-Prim's optimizations (MWE fixing, Q "
                "staging) vs classic and lazy Prim");
  auto& road_side = cli.add_int("road-side", 512, "road grid side length");
  auto& scale = cli.add_int("scale", 16, "graph500 RMAT scale");
  auto& threads = cli.add_int("threads", 4, "threads for the parallel rows");
  auto& reps = cli.add_int("reps", 3, "timed repetitions");
  auto& csv = cli.add_bool("csv", false, "emit CSV");
  ObsCli obs_cli(cli);
  cli.parse(argc, argv);
  obs_cli.begin();

  BenchOptions opts;
  opts.repetitions = static_cast<int>(reps);

  Table t({"Graph", "Variant", "Median", "HeapPush", "HeapPop", "HeapAdjust",
           "SiftSteps", "MWE-fixed%"});

  const Workload workloads[] = {
      make_road_workload(static_cast<std::uint32_t>(road_side)),
      make_graph500_workload(static_cast<int>(scale)),
  };

  RunContext ctx;
  for (const Workload& w : workloads) {
    const MstResult reference = kruskal(w.graph);
    set_bench_context(w.name, static_cast<std::size_t>(threads));
    const double n = static_cast<double>(w.graph.num_vertices());

    const auto add = [&](const char* variant, const BenchMeasurement& m) {
      const MstAlgoStats& s = m.last_result.stats;
      t.add_row({w.name, variant, time_cell(m.time_ms),
                 format_count(s.heap.pushes), format_count(s.heap.pops),
                 format_count(s.heap.adjusts),
                 format_count(s.heap.sift_steps),
                 strf("%.1f%%", 100.0 * static_cast<double>(s.fixed_via_mwe) / n)});
    };

    const auto registry_row = [&](const char* name) {
      const MstAlgorithm& algo = mst_algorithm(name);
      return measure_mst(
          algo.name, w.graph, reference,
          [&] { return algo.run(w.graph, ctx); }, opts);
    };
    add("Prim (indexed heap)", registry_row("prim"));
    add("Prim (lazy heap, Sec. IV)", registry_row("prim-lazy"));

    // Toggled variants are bespoke LlpPrimOptions runs, not registry
    // entries; their record keys carry the knob settings so every key in
    // the JSONL stays unique.
    const auto llp_variant = [&](bool mwe, bool q) {
      LlpPrimOptions o;
      o.mwe_fixing = mwe;
      o.q_staging = q;
      const std::string key =
          strf("llp-prim mwe=%d q=%d", mwe ? 1 : 0, q ? 1 : 0);
      return measure_mst(key, w.graph, reference,
                         [&, o] { return llp_prim(w.graph, 0, o); }, opts);
    };
    add("LLP-Prim (no MWE, no Q)", llp_variant(false, false));
    add("LLP-Prim (MWE only)", llp_variant(true, false));
    add("LLP-Prim (Q only)", llp_variant(false, true));
    add("LLP-Prim (full)", llp_variant(true, true));

    // The parallel engine: narrow R sets drained inline, wide ones by the
    // team.
    ThreadPool pool(static_cast<std::size_t>(threads));
    ctx.attach_pool(pool);
    add(strf("LLP-Prim (parallel, %lldT)",
             static_cast<long long>(threads)).c_str(),
        registry_row("llp-prim-parallel"));
  }

  std::printf("Ablation: LLP-Prim optimization breakdown\n\n");
  t.print(csv);
  obs_cli.write_table(t);
  std::printf("\nExpected: MWE fixing removes most heap pushes/pops; Q "
              "staging removes adjusts for vertices later fixed for free.\n");
  obs_cli.finish("bench_ablation_llp_prim");
  return 0;
}

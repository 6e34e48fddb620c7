// Ablation: what do LLP-Boruvka's design choices buy over the synchronized
// baseline?  Sweeps the full grid of engine knobs:
//   * pointer jumping: asynchronous/chaotic (LLP, with full path
//     compression) vs bulk-synchronous rounds with barriers (baseline);
//   * contraction dedup: keep parallel bundles (LLP) vs hash bundle-min
//     filtering (baseline);
//   * scratch: fresh per run vs caller-owned reuse across repetitions.
// Reports wall time, rounds, and pointer-jump counts per configuration.
// Every row gets a distinct algo label so --bench-json record keys stay
// unique (bench_compare.py rejects duplicates).
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/run_context.hpp"
#include "mst/boruvka_engine.hpp"

int main(int argc, char** argv) {
  using namespace llpmst;
  using namespace llpmst::bench;

  CliParser cli("bench_ablation_llp_boruvka",
                "Ablation of LLP-Boruvka vs synchronized Boruvka engine "
                "knobs");
  auto& road_side = cli.add_int("road-side", 512, "road grid side length");
  auto& scale = cli.add_int("scale", 16, "graph500 RMAT scale");
  auto& threads = cli.add_int("threads", 8, "worker threads");
  auto& reps = cli.add_int("reps", 3, "timed repetitions");
  auto& csv = cli.add_bool("csv", false, "emit CSV");
  ObsCli obs_cli(cli);
  cli.parse(argc, argv);
  obs_cli.begin();

  BenchOptions opts;
  opts.repetitions = static_cast<int>(reps);
  ThreadPool pool(static_cast<std::size_t>(threads));
  RunContext ctx(pool);

  Table t({"Graph", "Jumping", "Dedup", "Scratch", "Median", "Rounds",
           "PointerJumps"});

  const Workload workloads[] = {
      make_road_workload(static_cast<std::uint32_t>(road_side)),
      make_graph500_workload(static_cast<int>(scale), 1, /*connect=*/false),
  };

  for (const Workload& w : workloads) {
    const MstResult reference = kruskal(w.graph);
    set_bench_context(w.name, static_cast<std::size_t>(threads));

    const auto run_config = [&](const BoruvkaConfig& config,
                                BoruvkaScratch* scratch) {
      const char* jumping_cell =
          config.jumping == PointerJumping::kAsynchronous ? "async (LLP)"
                                                          : "synchronized";
      const std::string algo =
          std::string("engine jump=") +
          (config.jumping == PointerJumping::kAsynchronous ? "async" : "sync") +
          " dedup=" + (config.dedup_contracted_edges ? "1" : "0") +
          " scratch=" + (scratch != nullptr ? "reuse" : "fresh");
      BoruvkaConfig run = config;
      run.scratch = scratch;
      const BenchMeasurement m = measure_mst(
          algo, w.graph, reference,
          [&] { return boruvka_engine(w.graph, ctx, run); }, opts);
      const MstAlgoStats& s = m.last_result.stats;
      t.add_row({w.name, jumping_cell,
                 config.dedup_contracted_edges ? "yes" : "no",
                 scratch != nullptr ? "reuse" : "fresh", time_cell(m.time_ms),
                 format_count(s.rounds), format_count(s.pointer_jumps)});
    };

    // The paper's knobs (jumping x dedup), each with a fresh scratch per
    // run and with one reused across repetitions.  async/no-dedup/reuse is
    // what llp_boruvka() does with its context's scratch.
    for (const auto jumping :
         {PointerJumping::kAsynchronous, PointerJumping::kSynchronized}) {
      for (const bool dedup : {false, true}) {
        BoruvkaConfig config;
        config.jumping = jumping;
        config.dedup_contracted_edges = dedup;
        BoruvkaScratch reused;
        run_config(config, nullptr);
        run_config(config, &reused);
      }
    }
  }

  std::printf("Ablation: LLP-Boruvka engine knobs (threads=%lld)\n",
              static_cast<long long>(threads));
  std::printf("(async+no-dedup = LLP-Boruvka; synchronized+dedup = the "
              "parallel Boruvka baseline)\n\n");
  t.print(csv);
  obs_cli.write_table(t);
  obs_cli.finish("bench_ablation_llp_boruvka");
  return 0;
}

// perfbench: the llpmst end-to-end benchmark, one binary for both front-ends.
//
//   perfbench --workload road-solve|rmat-solve|serve-mixed --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//             [--tiny] [--corrupt-oracle]
//
// Workloads (perfbench/README.md says why each was chosen):
//   road-solve   8 x road:512, each written as DIMACS .gr, read back, built
//                and counted, then solved round-robin by every roster entry;
//   rmat-solve   8 x rmat:16 generated in-process, built, counted, solved;
//   serve-mixed  GraphCatalog -> QueryService -> SocketServer in-process
//                (llpmstd's defaults), a closed loop of 4 unix-socket
//                connections sending verified `auto` queries that alternate
//                between a heap snapshot (road:256) and an mmap snapshot
//                (rmat:14 packed to llpmstb).
//
// Every batch solve gets a fresh RunContext over a persistent pool (4
// threads, or 1 for the sequential entries) and is checked outside its timed
// window against a Kruskal oracle plus verify_spanning_forest.  Every serve
// response is checked for status ok, verified true, and the algorithm `auto`
// picks for that snapshot.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 runs an untraced pass
// and then a traced pass (benchmark spans, obs phase totals, scheduler
// rings), prints the per-layer metrics, and writes the benchmark's spans as
// Chrome trace-event JSON to --trace-out.  A completed run ends stdout with
// one JSON line: {"correct", "attempted", "failed", "metrics"}.  Exit 0 when
// every answer was right, 1 when any was wrong, 2 on a usage or set-up
// error (no result line), 3 when the build is unfit to measure.
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/run_context.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/road.hpp"
#include "graph/io/binary_csr.hpp"
#include "graph/io/dimacs.hpp"
#include "graph/io/read_graph.hpp"
#include "mst/auto.hpp"
#include "mst/registry.hpp"
#include "mst/verifier.hpp"
#include "obs/critical_path.hpp"
#include "obs/mem_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/round_stats.hpp"
#include "obs/sched_events.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/catalog.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/failpoint.hpp"

namespace {

using namespace llpmst;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - g_epoch)
      .count();
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own, around its calls into each layer.  A span
// always measures its duration (the untraced passes time with it too); it is
// kept in memory only while the tracer is on.

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  const char* arg_key = nullptr;  // optional argument: "query" or "algo"
  std::string arg;
  unsigned tid = 0;
};

class Tracer {
 public:
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const {
    return on_.load(std::memory_order_relaxed);
  }

  int open(const char* name, int parent, const char* arg_key, std::string arg,
           unsigned tid, double start_us) {
    std::lock_guard lock(mutex_);
    spans_.push_back(
        Span{name, start_us, start_us, parent, arg_key, std::move(arg), tid});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, double end_us) {
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_us = end_us;
  }

  /// Self time (ms) of every recorded span named `name`: its duration minus
  /// the durations of its child spans.
  [[nodiscard]] std::vector<double> self_ms(const std::string& name) const {
    std::lock_guard lock(mutex_);
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
      }
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        out.push_back((spans_[i].end_us - spans_[i].start_us - child_us[i]) /
                      1000.0);
      }
    }
    return out;
  }

  bool write_chrome_json(const std::string& path) const {
    std::lock_guard lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%u,"
                   "\"args\":{\"span\":%zu,\"parent\":%d",
                   i == 0 ? "" : ",", obs::json_quote(s.name).c_str(),
                   s.start_us, s.end_us - s.start_us, s.tid, i, s.parent);
      if (s.arg_key != nullptr) {
        std::fprintf(f, ",\"%s\":%s", s.arg_key,
                     obs::json_quote(s.arg).c_str());
      }
      std::fputs("}}", f);
    }
    std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<bool> on_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

Tracer g_tracer;
std::atomic<unsigned> g_next_tid{0};
thread_local int t_open_span = -1;
thread_local unsigned t_tid = g_next_tid.fetch_add(1);

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* arg_key = nullptr,
                      std::string arg = {})
      : start_us_(now_us()) {
    if (g_tracer.on()) {
      id_ = g_tracer.open(name, t_open_span, arg_key, std::move(arg), t_tid,
                          start_us_);
      saved_parent_ = t_open_span;
      t_open_span = id_;
    }
  }
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early; returns its duration in ms.
  double stop() {
    if (end_us_ < 0) {
      end_us_ = now_us();
      if (id_ >= 0) {
        g_tracer.close(id_, end_us_);
        t_open_span = saved_parent_;
      }
    }
    return (end_us_ - start_us_) / 1000.0;
  }

 private:
  double start_us_;
  double end_us_ = -1;
  int id_ = -1;
  int saved_parent_ = -1;
};

// ---------------------------------------------------------------------------
// Statistics and output.

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    metrics_[name] = Metric{value, unit, samples};
  }
  void print_lines() const {
    for (const auto& [name, m] : metrics_) {
      std::printf("  %-44s %14.4f %-6s (n=%zu)\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    bool first = true;
    char buf[96];
    for (const auto& [name, m] : metrics_) {
      if (!first) out += ", ";
      first = false;
      std::snprintf(buf, sizeof buf, "%.9g", m.value);
      out += obs::json_quote(name) + ": {\"value\": " + buf +
             ", \"unit\": " + obs::json_quote(m.unit) + "}";
    }
    return out + "}";
  }

 private:
  std::map<std::string, Metric> metrics_;
};

double peak_rss_mb() {
  return static_cast<double>(obs::mem_sample().peak_rss_bytes) /
         (1024.0 * 1024.0);
}

/// Bytes of the six CSR sections for n vertices and m edges, from the
/// section element widths.
double csr_mb(const CsrGraph& g) {
  using S = CsrSections;
  const double n = static_cast<double>(g.num_vertices());
  const double m = static_cast<double>(g.num_edges());
  const double bytes =
      (n + 1) * sizeof(decltype(S::offsets)::element_type) +
      2 * m * sizeof(decltype(S::targets)::element_type) +
      2 * m * sizeof(decltype(S::priorities)::element_type) +
      n * sizeof(decltype(S::mwe)::element_type) +
      2 * m * sizeof(decltype(S::mwe_flags)::element_type) +
      m * sizeof(decltype(S::edges)::element_type);
  return bytes / (1024.0 * 1024.0);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool corrupt_oracle = false;
  std::string work_dir;
  std::string trace_out;
};

/// Bookkeeping every workload shares: attempted/failed counts plus the
/// first few failure reasons (printed to stderr at the end).
struct Checks {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::mutex mutex;
  std::vector<std::string> reasons;

  void pass() { attempted.fetch_add(1); }
  void fail(const std::string& why) {
    attempted.fetch_add(1);
    failed.fetch_add(1);
    std::lock_guard lock(mutex);
    if (reasons.size() < 8) reasons.push_back(why);
  }
};

Checks g_checks;

// ---------------------------------------------------------------------------
// Batch workloads: road-solve and rmat-solve.

/// One roster entry: a registry name (or "auto") at a thread count.
struct Entry {
  std::string algo;
  std::size_t threads;
  [[nodiscard]] std::string key() const {
    return threads == 1 && algo != "llp-prim" && algo != "kruskal"
               ? algo + "@1T"
               : algo;
  }
};

const std::vector<std::string> kRoster = {"auto",        "llp-prim-parallel",
                                          "llp-boruvka", "parallel-boruvka",
                                          "llp-prim",    "kruskal"};
const std::vector<std::string> kParallelRoster = {
    "auto", "llp-prim-parallel", "llp-boruvka", "parallel-boruvka"};
const std::vector<std::string> kPhases = {"mwe_select", "hook", "pointer_jump",
                                          "contract",   "relax", "heap_flush",
                                          "heap_pop"};
const std::vector<std::string> kPrimPhases = {"relax", "heap_flush",
                                              "heap_pop"};
const std::vector<std::string> kBoruvkaPhases = {"mwe_select", "hook",
                                                 "pointer_jump", "contract"};

/// Roster entries that report LLP-Prim counters (auto picks LLP-Prim on a
/// connected graph) and Boruvka counters (auto picks LLP-Boruvka on a
/// forest).
bool reports_prim_stats(const std::string& algo) {
  return algo == "auto" || algo == "llp-prim-parallel" || algo == "llp-prim";
}
bool reports_boruvka_stats(const std::string& algo) {
  return algo == "auto" || algo == "llp-boruvka" || algo == "parallel-boruvka";
}

/// The phases reported for each roster entry (auto: whichever engine it
/// picks, so all of them).
const std::vector<std::string>& phases_of(const std::string& algo) {
  static const std::vector<std::string> none;
  if (algo == "auto") return kPhases;
  if (algo == "llp-prim-parallel" || algo == "llp-prim") return kPrimPhases;
  if (algo == "llp-boruvka" || algo == "parallel-boruvka") {
    return kBoruvkaPhases;
  }
  return none;
}

/// What one solve left behind, for the per-layer metrics.
struct SolveRecord {
  double ms = 0;
  double allocs = 0;
  MstAlgoStats stats;
  std::map<std::string, double> phase_self_ms;  // traced pass only
  double coverage = 0;                           // traced pass only
  double utilization = 0;                        // traced pass only
};

struct BatchGraph {
  CsrGraph g;
  std::size_t components = 0;
};

/// Self time per named phase from the obs aggregates: a phase path's total
/// minus its direct children's totals, summed over every path that ends in
/// the phase's name.
std::map<std::string, double> phase_self_ms(
    const std::vector<obs::PhaseSample>& phases) {
  std::map<std::string, double> total;
  for (const obs::PhaseSample& p : phases) {
    total[p.name] += static_cast<double>(p.total_us);
  }
  std::map<std::string, double> self = total;
  for (const auto& [path, us] : total) {
    const auto slash = path.rfind('/');
    if (slash != std::string::npos) {
      const auto parent = self.find(path.substr(0, slash));
      if (parent != self.end()) parent->second -= us;
    }
  }
  std::map<std::string, double> out;
  for (const auto& [path, us] : self) {
    const auto slash = path.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? path : path.substr(slash + 1);
    if (std::find(kPhases.begin(), kPhases.end(), leaf) != kPhases.end()) {
      out[leaf] += us / 1000.0;
    }
  }
  return out;
}

/// Every per-layer metric, zero until a workload measures it: a layer a
/// workload does not exercise did no work there (no parse in rmat-solve, no
/// queue in the batch workloads).
void set_per_layer_defaults(Report& report) {
  for (const char* name :
       {"graph.parse_ms", "graph.generate_ms", "graph.build_ms",
        "graph.mount_ms", "core.census_ms", "mst.verify_ms",
        "serve.queue_ms.p50", "serve.queue_ms.p99", "serve.solve_ms.p50",
        "serve.overhead_ms.p50", "query_ms.p50", "query_ms.p99"}) {
    report.set(name, 0.0, "ms", 0);
  }
  report.set("graph.csr_mb", 0.0, "MiB", 0);
  report.set("queries_per_s", 0.0, "1/s", 0);
  report.set("serve.batch_mean", 0.0, "count", 0);
  report.set("serve.response_kb.first", 0.0, "KiB", 0);
  report.set("serve.response_kb.last", 0.0, "KiB", 0);
  report.set("serve.rejected", 0.0, "count", 0);
  report.set("trace.overhead_frac", 0.0, "ratio", 0);
  for (const std::string& a : kRoster) {
    report.set("solve_ms." + a, 0.0, "ms", 0);
    report.set("mst.allocs." + a, 0.0, "count", 0);
    if (reports_prim_stats(a)) {
      report.set("llp.sweeps." + a, 0.0, "count", 0);
      report.set("llp.heap_ops." + a, 0.0, "count", 0);
      report.set("llp.early_fix_frac." + a, 0.0, "ratio", 0);
    }
    if (reports_boruvka_stats(a)) {
      report.set("boruvka.rounds." + a, 0.0, "count", 0);
      report.set("boruvka.pointer_jumps." + a, 0.0, "count", 0);
    }
    for (const std::string& phase : phases_of(a)) {
      report.set("phase_ms." + a + "." + phase, 0.0, "ms", 0);
    }
    if (!phases_of(a).empty()) {
      report.set("phase_coverage." + a, 0.0, "ratio", 0);
    }
  }
  for (const std::string& a : kParallelRoster) {
    report.set("parallel.speedup." + a, 0.0, "ratio", 0);
    report.set("parallel.utilization." + a, 0.0, "ratio", 0);
  }
}

/// Prints the metrics and the closing JSON line; the exit code says whether
/// every answer was right.
int finish(Report& report, const Options& opt) {
  const std::uint64_t attempted = g_checks.attempted.load();
  const std::uint64_t failed = g_checks.failed.load();
  if (opt.trace) {
    report.set("failed_frac",
               attempted > 0 ? static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                             : 1.0,
               "ratio", attempted);
  }
  for (const std::string& why : g_checks.reasons) {
    std::fprintf(stderr, "WRONG ANSWER: %s\n", why.c_str());
  }
  std::printf("checks     : %s seed %llu: %llu attempted, %llu failed\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("metrics    :\n");
  report.print_lines();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), report.json().c_str());
  std::fflush(stdout);
  return failed == 0 && attempted > 0 ? 0 : 1;
}

/// True when another step as long as `last` still ends within `seconds` of
/// `start`: a pass repeats whole steps and never overruns by a partial one.
bool fits(Clock::time_point start, Clock::duration last, double seconds) {
  return std::chrono::duration<double>(Clock::now() - start + last).count() <=
         seconds;
}

/// Graphs a batch run draws from its seed (graph i uses seed * 1000 + i).
constexpr int kGraphsPerRun = 8;
/// Set-ups per graph: each reads (road) or generates (rmat) the input again
/// and builds and counts it, so setup_s is a median of many samples.
constexpr int kSetupsPerGraph = 2;

class BatchWorkload {
 public:
  explicit BatchWorkload(const Options& opt) : opt_(opt) {}

  int run() {
    const bool road = opt_.workload == "road-solve";
    // Graph-to-graph differences move solve times by ~10%, more than the
    // run-to-run noise, so a run solves several graphs drawn from its seed
    // and pools their samples.
    const int graphs = opt_.tiny ? 2 : kGraphsPerRun;
    const Clock::time_point start = Clock::now();
    std::vector<Entry> roster;
    for (int i = 0; i < graphs; ++i) {
      const std::uint64_t seed =
          opt_.seed * 1000 + static_cast<std::uint64_t>(i);
      if (const int rc = load_graph(road, seed); rc != 0) return rc;

      // Oracle: Kruskal, once per graph, outside every timed window.
      {
        ThreadPool one(1);
        RunContext ctx(one);
        oracle_ = mst_algorithm("kruskal").run(graph_.g, ctx);
        if (opt_.corrupt_oracle && !oracle_.edges.empty()) {
          oracle_.edges.front() ^= 1u;
          oracle_.total_weight += 1;
        }
      }

      roster.clear();
      for (const std::string& a : kRoster) {
        if (a == "llp-prim-parallel" && graph_.components != 1) continue;
        roster.push_back({a, a == "llp-prim" || a == "kruskal" ? 1u : 4u});
      }
      // The time left is shared out over the graphs still to solve, so
      // set-up and oracle time come out of the solve passes and a run lasts
      // about --seconds.
      const double left =
          opt_.seconds -
          std::chrono::duration<double>(Clock::now() - start).count();
      const double pass_s =
          std::max(0.0, left / (graphs - i)) / (opt_.trace ? 2 : 1);
      std::vector<Entry> untraced = roster;
      if (opt_.trace) {
        // parallel.speedup needs every parallel entry at 1T as well.
        for (const std::string& a : kParallelRoster) {
          if (a == "llp-prim-parallel" && graph_.components != 1) continue;
          untraced.push_back({a, 1});
        }
      }
      const std::size_t auto_before = untraced_["auto"].size();
      solve_pass(untraced, pass_s, false, untraced_);
      std::vector<double> auto_ms;
      for (std::size_t k = auto_before; k < untraced_["auto"].size(); ++k) {
        auto_ms.push_back(untraced_["auto"][k].ms);
      }
      std::printf("graph      : %d, auto p50 %.2f ms over %zu solves\n", i,
                  median(auto_ms), auto_ms.size());
      if (opt_.trace) {
        g_tracer.set_on(true);
        obs::set_enabled(true);
        solve_pass(roster, pass_s, true, traced_);
        obs::set_enabled(false);
        g_tracer.set_on(false);
      }
    }

    Report report;
    if (!opt_.trace) {
      // Roster throughput: one solve by each engine, back to back, at its
      // median.  `auto` runs one of the other entries' engines, so it is
      // left out.  Medians, not the summed solve times, so that a few slow
      // solves in the bimodal 4T LLP-Prim engine do not swing the figure.
      std::size_t engines = 0;
      double sum_ms = 0;
      for (const Entry& e : roster) {
        if (e.algo == "auto") continue;
        engines += 1;
        sum_ms += median(ms_of(untraced_, e.key()));
      }
      report.set("setup_s", median(setup_s_), "s", setup_s_.size());
      report.set("peak_rss_mb", peak_rss_mb(), "MiB");
      report.set("auto_ms.p50", median(ms_of(untraced_, "auto")), "ms",
                 untraced_["auto"].size());
      report.set("solves_per_s",
                 sum_ms > 0 ? 1000.0 * static_cast<double>(engines) / sum_ms
                            : 0.0,
                 "1/s", engines);
    } else {
      set_per_layer_defaults(report);
      per_layer(report, roster);
    }
    return finish(report, opt_);
  }

 private:
  /// Writes the graph's fixture (road: a DIMACS .gr), then times set-up
  /// kSetupsPerGraph times: input -> solver-ready (parse or generate, build,
  /// census).  The last set-up's graph is kept.  Returns a process exit code
  /// (0 = ready).
  int load_graph(bool road, std::uint64_t seed) {
    const std::string gr_path = opt_.work_dir + "/road.gr";
    if (road) {
      RoadParams p;
      p.width = p.height = opt_.tiny ? 64 : 512;
      p.seed = seed;
      const Status st = write_dimacs(gr_path, generate_road_network(p));
      if (!st.ok()) {
        std::fprintf(stderr, "cannot write fixture: %s\n",
                     st.to_string().c_str());
        return 2;
      }
    }
    if (opt_.trace) g_tracer.set_on(true);
    for (int k = 0; k < (opt_.tiny ? 1 : kSetupsPerGraph); ++k) {
      graph_ = BatchGraph{};
      ScopedSpan setup("setup");
      EdgeList list;
      if (road) {
        ScopedSpan span("graph.parse");
        Expected<EdgeList> loaded = read_graph(gr_path);
        if (!loaded.ok()) {
          std::fprintf(stderr, "cannot read fixture: %s\n",
                       loaded.status().to_string().c_str());
          return 2;
        }
        list = std::move(*loaded);
      } else {
        ScopedSpan span("graph.generate");
        RmatParams p;
        p.scale = opt_.tiny ? 10 : 16;
        p.seed = seed;
        list = generate_rmat(p);
      }
      {
        ScopedSpan span("graph.build");
        graph_.g = CsrGraph::build(list);
      }
      {
        ScopedSpan span("core.census");
        RunContext ctx;
        graph_.components = ctx.num_components(graph_.g);
      }
      setup_s_.push_back(setup.stop() / 1000.0);
    }
    g_tracer.set_on(false);
    std::error_code ec;
    std::filesystem::remove(gr_path, ec);
    csr_mb_.push_back(csr_mb(graph_.g));
    std::printf("graph      : seed %llu, %zu vertices, %zu edges, %zu "
                "components, set-up %.1f ms\n",
                static_cast<unsigned long long>(seed),
                graph_.g.num_vertices(), graph_.g.num_edges(),
                graph_.components, setup_s_.back() * 1000.0);
    if (road && graph_.components != 1) {
      std::fprintf(stderr, "road fixture is not connected\n");
      return 2;
    }
    return 0;
  }

  /// Solves round-robin over `entries` for `seconds`, appending to `out`.
  void solve_pass(const std::vector<Entry>& entries, double seconds,
                  bool traced,
                  std::map<std::string, std::vector<SolveRecord>>& out) {
    ThreadPool pool4(4);
    ThreadPool pool1(1);
    // Round-robin over the roster so every entry sees the same conditions:
    // at least one full round, and another only while it fits in `seconds`.
    const Clock::time_point start = Clock::now();
    Clock::duration last_round{};
    do {
      const Clock::time_point round_start = Clock::now();
      for (const Entry& e : entries) {
        out[e.key()].push_back(
            solve_once(e, e.threads == 1 ? pool1 : pool4, traced));
      }
      last_round = Clock::now() - round_start;
    } while (fits(start, last_round, seconds));
  }

  SolveRecord solve_once(const Entry& e, ThreadPool& pool, bool traced) {
    const CsrGraph& g = graph_.g;
    SolveRecord rec;
    if (traced) {
      obs::reset_metrics();
      obs::reset_rounds();
      obs::sched_start();
    }
    MstResult result;
    std::string picked = e.algo;
    const std::uint64_t allocs0 = obs::mem_sample().alloc_count;
    {
      ScopedSpan span("mst.solve", "algo", e.key());
      RunContext ctx(pool);
      if (e.algo == "auto") {
        AutoMstResult a = minimum_spanning_forest(g, ctx);
        result = std::move(a.result);
        picked = a.algorithm;
      } else {
        result = mst_algorithm(e.algo).run(g, ctx);
      }
      rec.ms = span.stop();
    }
    rec.allocs =
        static_cast<double>(obs::mem_sample().alloc_count - allocs0);
    rec.stats = result.stats;
    if (traced) {
      obs::sched_stop();
      rec.phase_self_ms = phase_self_ms(obs::snapshot_phases());
      double named = 0;
      for (const auto& [phase, ms] : rec.phase_self_ms) named += ms;
      rec.coverage = rec.ms > 0 ? named / rec.ms : 0;
      const obs::SchedulerSummary s =
          obs::analyze_sched(obs::snapshot_sched_events());
      rec.utilization =
          rec.ms > 0 ? static_cast<double>(s.busy_us) /
                           (rec.ms * 1000.0 *
                            static_cast<double>(pool.num_threads()))
                     : 0;
    }
    check(e, picked, result);
    return rec;
  }

  /// The answer must match the oracle exactly and pass the O(n+m) shape and
  /// spanning check.  Runs outside the solve's timed window.
  void check(const Entry& e, const std::string& picked, const MstResult& r) {
    const CsrGraph& g = graph_.g;
    if (r.stats.outcome != RunOutcome::kOk) {
      g_checks.fail(e.key() + ": outcome " +
                    run_outcome_name(r.stats.outcome));
      return;
    }
    if (r.edges != oracle_.edges || r.total_weight != oracle_.total_weight) {
      g_checks.fail(e.key() + " (" + picked +
                    "): forest differs from the Kruskal oracle");
      return;
    }
    VerifyResult v;
    {
      ScopedSpan span("mst.verify");
      v = verify_spanning_forest(g, r);
      verify_ms_.push_back(span.stop());
    }
    if (!v.ok) {
      g_checks.fail(e.key() + ": verify_spanning_forest: " + v.error);
      return;
    }
    g_checks.pass();
  }

  static std::vector<double> ms_of(
      const std::map<std::string, std::vector<SolveRecord>>& pass,
      const std::string& key) {
    std::vector<double> out;
    const auto it = pass.find(key);
    if (it == pass.end()) return out;
    for (const SolveRecord& r : it->second) out.push_back(r.ms);
    return out;
  }

  template <typename F>
  static double median_of(
      const std::map<std::string, std::vector<SolveRecord>>& pass,
      const std::string& key, F f) {
    std::vector<double> out;
    const auto it = pass.find(key);
    if (it == pass.end()) return 0.0;
    for (const SolveRecord& r : it->second) out.push_back(f(r));
    return median(out);
  }

  void per_layer(Report& report, const std::vector<Entry>& roster) {
    for (const char* layer :
         {"graph.parse", "graph.generate", "graph.build", "core.census"}) {
      const std::vector<double> self = g_tracer.self_ms(layer);
      report.set(std::string(layer) + "_ms", median(self), "ms", self.size());
    }
    report.set("graph.csr_mb", median(csr_mb_), "MiB", csr_mb_.size());
    report.set("mst.verify_ms", median(verify_ms_), "ms", verify_ms_.size());

    double untraced_sum = 0, traced_sum = 0;
    for (const Entry& e : roster) {
      untraced_sum += median(ms_of(untraced_, e.key()));
      traced_sum += median(ms_of(traced_, e.key()));
    }
    report.set("trace.overhead_frac",
               untraced_sum > 0 ? traced_sum / untraced_sum - 1.0 : 0.0,
               "ratio", roster.size());

    for (const std::string& a : kRoster) {
      const std::size_t n = untraced_.count(a) ? untraced_.at(a).size() : 0;
      report.set("solve_ms." + a, median(ms_of(untraced_, a)), "ms", n);
      report.set("mst.allocs." + a,
                 median_of(untraced_, a, [](const SolveRecord& r) {
                   return r.allocs;
                 }),
                 "count", n);
      const auto stat = [&](const char* name, auto f) {
        report.set(std::string(name) + "." + a,
                   median_of(untraced_, a,
                             [&](const SolveRecord& r) { return f(r.stats); }),
                   "count", n);
      };
      if (reports_prim_stats(a)) {
        stat("llp.sweeps", [](const MstAlgoStats& s) {
          return static_cast<double>(s.llp_sweeps);
        });
        stat("llp.heap_ops", [](const MstAlgoStats& s) {
          return static_cast<double>(s.heap.pushes + s.heap.pops +
                                     s.heap.adjusts);
        });
        report.set("llp.early_fix_frac." + a,
                   median_of(untraced_, a,
                             [](const SolveRecord& r) {
                               const double fixed =
                                   static_cast<double>(r.stats.fixed_via_mwe +
                                                       r.stats.fixed_via_heap);
                               return fixed > 0
                                          ? static_cast<double>(
                                                r.stats.fixed_via_mwe) /
                                                fixed
                                          : 0.0;
                             }),
                   "ratio", n);
      }
      if (reports_boruvka_stats(a)) {
        stat("boruvka.rounds", [](const MstAlgoStats& s) {
          return static_cast<double>(s.rounds);
        });
        stat("boruvka.pointer_jumps", [](const MstAlgoStats& s) {
          return static_cast<double>(s.pointer_jumps);
        });
      }
      const std::size_t nt = traced_.count(a) ? traced_.at(a).size() : 0;
      for (const std::string& phase : phases_of(a)) {
        report.set("phase_ms." + a + "." + phase,
                   median_of(traced_, a,
                             [&](const SolveRecord& r) {
                               const auto it = r.phase_self_ms.find(phase);
                               return it == r.phase_self_ms.end() ? 0.0
                                                                  : it->second;
                             }),
                   "ms", nt);
      }
      if (!phases_of(a).empty()) {
        report.set("phase_coverage." + a,
                   median_of(traced_, a,
                             [](const SolveRecord& r) { return r.coverage; }),
                   "ratio", nt);
      }
    }
    for (const std::string& a : kParallelRoster) {
      const double t4 = median(ms_of(untraced_, a));
      const double t1 = median(ms_of(untraced_, a + "@1T"));
      report.set("parallel.speedup." + a, t4 > 0 ? t1 / t4 : 0.0, "ratio",
                 untraced_.count(a + "@1T") ? untraced_.at(a + "@1T").size()
                                            : 0);
      report.set("parallel.utilization." + a,
                 median_of(traced_, a,
                           [](const SolveRecord& r) { return r.utilization; }),
                 "ratio", traced_.count(a) ? traced_.at(a).size() : 0);
    }
  }

  const Options& opt_;
  BatchGraph graph_;
  MstResult oracle_;
  std::vector<double> setup_s_;
  std::vector<double> csr_mb_;
  std::vector<double> verify_ms_;
  std::map<std::string, std::vector<SolveRecord>> untraced_;
  std::map<std::string, std::vector<SolveRecord>> traced_;
};

// ---------------------------------------------------------------------------
// serve-mixed: llpmstd in-process, driven over a unix socket.

/// One answered query, as the client saw it and as the report states it.
struct QuerySample {
  int index = 0;  // send order within the session
  double ms = 0;  // send -> full response line
  std::size_t bytes = 0;
  double queue_ms = 0;
  double solve_ms = 0;  // run.wall_ms
  double batch = 0;
};

/// A booted service: catalog, query service, listening socket server and
/// its accept thread.  Destruction stops and joins in dependency order.
struct Service {
  std::unique_ptr<serve::GraphCatalog> catalog;
  std::unique_ptr<serve::QueryService> queries;
  std::unique_ptr<serve::SocketServer> server;
  std::thread accept;  // runs server->run()

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() {
    if (server) server->stop();
    if (accept.joinable()) accept.join();
    server.reset();
    queries.reset();
    catalog.reset();
  }
};

/// Reads one '\n'-terminated line, keeping any bytes past it in `buf`.
bool read_line(int fd, std::string& buf, std::string& line) {
  std::size_t scanned = 0;
  char chunk[1 << 16];
  while (true) {
    const std::size_t nl = buf.find('\n', scanned);
    if (nl != std::string::npos) {
      line.assign(buf, 0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    scanned = buf.size();
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  // A stalled service fails the run instead of hanging it.
  timeval timeout{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Parses text[begin, end) as a JSON object; npos bounds fail.
bool parse_section(const std::string& text, std::size_t begin, std::size_t end,
                   serve::Json* out) {
  if (begin == std::string::npos || end == std::string::npos || end <= begin) {
    return false;
  }
  std::string error;
  return serve::parse_json(std::string_view(text).substr(begin, end - begin),
                           out, &error) &&
         out->is_object();
}

/// Checks one response: a run report whose request section says ok and
/// verified, for this query id, solved by `expected_algo`.  The run section
/// opens the report and the request section closes it, so only those two
/// small objects are parsed, however large the report grows.
bool check_response(const std::string& line, const std::string& id,
                    const std::string& expected_algo, QuerySample& sample,
                    std::string* why) {
  static const std::string kHead =
      "{\"schema\":\"llpmst-run-report\",\"schema_version\":4,\"run\":";
  if (line.compare(0, kHead.size(), kHead) != 0) {
    *why = "not a run report: " + line.substr(0, 160);
    return false;
  }
  serve::Json run, request;
  const std::size_t req = line.rfind(",\"request\":{");
  if (!parse_section(line, kHead.size(), line.find(",\"algo\":"), &run) ||
      !parse_section(line, req == std::string::npos ? req : req + 11,
                     line.size() - 1, &request)) {
    *why = "unparseable run or request section";
    return false;
  }
  sample.queue_ms = request.get_number("queue_ms", 0);
  sample.batch = request.get_number("batch", 0);
  sample.solve_ms = run.get_number("wall_ms", 0);
  if (request.get_string("id", "") != id) {
    *why = "response for the wrong query id";
  } else if (request.get_string("status", "") != "ok") {
    *why = "status " + request.get_string("status", "?");
  } else if (!request.get_bool("verified", false)) {
    *why = "not verified";
  } else if (run.get_string("algorithm", "") != expected_algo) {
    *why = "algorithm " + run.get_string("algorithm", "?") + ", expected " +
           expected_algo;
  } else {
    return true;
  }
  *why = id + ": " + *why;
  return false;
}

/// Queries per serve session.  A serve run is one session (two with
/// --trace 1): a fixed amount of work, not a fixed duration, because
/// service state builds up as queries are answered.
constexpr int kQueriesPerSession = 1500;
/// Set-up-only boots before the session.  One boot takes about 20 ms and
/// single boots vary by 20% or more, so setup_s is a median of many.
constexpr int kSetupBoots = 150;

class ServeWorkload {
 public:
  explicit ServeWorkload(const Options& opt) : opt_(opt) {}

  int run() {
    obs::set_enabled(true);  // the daemon's setting
    const std::size_t armed = fail::configure_from_env();
    if (armed > 0) std::printf("failpoints : %zu armed\n", armed);

    // Fixture: the web snapshot, packed to llpmstb before any set-up starts.
    web_path_ = opt_.work_dir + "/web.llpmstb";
    socket_path_ = opt_.work_dir + "/serve.sock";
    {
      RmatParams p;
      p.scale = opt_.tiny ? 8 : 14;
      p.seed = opt_.seed;
      const Status st =
          write_binary_csr(web_path_, CsrGraph::build(generate_rmat(p)));
      if (!st.ok()) {
        std::fprintf(stderr, "cannot write fixture: %s\n",
                     st.to_string().c_str());
        return 2;
      }
    }

    // Set-up-only boots give setup_s more samples; the first also learns
    // what `auto` picks for each snapshot, outside every timed loop.
    if (opt_.trace) g_tracer.set_on(true);
    for (int i = 0; i < (opt_.tiny ? 1 : kSetupBoots); ++i) {
      std::unique_ptr<Service> svc = boot();
      if (svc == nullptr) return 2;
      if (i == 0) learn_expectations(*svc->catalog);
    }
    g_tracer.set_on(false);

    Session untraced;
    if (!run_session(0, untraced)) return 2;
    Report report;
    if (!opt_.trace) {
      report.set("setup_s", median(setup_s_), "s", setup_s_.size());
      report.set("peak_rss_mb", peak_rss_mb(), "MiB");
      report.set("auto_ms.p50", median(untraced.latency_ms()), "ms",
                 untraced.samples.size());
      report.set("solves_per_s", untraced.per_s(), "1/s",
                 untraced.samples.size());
      return finish(report, opt_);
    }
    Session traced;
    g_tracer.set_on(true);
    const bool traced_ok = run_session(1, traced);
    g_tracer.set_on(false);
    if (!traced_ok) return 2;

    set_per_layer_defaults(report);
    const std::vector<double> lat = untraced.latency_ms();
    std::vector<double> queue, solve, overhead, batch;
    for (const QuerySample& q : untraced.samples) {
      queue.push_back(q.queue_ms);
      solve.push_back(q.solve_ms);
      overhead.push_back(q.ms - q.queue_ms - q.solve_ms);
      batch.push_back(q.batch);
    }
    const std::size_t n = lat.size();
    report.set("query_ms.p50", median(lat), "ms", n);
    report.set("query_ms.p99", quantile(lat, 0.99), "ms", n);
    report.set("queries_per_s", untraced.per_s(), "1/s", n);
    report.set("serve.queue_ms.p50", median(queue), "ms", n);
    report.set("serve.queue_ms.p99", quantile(queue, 0.99), "ms", n);
    report.set("serve.solve_ms.p50", median(solve), "ms", n);
    report.set("serve.overhead_ms.p50", median(overhead), "ms", n);
    report.set("serve.batch_mean", mean(batch), "count", n);
    if (n > 0) {
      report.set("serve.response_kb.first",
                 static_cast<double>(untraced.samples.front().bytes) / 1024.0,
                 "KiB", 1);
      report.set("serve.response_kb.last",
                 static_cast<double>(untraced.samples.back().bytes) / 1024.0,
                 "KiB", 1);
    }
    report.set("serve.rejected",
               static_cast<double>(untraced.rejected + traced.rejected),
               "count", 2);
    report.set("graph.mount_ms", median(g_tracer.self_ms("graph.mount")),
               "ms", g_tracer.self_ms("graph.mount").size());
    report.set("graph.csr_mb", csr_mb_, "MiB", 2);
    report.set("core.census_ms", median(census_ms_), "ms", census_ms_.size());
    report.set("mst.verify_ms", median(verify_ms_), "ms", verify_ms_.size());
    const double untraced_s = untraced.per_s();
    report.set("trace.overhead_frac",
               traced.per_s() > 0 ? untraced_s / traced.per_s() - 1.0 : 0.0,
               "ratio", traced.samples.size());
    return finish(report, opt_);
  }

 private:
  struct Session {
    std::vector<QuerySample> samples;  // in send order
    double wall_s = 0;                 // closed-loop wall time
    std::uint64_t rejected = 0;

    [[nodiscard]] std::vector<double> latency_ms() const {
      std::vector<double> out;
      for (const QuerySample& q : samples) out.push_back(q.ms);
      return out;
    }
    [[nodiscard]] double per_s() const {
      return wall_s > 0 ? static_cast<double>(samples.size()) / wall_s : 0;
    }
  };

  /// Boots the service as llpmstd does: catalog loads of both snapshots,
  /// the query service with llpmstd's defaults, a listening unix socket.
  std::unique_ptr<Service> boot() {
    auto svc = std::make_unique<Service>();
    ScopedSpan setup("setup");
    svc->catalog = std::make_unique<serve::GraphCatalog>();
    const std::string road = opt_.tiny ? "road:32" : "road:256";
    Status loaded = Status::Ok();
    {
      ScopedSpan span("serve.load");
      loaded = svc->catalog->load("road", road, opt_.seed).status();
    }
    if (loaded.ok()) {
      ScopedSpan span("graph.mount");
      loaded =
          svc->catalog->load("web", "binfile:" + web_path_, opt_.seed).status();
    }
    if (!loaded.ok()) {
      std::fprintf(stderr, "catalog load failed: %s\n",
                   loaded.to_string().c_str());
      return nullptr;
    }
    svc->queries = std::make_unique<serve::QueryService>(
        *svc->catalog, serve::ServiceOptions{});
    serve::ServerOptions options;
    options.unix_path = socket_path_;
    svc->server = std::make_unique<serve::SocketServer>(*svc->queries, options);
    {
      ScopedSpan span("serve.listen");
      const Status listening = svc->server->listen();
      if (!listening.ok()) {
        std::fprintf(stderr, "cannot listen: %s\n",
                     listening.to_string().c_str());
        return nullptr;
      }
    }
    setup_s_.push_back(setup.stop() / 1000.0);
    Service* raw = svc.get();
    svc->accept = std::thread([raw] { raw->server->run(); });
    return svc;
  }

  /// What `auto` picks for each snapshot at the daemon's one thread per
  /// query, plus the census, verify and CSR-size figures of the snapshots.
  /// The pick's forest must match Kruskal's and pass the spanning check:
  /// serve responses carry no forest, so this is where it is checked.
  void learn_expectations(const serve::GraphCatalog& catalog) {
    for (const char* name : {"road", "web"}) {
      const CsrGraph& g = catalog.get(name)->graph;
      csr_mb_ += csr_mb(g);
      {
        ScopedSpan span("core.census");
        RunContext ctx;
        (void)ctx.num_components(g);
        census_ms_.push_back(span.stop());
      }
      ThreadPool one(1);
      RunContext ctx(one);
      const AutoMstResult picked = minimum_spanning_forest(g, ctx);
      expected_[name] = opt_.corrupt_oracle ? "not-" + picked.algorithm
                                            : picked.algorithm;
      VerifyResult v;
      {
        ScopedSpan span("mst.verify");
        v = verify_spanning_forest(g, picked.result);
        verify_ms_.push_back(span.stop());
      }
      RunContext oracle_ctx(one);
      MstResult oracle = mst_algorithm("kruskal").run(g, oracle_ctx);
      if (opt_.corrupt_oracle && !oracle.edges.empty()) {
        oracle.edges.front() ^= 1u;
      }
      const std::string what =
          std::string(name) + " (" + picked.algorithm + ")";
      if (!v.ok) {
        g_checks.fail(what + ": verify_spanning_forest: " + v.error);
      } else if (picked.result.edges != oracle.edges ||
                 picked.result.total_weight != oracle.total_weight) {
        g_checks.fail(what + ": forest differs from the Kruskal oracle");
      } else {
        g_checks.pass();
      }
    }
  }

  /// One session: a freshly booted service with fresh process-wide obs
  /// state (what a daemon restart gives) answers a fixed number of queries.
  bool run_session(int session, Session& out) {
    obs::reset_metrics();
    obs::reset_rounds();
    obs::clear_warnings();
    std::unique_ptr<Service> svc = boot();
    if (svc == nullptr) return false;
    const Clock::time_point start = Clock::now();
    closed_loop(session, opt_.tiny ? 40 : kQueriesPerSession, out.samples);
    out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    out.rejected = svc->queries->stats().rejected;
    std::sort(out.samples.begin(), out.samples.end(),
              [](const QuerySample& a, const QuerySample& b) {
                return a.index < b.index;
              });
    std::printf("session    : %d, %zu queries, %.1f queries/s\n", session,
                out.samples.size(), out.per_s());
    return true;
  }

  /// Four connections, each sending its next query only after its previous
  /// answer arrived, alternating between the two snapshots.
  void closed_loop(int session, int queries, std::vector<QuerySample>& out) {
    constexpr int kConnections = 4;
    std::atomic<int> next{0};
    std::mutex out_mutex;
    std::vector<std::thread> clients;
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back([&, c] {
        const int fd = connect_unix(socket_path_);
        if (fd < 0) {
          g_checks.fail("cannot connect to " + socket_path_);
          return;
        }
        std::string buf, line;
        for (int i = 0;; ++i) {
          const int k = next.fetch_add(1);
          if (k >= queries) break;
          const char* graph = (c + i) % 2 == 0 ? "road" : "web";
          const std::string id = "s" + std::to_string(session) + "-q" +
                                 std::to_string(k) + "-" + graph;
          const std::string request =
              "{\"op\":\"query\",\"id\":\"" + id + "\",\"graph\":\"" + graph +
              "\",\"algo\":\"auto\",\"verify\":true}\n";
          QuerySample sample;
          sample.index = k;
          bool answered = false;
          {
            ScopedSpan span("serve.query", "query", id);
            answered = send_all(fd, request) && read_line(fd, buf, line);
            sample.ms = span.stop();
          }
          if (!answered) {
            g_checks.fail(id + ": no response");
            break;
          }
          sample.bytes = line.size() + 1;
          std::string why;
          if (check_response(line, id, expected_.at(graph), sample, &why)) {
            g_checks.pass();
          } else {
            g_checks.fail(why);
          }
          std::lock_guard lock(out_mutex);
          out.push_back(sample);
        }
        ::close(fd);
      });
    }
    for (std::thread& t : clients) t.join();
  }

  const Options& opt_;
  std::string web_path_;
  std::string socket_path_;
  /// Snapshot name -> the algorithm `auto` picks for it.
  std::map<std::string, std::string> expected_;
  std::vector<double> setup_s_;
  std::vector<double> census_ms_;
  std::vector<double> verify_ms_;
  double csr_mb_ = 0;
};

// ---------------------------------------------------------------------------
// Entry point.

/// Why this build cannot give trustworthy numbers ("" when it can).
const char* unfit_build() {
#if !defined(__OPTIMIZE__)
  return "built without optimisation; configure with "
         "-DCMAKE_BUILD_TYPE=Release";
#elif !defined(NDEBUG)
  return "built without NDEBUG; configure with -DCMAKE_BUILD_TYPE=Release";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    PERFBENCH_SANITIZED
  return "built with a sanitizer; configure without LLPMST_SANITIZE/"
         "LLPMST_TSAN";
#else
  return "";
#endif
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "road-solve|rmat-solve|serve-mixed --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE] [--tiny] "
               "[--corrupt-oracle]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--corrupt-oracle") {
      opt.corrupt_oracle = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = argv[++i];
    } else if (arg == "--trace-out") {
      opt.trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload != "road-solve" && opt.workload != "rmat-solve" &&
      opt.workload != "serve-mixed") {
    return usage("unknown --workload");
  }
  if (opt.work_dir.empty() || opt.seconds <= 0) {
    return usage("--work-dir and a positive --seconds are required");
  }
  if (const char* why = unfit_build(); *why != '\0') {
    std::fprintf(stderr, "perfbench: refusing to run: %s\n", why);
    return 3;
  }

  std::printf("workload   : %s  seed %llu  seconds %g  trace %d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.tiny ? "  (tiny)" : "");
  std::printf("build      : LLPMST_OBS=%d LLPMST_FAILPOINTS=%d\n", LLPMST_OBS,
              LLPMST_FAILPOINTS);

  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) return usage(("cannot create --work-dir: " + ec.message()).c_str());
  int rc = 0;
  if (opt.workload == "serve-mixed") {
    rc = ServeWorkload(opt).run();
  } else {
    rc = BatchWorkload(opt).run();
  }
  std::filesystem::remove_all(opt.work_dir, ec);
  if (opt.trace && !opt.trace_out.empty()) {
    if (!g_tracer.write_chrome_json(opt.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "trace      : %s\n", opt.trace_out.c_str());
    }
  }
  return rc;
}

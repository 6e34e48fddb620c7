// Repetition/timing harness for the figure benchmarks: runs a callable
// several times (after warmup), verifies the result against a reference on
// the first repetition, and reports median wall time.
//
// When bench-record collection is active (the ObsCli --bench-json flag),
// every measurement also lands in an in-memory list of structured
// datapoints that ObsCli::finish() writes out as JSON Lines — one
// `llpmst-bench` schema document per line:
//
//   {"schema":"llpmst-bench","schema_version":1,"bench":"bench_fig3_scaling",
//    "workload":"Road 262,144","algo":"LLP-Prim","threads":2,
//    "warmup":1,"repetitions":3,"verified":true,
//    "ms":{"median":..,"p25":..,"p75":..,"iqr":..,"min":..,"max":..,
//          "mean":..,"stddev":..},
//    "samples_ms":[..],"hw":null|{..},"mem":{..},"sched":null|{..},
//    "profile":null|{"hz":97,"samples":N,
//                    "top_phases":[{"name":..,"samples":N}, ...x3]}}
//
// "sched" is {"utilization":X} over the timed repetitions.  The "profile"
// section (--profile) brackets the timed repetitions with the sampling
// profiler (obs/profiler.hpp) and records the top-3 hottest phase paths.
// Neither is gated.
//
// tools/bench_compare.py consumes directories of these records for the
// perf-regression gate; tools/check_report_schema.py validates them.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "mst/mst_result.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"

namespace llpmst {

class Table;

struct BenchOptions {
  int warmup = 1;
  int repetitions = 3;
  bool verify = true;  // cross-check the edge set against a reference MSF
};

struct BenchMeasurement {
  std::string name;
  Summary time_ms;        // across repetitions
  MstResult last_result;  // instrumentation from the last repetition
  bool verified = false;  // result matched the reference (when requested)
};

/// Times `run` (which must return the MSF of `g`).  When options.verify is
/// set, compares the edge set of the first repetition with `reference`
/// (dies loudly on mismatch — a benchmark of a wrong algorithm is worse
/// than no benchmark).  When recording is active, also captures a bench
/// record (with the hw-counter delta across the timed repetitions, if the
/// counter group is running).
[[nodiscard]] BenchMeasurement measure_mst(
    const std::string& name, const CsrGraph& g, const MstResult& reference,
    const std::function<MstResult()>& run, const BenchOptions& options = {});

/// Names the workload/thread-count that subsequent measurements belong to
/// (stamped into their bench records).  Benches call this at the top of
/// their workload/thread loops; threads == 0 means single-thread/unknown.
void set_bench_context(const std::string& workload, std::size_t threads = 0);

/// Appends one bench record directly — for benches with bespoke timing
/// loops (e.g. the interleaved fig2 measurement) that bypass measure_mst.
/// No-op unless recording is active.
void record_bench_samples(const std::string& algo,
                          const std::vector<double>& samples_ms, int warmup,
                          bool verified);

/// Shared observability flags for the bench binaries.  Construct before
/// cli.parse() (registers --metrics-json, --trace, --bench-json, --csv-out,
/// --hw-counters, --profile and --profile-hz), call begin() right after
/// parse (flips the runtime gates / opens the hw-counter group / arms
/// record collection), and finish() once the benchmark work is done
/// (writes the run report, trace, and bench records).  With no flag
/// passed, every call is a no-op, so benches pay nothing for carrying the
/// flags.
class ObsCli {
 public:
  explicit ObsCli(CliParser& cli);

  /// Enables metrics collection / trace recording / hw counters / bench
  /// records as requested.
  void begin() const;

  /// Writes the rendered table as CSV to the --csv-out file (truncating on
  /// the first call, appending with a blank separator line after that, so
  /// multi-table benches produce one readable file).  No-op without the
  /// flag.  Returns false after printing to stderr on I/O failure.
  bool write_table(const Table& t) const;

  /// Stops tracing and writes the requested artefacts.  `tool` names the
  /// emitting binary in the report and the bench records; `threads`
  /// (0 = unknown/swept) lands in the report's run section.  Returns false
  /// after printing to stderr if a file could not be written.
  bool finish(const std::string& tool, std::size_t threads = 0) const;

 private:
  std::string* metrics_json_;
  std::string* trace_;
  std::string* bench_json_;
  std::string* csv_out_;
  bool* hw_counters_;
  bool* profile_;
  std::int64_t* profile_hz_;
  mutable bool csv_written_ = false;
};

}  // namespace llpmst

// Named counters and gauges for the observability layer.
//
// Design contract (see docs/observability.md):
//   * Counters are monotonic and sharded: each OS thread owns a cache-line
//     padded slot, so a hot-path `add` is one relaxed atomic on an
//     exclusively-owned line — no contention, no fences.  Aggregation
//     happens on read.
//   * Gauges are last-write-wins scalars set from coordinator code
//     (per-round sizes, configuration echoes).
//   * The whole subsystem has a compile-time switch: building with
//     `-DLLPMST_OBS=0` turns Counter/Gauge/PhaseTimer into empty classes and
//     every recording function into an inline no-op, so instrumented call
//     sites cost nothing (tests static-assert the classes are empty).
//   * With obs compiled in, counters are always live (one relaxed add — the
//     same policy as HeapStats); phase timers and trace spans additionally
//     check the *runtime* flag `obs::enabled()` so un-instrumented runs pay
//     one relaxed load per phase, not per element.
//
// Naming convention: `<subsystem>/<event>` with '/' separators, e.g.
// "llp_prim_parallel/mwe_early_fix", "boruvka/rounds".  Phase paths nest the
// same way ("llp_prim_parallel/heap_flush").
#pragma once

#ifndef LLPMST_OBS
#define LLPMST_OBS 1
#endif

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#if LLPMST_OBS
#include <atomic>
#include <memory>
#endif

namespace llpmst::obs {

/// True when the library was compiled with observability support.
inline constexpr bool kCompiledIn = LLPMST_OBS != 0;

/// One aggregated metric value, as returned by snapshot_metrics().
struct MetricSample {
  std::string name;
  std::uint64_t value = 0;
  bool is_gauge = false;
};

/// One aggregated phase, as returned by snapshot_phases().  `name` is the
/// full nested path ("llp_prim_parallel/heap_flush").
struct PhaseSample {
  std::string name;
  std::uint64_t count = 0;     // completed PhaseTimer scopes
  std::uint64_t total_us = 0;  // summed wall time
};

#if LLPMST_OBS

/// Number of counter shards.  Threads beyond this share slots (the add
/// degrades to a contended fetch_add but stays correct).
inline constexpr std::size_t kNumShards = 64;

/// Small dense id for the calling thread: ThreadPool workers and any other
/// thread get one on first use.  Doubles as the trace `tid`.
[[nodiscard]] std::size_t shard_id();

/// Runtime switch for phase timers and trace spans (counters stay live).
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// Runtime switch for maintaining the per-thread phase *stack* alone —
/// what the sampling profiler (obs/profiler.hpp) reads for attribution —
/// without the timing aggregates, trace events, or the per-scope path
/// string that full `enabled()` mode folds on every PhaseTimer exit.
/// Cost per scope in this mode: two relaxed/release stores, no clock
/// reads, no allocation, no mutex — cheap enough for the benches'
/// profiler-overhead gate (<=3% wall).  Independent of set_enabled();
/// PhaseTimer maintains the stack when either gate is on.
[[nodiscard]] bool phase_stack_enabled();
void set_phase_stack_enabled(bool on);

class Counter {
 public:
  explicit Counter(std::string name);

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Hot path: one relaxed RMW on the calling thread's own cache line
  /// (uncontended below kNumShards threads, still correct above).
  void add(std::uint64_t delta) {
    slots_[shard_id() & (kNumShards - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }

  /// Aggregates all shards.  Concurrent adds may or may not be included.
  [[nodiscard]] std::uint64_t value() const;
  void reset();

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::string name_;
  std::unique_ptr<Slot[]> slots_;
};

class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Raise-only update, for high-water marks.
  void set_max(std::uint64_t v);
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { set(0); }

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

#else  // !LLPMST_OBS — every recorder is an empty no-op.

inline constexpr std::size_t kNumShards = 0;
[[nodiscard]] inline std::size_t shard_id() { return 0; }
[[nodiscard]] inline bool enabled() { return false; }
inline void set_enabled(bool) {}
[[nodiscard]] inline bool phase_stack_enabled() { return false; }
inline void set_phase_stack_enabled(bool) {}

class Counter {
 public:
  void add(std::uint64_t) {}
  void increment() {}
  [[nodiscard]] std::uint64_t value() const { return 0; }
  void reset() {}
};

class Gauge {
 public:
  void set(std::uint64_t) {}
  void set_max(std::uint64_t) {}
  [[nodiscard]] std::uint64_t value() const { return 0; }
  void reset() {}
};

#endif  // LLPMST_OBS

/// Get-or-create a named metric in the process-wide registry.  Cold path
/// (mutex + hash lookup): call once and keep the reference when the metric
/// is hot.  The returned reference lives for the process lifetime.  When
/// observability is compiled out both return a shared dummy.
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);

/// All registered metrics, sorted by name.  Empty when compiled out.
[[nodiscard]] std::vector<MetricSample> snapshot_metrics();
/// All recorded phases, sorted by path.  Empty when compiled out.
[[nodiscard]] std::vector<PhaseSample> snapshot_phases();

/// Zeroes all counters/gauges and clears phase aggregates (the registry
/// entries themselves persist so cached references stay valid).
void reset_metrics();

/// Warnings are always compiled in — they surface correctness-adjacent
/// conditions (e.g. an LLP sweep cap hit) into reports regardless of the
/// obs build flavour.
void add_warning(std::string message);
[[nodiscard]] std::vector<std::string> snapshot_warnings();
void clear_warnings();

/// Microseconds since the process-wide observability epoch (first use);
/// the time base for phase spans and trace events.
[[nodiscard]] std::uint64_t now_us();
/// Nanoseconds since the same epoch (now_us() == now_ns() / 1000): the lap
/// clock of PhaseLaps, which sums sub-microsecond laps without rounding.
[[nodiscard]] std::uint64_t now_ns();

/// Escapes and double-quotes a string for JSON output ("ab\"c" -> "\"ab\\\"c\"").
[[nodiscard]] std::string json_quote(std::string_view s);

namespace detail {
#if LLPMST_OBS
/// Nested-phase support for PhaseTimer: push a frame, then pop it and fold
/// the elapsed time into the aggregate for the '/'-joined path (and into the
/// active trace, if any).
void phase_push(const char* name);
void phase_pop(std::uint64_t start_us);
/// Pops without folding into the timing aggregate or the trace — the
/// stack-only mode (phase_stack_enabled() without enabled()): one relaxed
/// store, so hot-loop scopes stay cheap while the profiler samples them.
void phase_pop_fast();
/// PhaseLaps support: rename the calling thread's top frame in place (the
/// next lap's phase), and fold `count` laps summing `total_ns` into the
/// aggregate for "<current path>/<name>" (truncated to whole microseconds).
void phase_rename_top(const char* name);
void phase_fold(const char* name, std::uint64_t count,
                std::uint64_t total_ns);
/// The '/'-joined path of the PhaseTimers live on the calling thread
/// ("" outside any phase).  Used by ScopedHwCounters for attribution.
[[nodiscard]] std::string phase_path();

/// Frames deeper than this are counted but not recorded (phase_path()
/// renders the stored prefix; real nesting depth is ~4).
inline constexpr std::size_t kMaxPhaseDepth = 16;

/// The per-thread stack of live PhaseTimer frames, laid out so the sampling
/// profiler's signal handler can read it asynchronously on the owning
/// thread: `frames[i]` is written *before* `depth` publishes it (release
/// store), and pop only moves `depth` down — so a handler that loads
/// `depth` and then reads `frames[0..min(depth, kMaxPhaseDepth))` always
/// sees string literals that were live at some instant.  The literals
/// themselves have static storage, so a momentarily stale frame is a stale
/// *attribution*, never a dangling read.
struct PhaseStack {
  const char* frames[kMaxPhaseDepth] = {};
  std::atomic<std::uint32_t> depth{0};
};

/// The calling thread's phase stack.  The address is stable for the
/// thread's lifetime; the profiler captures it once at thread registration.
[[nodiscard]] PhaseStack& phase_stack();
#endif
}  // namespace detail

}  // namespace llpmst::obs

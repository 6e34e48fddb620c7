// RAII nested phase timing.
//
//   {
//     obs::PhaseTimer t("llp_prim_parallel");
//     ...
//     { obs::PhaseTimer f("heap_flush"); flush(); }   // -> "llp_prim_parallel/heap_flush"
//   }
//
// Phases nest per thread: the recorded name is the '/'-joined path of all
// live PhaseTimers on the current thread, which is how coarse algorithm
// spans ("llp_prim_parallel") and their inner stages ("heap_flush") line up
// in reports and traces without threading a prefix through every call.
//
// Cost: when both gates are off (the default), construction is two relaxed
// loads and a branch — safe inside per-round loops.  When obs::enabled(),
// each scope is two clock reads plus a path string, a map lookup and one
// process-wide mutex at scope exit, so place timers at round/phase
// granularity, not per element.  Completed scopes also become trace "X"
// events while a trace is collecting.  The rule: `PhaseTimer` per round,
// `PhaseLaps` inside per-super-step loops.  PhaseLaps (below) splits a loop
// into contiguous laps over a fixed set of phases; each lap costs one clock
// read and no lock, and the sums fold into the registry once per object.
//
// When only obs::phase_stack_enabled() is on (the sampling profiler's
// attribution mode), each scope maintains the per-thread phase stack the
// SIGPROF handler reads — a handful of relaxed/release stores, no clocks,
// no allocation — and records nothing else.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace llpmst::obs {

#if LLPMST_OBS

class PhaseTimer {
 public:
  /// `name` must outlive the scope (string literals in practice).
  explicit PhaseTimer(const char* name) {
    if (enabled()) {
      mode_ = kFull;
      detail::phase_push(name);
      start_us_ = now_us();
    } else if (phase_stack_enabled()) {
      mode_ = kStackOnly;
      detail::phase_push(name);
    }
  }
  ~PhaseTimer() {
    if (mode_ == kFull) {
      detail::phase_pop(start_us_);
    } else if (mode_ == kStackOnly) {
      detail::phase_pop_fast();
    }
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  enum Mode : unsigned char { kOff, kStackOnly, kFull };
  Mode mode_ = kOff;
  std::uint64_t start_us_ = 0;
};

/// Contiguous laps over a fixed set of phases, for loops that would
/// otherwise open a PhaseTimer per phase per super-step:
///
///   enum : std::size_t { kRelax, kHeapFlush, kHeapPop };
///   obs::PhaseLaps laps({"relax", "heap_flush", "heap_pop"});
///   for (;;) { laps.enter(kRelax); ...; laps.enter(kHeapFlush); ... }
///
/// `enter(i)` closes the open lap and opens phase `i`, so one clock read
/// serves each boundary.  Each phase's slot sums its laps in nanoseconds
/// and counts one per lap; the destructor closes the last lap and folds
/// every non-empty slot into the registry under the enclosing path
/// ("llp_prim" -> "llp_prim/relax"), truncating to whole microseconds once
/// there.  A phase's `count` is therefore its number of laps, and its total
/// is a lap sum that never exceeds the enclosing scope's total.
///
/// Modes follow PhaseTimer's, fixed at construction: off (one cached bool,
/// no clock read); stack-only (one frame whose name `enter` rewrites, so the
/// profiler attributes samples to the open lap); full (the frame, the lap
/// sums, and a trace "X" event per lap while a trace is collecting).
template <std::size_t N>
class PhaseLaps {
 public:
  /// The array is copied; the names themselves must outlive the object
  /// (string literals in practice).
  explicit PhaseLaps(const char* const (&names)[N]) {
    for (std::size_t i = 0; i < N; ++i) names_[i] = names[i];
    if (enabled()) {
      mode_ = kFull;
    } else if (phase_stack_enabled()) {
      mode_ = kStackOnly;
    }
  }
  ~PhaseLaps() {
    if (open_ == kNone) return;  // off, or never entered
    if (mode_ == kFull) close_lap(now_ns());
    detail::phase_pop_fast();
    if (mode_ != kFull) return;
    for (std::size_t i = 0; i < N; ++i) {
      if (count_[i] != 0) {
        detail::phase_fold(names_[i], count_[i], total_ns_[i]);
      }
    }
  }

  PhaseLaps(const PhaseLaps&) = delete;
  PhaseLaps& operator=(const PhaseLaps&) = delete;

  void enter(std::size_t phase) {
    if (mode_ == kOff) return;
    if (mode_ == kFull) {
      const std::uint64_t now = now_ns();
      if (open_ != kNone) close_lap(now);
      lap_start_ns_ = now;
    }
    if (open_ == kNone) {
      detail::phase_push(names_[phase]);
    } else {
      detail::phase_rename_top(names_[phase]);
    }
    open_ = phase;
  }

 private:
  static constexpr std::size_t kNone = N;
  enum Mode : unsigned char { kOff, kStackOnly, kFull };

  // Full mode only; the open lap's name is still the top frame here.
  void close_lap(std::uint64_t end_ns) {
    ++count_[open_];
    total_ns_[open_] += end_ns - lap_start_ns_;
    if (trace_collecting()) {
      trace_emit(detail::phase_path(), lap_start_ns_ / 1000,
                 end_ns / 1000 - lap_start_ns_ / 1000);
    }
  }

  Mode mode_ = kOff;
  std::size_t open_ = kNone;
  std::uint64_t lap_start_ns_ = 0;
  const char* names_[N];
  std::uint64_t count_[N] = {};
  std::uint64_t total_ns_[N] = {};
};

#else

class PhaseTimer {
 public:
  explicit PhaseTimer(const char*) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
};

template <std::size_t N>
class PhaseLaps {
 public:
  explicit PhaseLaps(const char* const (&)[N]) {}
  PhaseLaps(const PhaseLaps&) = delete;
  PhaseLaps& operator=(const PhaseLaps&) = delete;
  void enter(std::size_t) {}
};

#endif  // LLPMST_OBS

}  // namespace llpmst::obs

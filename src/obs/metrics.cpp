#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "obs/trace.hpp"

namespace llpmst::obs {

namespace {

// Warnings live outside the #if: non-convergence and overflow conditions
// must surface in reports even in an LLPMST_OBS=0 build.
struct WarningStore {
  std::mutex mu;
  std::vector<std::string> messages;
};

WarningStore& warnings() {
  static WarningStore* w = new WarningStore;  // leaked: outlives all threads
  return *w;
}

}  // namespace

void add_warning(std::string message) {
  WarningStore& w = warnings();
  std::lock_guard lock(w.mu);
  w.messages.push_back(std::move(message));
}

std::vector<std::string> snapshot_warnings() {
  WarningStore& w = warnings();
  std::lock_guard lock(w.mu);
  return w.messages;
}

void clear_warnings() {
  WarningStore& w = warnings();
  std::lock_guard lock(w.mu);
  w.messages.clear();
}

std::uint64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

std::uint64_t now_us() { return now_ns() / 1000; }

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

#if LLPMST_OBS

namespace {

struct PhaseAgg {
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;
};

// Registry of every named metric and phase aggregate.  Intentionally leaked
// (metrics are process-lifetime; cached Counter& references in algorithm
// code must never dangle, including during static destruction).
struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges;

  std::mutex phase_mu;
  std::unordered_map<std::string, PhaseAgg> phases;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

std::atomic<bool> g_enabled{false};

void add_phase_totals(const std::string& path, std::uint64_t count,
                      std::uint64_t total_us) {
  Registry& r = registry();
  std::lock_guard lock(r.phase_mu);
  PhaseAgg& agg = r.phases[path];
  agg.count += count;
  agg.total_us += total_us;
}

// Per-thread stack of live PhaseTimer frames; phase_pop joins it into the
// recorded path.  Fixed-capacity with an atomic depth so the profiler's
// SIGPROF handler can snapshot it mid-update (see detail::PhaseStack).
thread_local detail::PhaseStack tls_phase_stack;

}  // namespace

std::size_t shard_id() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::atomic<bool> g_phase_stack{false};
bool phase_stack_enabled() {
  return g_phase_stack.load(std::memory_order_relaxed);
}
void set_phase_stack_enabled(bool on) {
  g_phase_stack.store(on, std::memory_order_relaxed);
}

Counter::Counter(std::string name)
    : name_(std::move(name)), slots_(new Slot[kNumShards]) {}

std::uint64_t Counter::value() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kNumShards; ++i) {
    sum += slots_[i].v.load(std::memory_order_relaxed);
  }
  return sum;
}

void Counter::reset() {
  for (std::size_t i = 0; i < kNumShards; ++i) {
    slots_[i].v.store(0, std::memory_order_relaxed);
  }
}

void Gauge::set_max(std::uint64_t v) {
  std::uint64_t cur = value_.load(std::memory_order_relaxed);
  while (cur < v && !value_.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

Counter& counter(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  auto it = r.counters.find(std::string(name));
  if (it == r.counters.end()) {
    it = r.counters
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return *it->second;
}

Gauge& gauge(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  auto it = r.gauges.find(std::string(name));
  if (it == r.gauges.end()) {
    it = r.gauges
             .emplace(std::string(name),
                      std::make_unique<Gauge>(std::string(name)))
             .first;
  }
  return *it->second;
}

std::vector<MetricSample> snapshot_metrics() {
  Registry& r = registry();
  std::vector<MetricSample> out;
  {
    std::lock_guard lock(r.mu);
    out.reserve(r.counters.size() + r.gauges.size());
    for (const auto& [name, c] : r.counters) {
      out.push_back({name, c->value(), false});
    }
    for (const auto& [name, g] : r.gauges) {
      out.push_back({name, g->value(), true});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<PhaseSample> snapshot_phases() {
  Registry& r = registry();
  std::vector<PhaseSample> out;
  {
    std::lock_guard lock(r.phase_mu);
    out.reserve(r.phases.size());
    for (const auto& [name, agg] : r.phases) {
      out.push_back({name, agg.count, agg.total_us});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const PhaseSample& a, const PhaseSample& b) {
              return a.name < b.name;
            });
  return out;
}

void reset_metrics() {
  Registry& r = registry();
  {
    std::lock_guard lock(r.mu);
    for (auto& [name, c] : r.counters) c->reset();
    for (auto& [name, g] : r.gauges) g->reset();
  }
  {
    std::lock_guard lock(r.phase_mu);
    r.phases.clear();
  }
}

namespace detail {

PhaseStack& phase_stack() { return tls_phase_stack; }

void phase_push(const char* name) {
  PhaseStack& st = tls_phase_stack;
  const std::uint32_t d = st.depth.load(std::memory_order_relaxed);
  if (d < kMaxPhaseDepth) st.frames[d] = name;
  // Release: the frame write above must be visible before the new depth —
  // a SIGPROF handler that observes d+1 must see frames[d] populated.
  st.depth.store(d + 1, std::memory_order_release);
}

std::string phase_path() {
  const PhaseStack& st = tls_phase_stack;
  const std::uint32_t d = std::min<std::uint32_t>(
      st.depth.load(std::memory_order_relaxed),
      static_cast<std::uint32_t>(kMaxPhaseDepth));
  std::string path;
  for (std::uint32_t i = 0; i < d; ++i) {
    if (!path.empty()) path.push_back('/');
    path += st.frames[i];
  }
  return path;
}

void phase_pop(std::uint64_t start_us) {
  const std::uint64_t end_us = now_us();
  const std::uint64_t dur_us = end_us - start_us;

  const std::string path = phase_path();
  {
    PhaseStack& st = tls_phase_stack;
    st.depth.store(st.depth.load(std::memory_order_relaxed) - 1,
                   std::memory_order_relaxed);
  }

  add_phase_totals(path, 1, dur_us);
  if (trace_collecting()) trace_emit(path, start_us, dur_us);
}

void phase_pop_fast() {
  PhaseStack& st = tls_phase_stack;
  st.depth.store(st.depth.load(std::memory_order_relaxed) - 1,
                 std::memory_order_relaxed);
}

void phase_rename_top(const char* name) {
  // A pointer-sized store to a live frame: a SIGPROF handler that lands
  // mid-update sees the old or the new literal, both valid.
  PhaseStack& st = tls_phase_stack;
  const std::uint32_t d = st.depth.load(std::memory_order_relaxed);
  if (d != 0 && d <= kMaxPhaseDepth) st.frames[d - 1] = name;
}

void phase_fold(const char* name, std::uint64_t count,
                std::uint64_t total_ns) {
  std::string path = phase_path();
  if (!path.empty()) path.push_back('/');
  path += name;
  add_phase_totals(path, count, total_ns / 1000);
}

}  // namespace detail

#else  // !LLPMST_OBS

namespace {
// Shared dummies so counter()/gauge() can hand out references.
Counter g_dummy_counter;
Gauge g_dummy_gauge;
}  // namespace

Counter& counter(std::string_view) { return g_dummy_counter; }
Gauge& gauge(std::string_view) { return g_dummy_gauge; }
std::vector<MetricSample> snapshot_metrics() { return {}; }
std::vector<PhaseSample> snapshot_phases() { return {}; }
void reset_metrics() {}

#endif  // LLPMST_OBS

}  // namespace llpmst::obs

#include "obs/exposition.hpp"

#include <cstdio>
#include <map>
#include <set>
#include <string_view>

#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/round_stats.hpp"

namespace llpmst::obs {

namespace {

/// "llp_prim/heap_inserts" -> "llpmst_llp_prim_heap_inserts".
std::string sanitize(std::string_view name) {
  std::string out = "llpmst_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Escapes a label value per the exposition format (backslash, quote, LF).
std::string escape_label(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

void append_type(std::string& out, const std::string& family,
                 const char* type) {
  out += "# TYPE ";
  out += family;
  out.push_back(' ');
  out += type;
  out.push_back('\n');
}

}  // namespace

std::string render_openmetrics() {
  std::string out;
  // Family names already emitted: a sanitized collision must not produce a
  // second family with the same name (spec violation), so later ones skip.
  std::set<std::string> seen;
  auto claim = [&seen, &out](const std::string& family) {
    if (seen.insert(family).second) return true;
    out += "# skipped: duplicate family after sanitization: " + family + "\n";
    return false;
  };

  for (const MetricSample& m : snapshot_metrics()) {
    const std::string family = sanitize(m.name);
    if (!claim(family)) continue;
    if (m.is_gauge) {
      append_type(out, family, "gauge");
      out += family;
    } else {
      append_type(out, family, "counter");
      out += family + "_total";
    }
    out.push_back(' ');
    append_u64(out, m.value);
    out.push_back('\n');
  }

  const std::vector<PhaseSample> phases = snapshot_phases();
  if (!phases.empty()) {
    append_type(out, "llpmst_phase_seconds", "counter");
    for (const PhaseSample& p : phases) {
      out += "llpmst_phase_seconds_total{phase=\"" + escape_label(p.name) +
             "\"} ";
      append_double(out, static_cast<double>(p.total_us) * 1e-6);
      out.push_back('\n');
    }
    append_type(out, "llpmst_phase_count", "counter");
    for (const PhaseSample& p : phases) {
      out += "llpmst_phase_count_total{phase=\"" + escape_label(p.name) +
             "\"} ";
      append_u64(out, p.count);
      out.push_back('\n');
    }
  }

  const SchedulerSummary sched = scheduler_summary();
  if (sched.has_events) {
    append_type(out, "llpmst_sched_utilization_ratio", "gauge");
    out += "llpmst_sched_utilization_ratio ";
    append_double(out, sched.utilization);
    out.push_back('\n');
    append_type(out, "llpmst_sched_critical_path_seconds", "gauge");
    out += "llpmst_sched_critical_path_seconds ";
    append_double(out, static_cast<double>(sched.critical_path_us) * 1e-6);
    out.push_back('\n');
    append_type(out, "llpmst_sched_worker_busy_seconds", "counter");
    for (const WorkerBreakdown& w : sched.workers) {
      out += "llpmst_sched_worker_busy_seconds_total{worker=\"";
      append_u64(out, w.worker);
      out += "\"} ";
      append_double(out, static_cast<double>(w.busy_us) * 1e-6);
      out.push_back('\n');
    }
    append_type(out, "llpmst_sched_dropped_events", "counter");
    out += "llpmst_sched_dropped_events_total ";
    append_u64(out, sched.dropped_events);
    out.push_back('\n');
  }

  // Rounds aggregate per site: how many rounds and how long they took.
  std::map<std::string, std::pair<std::uint64_t, double>> sites;
  for (const RoundRecord& r : snapshot_rounds()) {
    auto& [count, wall_ms] = sites[r.label];
    ++count;
    wall_ms += r.wall_ms;
  }
  if (!sites.empty()) {
    append_type(out, "llpmst_solver_rounds", "gauge");
    for (const auto& [site, agg] : sites) {
      out += "llpmst_solver_rounds{site=\"" + escape_label(site) + "\"} ";
      append_u64(out, agg.first);
      out.push_back('\n');
    }
    append_type(out, "llpmst_solver_round_seconds", "counter");
    for (const auto& [site, agg] : sites) {
      out += "llpmst_solver_round_seconds_total{site=\"" +
             escape_label(site) + "\"} ";
      append_double(out, agg.second * 1e-3);
      out.push_back('\n');
    }
  }

  append_type(out, "llpmst_warnings", "gauge");
  out += "llpmst_warnings ";
  append_u64(out, snapshot_warnings().size());
  out.push_back('\n');

  append_type(out, "llpmst_build_info", "gauge");
  out += "llpmst_build_info{obs=\"";
  out += kCompiledIn ? '1' : '0';
  out += "\"} 1\n";

  out += "# EOF\n";
  return out;
}

const char* openmetrics_content_type() {
  return "application/openmetrics-text; version=1.0.0; charset=utf-8";
}

bool write_openmetrics(const std::string& path, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const std::string doc = render_openmetrics();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

}  // namespace llpmst::obs

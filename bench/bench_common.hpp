// Shared plumbing for the figure benchmarks: standard workload graphs at
// benchmark scale (overridable via flags), and row-emission helpers.
//
// Scale note: the paper ran 23.9M-vertex USA-road and 33M-vertex graph500
// s25 on a 48-vCPU GCE C2 machine.  The default sizes here reproduce the
// same morphologies at laptop scale (hundreds of thousands of vertices) so
// every figure regenerates in about a minute; pass --road-side / --scale to
// grow them toward the paper's sizes on bigger hardware.
#pragma once

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/harness.hpp"
#include "bench_util/table.hpp"
#include "graph/algorithms/degree_stats.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/road.hpp"
#include "mst/kruskal.hpp"
#include "scenario/scenario.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"

namespace llpmst::bench {

struct Workload {
  std::string name;   // e.g. "USA-road (synthetic 262k)"
  std::string type;   // "road" / "scalefree"
  CsrGraph graph;
};

/// Synthetic stand-in for USA-road-d.USA: side x side grid road network.
inline Workload make_road_workload(std::uint32_t side,
                                   std::uint64_t seed = 1) {
  RoadParams p;
  p.width = side;
  p.height = side;
  p.seed = seed;
  EdgeList list = generate_road_network(p);
  Workload w;
  w.name = "Road " + format_count(list.num_vertices());
  w.type = "road";
  w.graph = CsrGraph::build(list);
  return w;
}

/// Synthetic stand-in for graph500-sNN-ef16, connected for Prim-family use.
/// A smaller edge factor keeps the Graph500 shape at a lower m/n.
inline Workload make_graph500_workload(int scale, std::uint64_t seed = 1,
                                       bool connect = true,
                                       int edge_factor = 16) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  EdgeList list = generate_rmat(p);
  if (connect) connect_components(list);
  Workload w;
  w.name = "Graph500 s" + std::to_string(scale);
  if (edge_factor != 16) w.name += " ef" + std::to_string(edge_factor);
  w.type = "scalefree";
  w.graph = CsrGraph::build(list);
  return w;
}

/// Random geometric graph: 2^scale points in the unit square, each joined
/// to its `neighbors` nearest, patched connected.  Local like a road
/// network, with a density set by `neighbors`.
inline Workload make_knn_workload(int scale, std::uint32_t neighbors,
                                  std::uint64_t seed = 1) {
  GeometricParams p;
  p.num_vertices = 1u << scale;
  p.neighbors = neighbors;
  p.seed = seed;
  EdgeList list = generate_geometric(p);
  connect_components(list, seed);
  Workload w;
  w.name = "kNN s" + std::to_string(scale) + " k" + std::to_string(neighbors);
  w.type = "geometric";
  w.graph = CsrGraph::build(list);
  return w;
}

/// A workload from the adversarial scenario registry (src/scenario/), so
/// benches stress the same named regimes the conformance/chaos tests run
/// instead of re-inventing ad-hoc generator parameters.  The record
/// workload name is "scenario:<name>" — stable across seeds, so baselines
/// key on the regime, not the instance.
inline Workload make_scenario_workload(const Scenario& s,
                                       std::uint64_t seed = 1) {
  Workload w;
  w.name = std::string("scenario:") + s.name;
  w.type = s.family;
  w.graph = CsrGraph::build(s.make(seed));
  return w;
}

/// Resolves a `--workload` spec:
///   "scenario:NAME"  — a registry scenario's generator at bench seed;
///   "road:SIDE"      — the side x side grid road network;
///   "rmat:SCALE[:EF]" — the connected Graph500-style R-MAT, edge factor
///                      EF (default 16);
///   "knn:SCALE:K"    — the connected random geometric K-nearest graph.
/// Returns false with a message in *error (including the known scenario
/// names on a typo) instead of exiting, so benches can report through
/// their own CLI error path.
inline bool make_workload_spec(const std::string& spec, std::uint64_t seed,
                               Workload* out, std::string* error) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (kind == "scenario") {
    const Scenario* s = find_scenario(arg);
    if (s == nullptr) {
      if (error != nullptr) {
        *error = "unknown scenario '" + arg + "' (known: " +
                 scenario_names(", ") + ")";
      }
      return false;
    }
    *out = make_scenario_workload(*s, seed);
    return true;
  }
  if (kind == "road") {
    const long side = std::strtol(arg.c_str(), nullptr, 10);
    if (side <= 0) {
      if (error != nullptr) *error = "bad road side '" + arg + "'";
      return false;
    }
    *out = make_road_workload(static_cast<std::uint32_t>(side), seed);
    return true;
  }
  if (kind == "rmat") {
    char* rest = nullptr;
    const long scale = std::strtol(arg.c_str(), &rest, 10);
    long edge_factor = 16;
    if (*rest == ':') edge_factor = std::strtol(rest + 1, &rest, 10);
    if (scale <= 0 || edge_factor <= 0 || *rest != '\0') {
      if (error != nullptr) *error = "bad rmat spec '" + arg + "'";
      return false;
    }
    *out = make_graph500_workload(static_cast<int>(scale), seed, true,
                                  static_cast<int>(edge_factor));
    return true;
  }
  if (kind == "knn") {
    char* rest = nullptr;
    const long scale = std::strtol(arg.c_str(), &rest, 10);
    const long k = *rest == ':' ? std::strtol(rest + 1, &rest, 10) : 0;
    if (scale <= 0 || scale > 30 || k <= 0 || *rest != '\0') {
      if (error != nullptr) *error = "bad knn spec '" + arg + "'";
      return false;
    }
    *out = make_knn_workload(static_cast<int>(scale),
                             static_cast<std::uint32_t>(k), seed);
    return true;
  }
  if (error != nullptr) {
    *error = "unknown workload spec '" + spec +
             "' (expected scenario:NAME, road:SIDE, rmat:SCALE[:EF], or "
             "knn:SCALE:K)";
  }
  return false;
}

/// Formats a measurement cell: median with spread.
inline std::string time_cell(const Summary& s) {
  return format_duration_ms(s.median);
}

/// Speedup of `base` over `t` (how many times faster t is than base).
inline std::string speedup_cell(double base_ms, double ms) {
  return strf("%.2fx", base_ms / ms);
}

}  // namespace llpmst::bench

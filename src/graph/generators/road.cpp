#include "graph/generators/road.hpp"

#include <cmath>
#include <vector>

#include "ds/union_find.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

namespace llpmst {

namespace {

struct Pos {
  double x, y;
};

/// Deterministic jittered embedding of grid vertex (gx, gy).
Pos jittered(std::uint32_t gx, std::uint32_t gy, double jitter,
             std::uint64_t seed) {
  const std::uint64_t h = SplitMix64::mix(
      seed ^ (static_cast<std::uint64_t>(gx) << 32 | gy));
  const double jx = (static_cast<double>(h & 0xffffffffu) / 4294967296.0 - 0.5) *
                    2.0 * jitter;
  const double jy =
      (static_cast<double>(h >> 32) / 4294967296.0 - 0.5) * 2.0 * jitter;
  return {static_cast<double>(gx) + jx, static_cast<double>(gy) + jy};
}

Weight road_weight(const Pos& a, const Pos& b, std::uint32_t unit) {
  const double dx = a.x - b.x, dy = a.y - b.y;
  const double len = std::sqrt(dx * dx + dy * dy);
  // +1 keeps zero-length degenerate cases positive.
  return static_cast<Weight>(len * unit) + 1;
}

}  // namespace

EdgeList generate_road_network(const RoadParams& params) {
  LLPMST_CHECK(params.width >= 1 && params.height >= 1);
  LLPMST_CHECK(params.jitter >= 0.0 && params.jitter < 0.5);
  LLPMST_CHECK(params.keep_street > 0.0 && params.keep_street <= 1.0);
  LLPMST_CHECK(params.unit >= 1);
  const std::uint64_t n64 =
      static_cast<std::uint64_t>(params.width) * params.height;
  LLPMST_CHECK_MSG(n64 < kInvalidVertex, "grid exceeds 32-bit vertex space");

  const std::uint32_t W = params.width, H = params.height;
  const auto vid = [W](std::uint32_t x, std::uint32_t y) {
    return static_cast<VertexId>(y * W + x);
  };
  const auto pos = [&](std::uint32_t x, std::uint32_t y) {
    return jittered(x, y, params.jitter, params.seed);
  };

  EdgeList list(static_cast<std::size_t>(n64));
  // A hint, not a bound: the default street and diagonal rates stay under
  // two edges per cell, so the list is not copied while it grows.  High
  // rates can reach three per cell and grow past it as usual.
  list.reserve(2 * static_cast<std::size_t>(n64));
  Xoshiro256 rng(params.seed);

  // Candidate streets with random drops; record dropped ones so the
  // connectivity patch can restore the cheapest necessary subset.
  std::vector<WeightedEdge> dropped;
  for (std::uint32_t y = 0; y < H; ++y) {
    for (std::uint32_t x = 0; x < W; ++x) {
      const Pos p = pos(x, y);
      if (x + 1 < W) {
        const Weight w = road_weight(p, pos(x + 1, y), params.unit);
        if (rng.next_bool(params.keep_street)) {
          list.add_edge(vid(x, y), vid(x + 1, y), w);
        } else {
          dropped.push_back({vid(x, y), vid(x + 1, y), w});
        }
      }
      if (y + 1 < H) {
        const Weight w = road_weight(p, pos(x, y + 1), params.unit);
        if (rng.next_bool(params.keep_street)) {
          list.add_edge(vid(x, y), vid(x, y + 1), w);
        } else {
          dropped.push_back({vid(x, y), vid(x, y + 1), w});
        }
      }
      // Occasional diagonal shortcut, alternating orientation by parity so
      // shortcuts do not all share a direction.
      if (x + 1 < W && y + 1 < H && rng.next_bool(params.diagonal_p)) {
        if ((x + y) % 2 == 0) {
          list.add_edge(vid(x, y), vid(x + 1, y + 1),
                        road_weight(p, pos(x + 1, y + 1), params.unit));
        } else {
          list.add_edge(vid(x + 1, y), vid(x, y + 1),
                        road_weight(pos(x + 1, y), pos(x, y + 1), params.unit));
        }
      }
    }
  }

  // Connectivity patch: re-add dropped streets that bridge components.
  // Scanning in generation order restores a natural-looking subset.
  UnionFind uf(list.num_vertices());
  for (const WeightedEdge& e : list.edges()) uf.unite(e.u, e.v);
  for (const WeightedEdge& e : dropped) {
    if (uf.num_sets() == 1) break;
    if (uf.unite(e.u, e.v)) list.add_edge(e.u, e.v, e.w);
  }
  LLPMST_CHECK_MSG(uf.num_sets() == 1,
                   "road generator failed to produce a connected graph");

  list.normalize();
  return list;
}

}  // namespace llpmst

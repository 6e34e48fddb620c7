#include "graph/csr_graph.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "parallel/parallel_for.hpp"
#include "parallel/scan.hpp"

namespace llpmst {

CsrGraph CsrGraph::build(const EdgeList& list, Executor* pool) {
  LLPMST_CHECK_MSG(list.is_normalized(),
                   "CsrGraph::build requires a normalized EdgeList "
                   "(call EdgeList::normalize() first)");
  LLPMST_CHECK_MSG(list.num_edges() < kInvalidEdge,
                   "edge count exceeds 32-bit edge id space");

  const std::size_t n = list.num_vertices();
  const std::size_t m = list.num_edges();
  std::vector<WeightedEdge> edges = list.edges();
  std::vector<VertexId> targets;
  std::vector<EdgePriority> priorities;
  std::vector<EdgePriority> mwe;
  std::vector<std::uint8_t> mwe_flags;

  // Degree counting.  The list is normalized (each edge appears once), so
  // each edge contributes to both endpoints.  Offsets are u64 regardless of
  // platform so heap- and mmap-backed sections share one span type.
  std::vector<std::uint64_t> counts(n + 1, 0);
  if (pool != nullptr && pool->num_threads() > 1) {
    // Per-thread count arrays would be O(t*n); instead count with atomics —
    // degrees are written once per arc, contention is negligible for m >> t.
    std::vector<std::atomic<std::uint64_t>> acounts(n);
    for (auto& c : acounts) c.store(0, std::memory_order_relaxed);
    parallel_for(*pool, 0, m, [&](std::size_t i) {
      const WeightedEdge& e = edges[i];
      acounts[e.u].fetch_add(1, std::memory_order_relaxed);
      acounts[e.v].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t v = 0; v < n; ++v) {
      counts[v] = acounts[v].load(std::memory_order_relaxed);
    }
  } else {
    for (const WeightedEdge& e : edges) {
      ++counts[e.u];
      ++counts[e.v];
    }
  }

  // Exclusive scan -> row offsets.
  if (pool != nullptr) {
    exclusive_scan_inplace(*pool, counts);
  } else {
    std::uint64_t acc = 0;
    for (auto& c : counts) {
      std::uint64_t v = c;
      c = acc;
      acc += v;
    }
  }
  std::vector<std::uint64_t> offsets = std::move(counts);  // n+1 offsets

  // Fill arcs.  Write cursors per vertex; sequential fill keeps arcs sorted
  // by (source, edge id).  The parallel fill uses atomic cursors — arc order
  // within a row is then nondeterministic, which no algorithm relies on, but
  // to keep *runs reproducible* we sort each row afterwards.
  targets.resize(2 * m);
  priorities.resize(2 * m);
  if (pool != nullptr && pool->num_threads() > 1) {
    std::vector<std::atomic<std::uint64_t>> cursor(n);
    for (std::size_t v = 0; v < n; ++v) {
      cursor[v].store(offsets[v], std::memory_order_relaxed);
    }
    parallel_for(*pool, 0, m, [&](std::size_t i) {
      const WeightedEdge& e = edges[i];
      const EdgePriority p = make_priority(e.w, static_cast<EdgeId>(i));
      std::uint64_t su = cursor[e.u].fetch_add(1, std::memory_order_relaxed);
      targets[su] = e.v;
      priorities[su] = p;
      std::uint64_t sv = cursor[e.v].fetch_add(1, std::memory_order_relaxed);
      targets[sv] = e.u;
      priorities[sv] = p;
    });
    // Canonicalize row order (by priority) so builds are deterministic.
    parallel_for(*pool, 0, n, [&](std::size_t v) {
      const std::size_t lo = offsets[v], hi = offsets[v + 1];
      // Sort (priority, target) pairs by priority.
      std::vector<std::pair<EdgePriority, VertexId>> row;
      row.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) {
        row.emplace_back(priorities[i], targets[i]);
      }
      std::sort(row.begin(), row.end());
      for (std::size_t i = lo; i < hi; ++i) {
        priorities[i] = row[i - lo].first;
        targets[i] = row[i - lo].second;
      }
    }, /*chunk=*/64);
  } else {
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t i = 0; i < m; ++i) {
      const WeightedEdge& e = edges[i];
      const EdgePriority p = make_priority(e.w, static_cast<EdgeId>(i));
      targets[cursor[e.u]] = e.v;
      priorities[cursor[e.u]] = p;
      ++cursor[e.u];
      targets[cursor[e.v]] = e.u;
      priorities[cursor[e.v]] = p;
      ++cursor[e.v];
    }
    // Sequential fill emits rows in ascending edge-id order, which for a
    // normalized list is ascending (u, v) but not ascending *priority*.
    // Sort rows by priority to match the parallel build bit-for-bit.
    std::vector<std::pair<EdgePriority, VertexId>> row;  // reused per row
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t lo = offsets[v], hi = offsets[v + 1];
      row.clear();
      for (std::size_t i = lo; i < hi; ++i) {
        row.emplace_back(priorities[i], targets[i]);
      }
      std::sort(row.begin(), row.end());
      for (std::size_t i = lo; i < hi; ++i) {
        priorities[i] = row[i - lo].first;
        targets[i] = row[i - lo].second;
      }
    }
  }

  // Per-vertex minimum incident priority: rows are sorted, so it is the
  // first arc of each non-empty row.
  mwe.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    mwe[v] = (offsets[v] == offsets[v + 1]) ? kInfinitePriority
                                            : priorities[offsets[v]];
  }

  // Per-arc MWE flags (see arc_mwe_flags): arc from v is flagged when its
  // edge is the MWE of v or of the target.
  mwe_flags.resize(2 * m);
  const auto fill_flags = [&](std::size_t v) {
    for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const EdgePriority p = priorities[i];
      mwe_flags[i] = (p == mwe[v] || p == mwe[targets[i]]) ? 1 : 0;
    }
  };
  if (pool != nullptr) {
    parallel_for(*pool, 0, n, fill_flags, /*chunk=*/256);
  } else {
    for (std::size_t v = 0; v < n; ++v) fill_flags(v);
  }

  return from_storage(std::make_shared<HeapStorage>(
      std::move(offsets), std::move(targets), std::move(priorities),
      std::move(mwe), std::move(mwe_flags), std::move(edges)));
}

CsrGraph CsrGraph::from_storage(StoragePtr storage) {
  LLPMST_CHECK_MSG(storage != nullptr,
                   "CsrGraph::from_storage requires a storage backend");
  const CsrSections& s = storage->sections();
  const std::size_t n = s.offsets.empty() ? 0 : s.offsets.size() - 1;
  const std::size_t m = s.edges.size();
  LLPMST_CHECK_MSG(s.targets.size() == 2 * m &&
                       s.priorities.size() == 2 * m &&
                       s.mwe_flags.size() == 2 * m && s.mwe.size() == n,
                   "storage sections violate the CSR shape contract");
  CsrGraph g;
  g.sec_ = s;
  g.storage_ = std::move(storage);
  return g;
}

TotalWeight CsrGraph::total_weight() const {
  TotalWeight sum = 0;
  for (const WeightedEdge& e : sec_.edges) sum += e.w;
  return sum;
}

}  // namespace llpmst

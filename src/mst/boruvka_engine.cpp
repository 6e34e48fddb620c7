#include "mst/boruvka_engine.hpp"

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "core/run_context.hpp"
#include "obs/hw_counters.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/round_stats.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scan.hpp"
#include "support/assert.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"

namespace llpmst {

namespace {

// Relaxed atomic accessors over plain scratch arrays.  The engine's arrays
// are plain vectors so the scratch can be resized and reused; the few
// genuinely concurrent accesses (pointer jumping, live marks, fused MWE
// minima) go through std::atomic_ref, everything else relies on the team
// join's happens-before and uses plain loads/stores.
inline VertexId rel_load(VertexId& slot) {
  return std::atomic_ref<VertexId>(slot).load(std::memory_order_relaxed);
}

inline void rel_store(VertexId& slot, VertexId v) {
  std::atomic_ref<VertexId>(slot).store(v, std::memory_order_relaxed);
}

/// Sets a live-root mark, storing only while it still reads 0.  Late rounds
/// have a handful of roots and hundreds of thousands of edges, so an
/// unconditional store would bounce those few cache lines between every
/// worker; once marked, the line stays shared and the sweep is read-only.
inline void mark_live(VertexId& slot) {
  if (rel_load(slot) == 0) rel_store(slot, 1);
}

/// Lowers `slot` to min(slot, p); relaxed CAS loop (see atomic_utils.hpp for
/// the std::atomic flavour — this one targets reusable plain arrays).
inline void prio_fetch_min(EdgePriority& slot, EdgePriority p) {
  std::atomic_ref<EdgePriority> ref(slot);
  EdgePriority cur = ref.load(std::memory_order_relaxed);
  while (p < cur &&
         !ref.compare_exchange_weak(cur, p, std::memory_order_relaxed,
                                    std::memory_order_relaxed)) {
  }
}

/// Round-1 edge source: the CSR's original edge list, viewed in place — the
/// engine never materializes a copy of the input edges.
struct CsrEdgeView {
  const CsrGraph* g;
  [[nodiscard]] std::size_t size() const { return g->num_edges(); }
  [[nodiscard]] VertexId u(std::size_t i) const {
    return g->edge(static_cast<EdgeId>(i)).u;
  }
  [[nodiscard]] VertexId v(std::size_t i) const {
    return g->edge(static_cast<EdgeId>(i)).v;
  }
  [[nodiscard]] EdgePriority prio(std::size_t i) const {
    return g->edge_priority(static_cast<EdgeId>(i));
  }
};

/// Later rounds: the contracted multigraph's compact edge list.
struct ActiveEdgeView {
  const BoruvkaActiveEdge* e;
  std::size_t n;
  [[nodiscard]] std::size_t size() const { return n; }
  [[nodiscard]] VertexId u(std::size_t i) const { return e[i].u; }
  [[nodiscard]] VertexId v(std::size_t i) const { return e[i].v; }
  [[nodiscard]] EdgePriority prio(std::size_t i) const { return e[i].prio; }
};

[[nodiscard]] std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// splitmix64 finalizer — mixes the packed (u, v) key into a table index.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// One engine run.  Holds the per-run state so the round phases read as
/// small member functions instead of one page-long loop body.
struct Engine {
  const CsrGraph& g;
  Executor& pool;
  const BoruvkaConfig& cfg;
  const CancelToken* cancel;  // ctx.cancel_token(), polled once per round
  BoruvkaScratch& s;
  MstResult r;

  std::size_t threads;
  std::size_t k = 0;  // live components in the current (dense) id space
  /// max/mean per-worker busy time of the last extract() sweep; 0.0 when
  /// the sweep ran inline.
  double last_extract_imbalance = 0.0;
  std::atomic<std::uint32_t> emit_pos{0};  // cursor into s.msf_edges
  std::atomic<std::uint64_t> jump_count{0};
  std::uint64_t jump_rounds = 0;

  // Outputs of the most recent contract() call.
  std::size_t kept = 0;
  std::size_t self_loops = 0;
  std::size_t bundle_dropped = 0;
  std::size_t k_new = 0;

  static constexpr std::size_t kMaxProbes = 16;

  Engine(const CsrGraph& graph, Executor& p, const BoruvkaConfig& c,
         const CancelToken* token, BoruvkaScratch& scratch)
      : g(graph),
        pool(p),
        cfg(c),
        cancel(token),
        s(scratch),
        threads(p.num_threads()) {}

  /// Round 1 setup: identity parents and the CSR's precomputed per-vertex
  /// minima ("the MWE set can be computed when the graph is input").
  void init_round1() {
    const std::size_t n = g.num_vertices();
    k = n;
    s.parent.resize(n);
    s.best.resize(n);
    s.partner.resize(n);
    s.msf_edges.resize(n == 0 ? 0 : n - 1);  // an MSF has at most n-1 edges
    parallel_for_static(pool, 0, n, [this](std::size_t v) {
      s.parent[v] = static_cast<VertexId>(v);
      s.best[v] = g.min_incident_priority(static_cast<VertexId>(v));
    });
  }

  /// MWE extract: recover, for every component whose minimum is known in
  /// best[], the partner component across that winning edge.  Exactly one
  /// edge matches best[c] (priorities are unique), so each partner slot has
  /// a single writer and the sweep is read-mostly and race-free.
  template <typename View>
  void extract(const View& ev) {
    obs::PhaseTimer span("mwe_select");
    last_extract_imbalance = 0.0;
    const std::size_t me = ev.size();
    auto body = [this, &ev](std::size_t i) {
      const EdgePriority p = ev.prio(i);
      const VertexId a = ev.u(i);
      const VertexId b = ev.v(i);
      if (p == s.best[a]) s.partner[a] = b;
      if (p == s.best[b]) s.partner[b] = a;
    };
    // Adaptive-grain chunks, each timed per worker so the round telemetry
    // can report how unevenly the sweep's work fell across the team.
    if (threads == 1 || s.extract_grain.prefers_serial(me)) {
      const std::uint64_t t0 = detail::grain_clock_ns();
      for (std::size_t i = 0; i < me; ++i) body(i);
      s.extract_grain.update(me,
                             static_cast<double>(detail::grain_clock_ns() - t0));
      return;
    }
    s.worker_ns.assign(threads, 0);
    const std::size_t grain = s.extract_grain.grain(me, threads);
    const std::uint64_t t0 = detail::grain_clock_ns();
    parallel_chunks(pool, 0, me, grain,
                    [this, &body](std::size_t lo, std::size_t hi,
                                  std::size_t w) {
                      const std::uint64_t c0 = detail::grain_clock_ns();
                      for (std::size_t i = lo; i < hi; ++i) body(i);
                      s.worker_ns[w] += detail::grain_clock_ns() - c0;
                    });
    const std::uint64_t wall = detail::grain_clock_ns() - t0;
    s.extract_grain.update(me, static_cast<double>(wall));
    std::uint64_t busy = 0;
    std::uint64_t busy_max = 0;
    for (std::size_t w = 0; w < threads; ++w) {
      busy += s.worker_ns[w];
      if (s.worker_ns[w] > busy_max) busy_max = s.worker_ns[w];
    }
    if (busy > 0) {
      // max/mean: 1.0 = perfectly balanced; feeds the round telemetry.
      last_extract_imbalance = static_cast<double>(busy_max) *
                               static_cast<double>(threads) /
                               static_cast<double>(busy);
    }
  }

  /// Hook: every component with an outgoing MWE picks its parent across it;
  /// mutual choices are broken by id (smaller id stays root).  The hooking
  /// side emits the edge (into a unique cursor slot), so each MSF edge is
  /// emitted exactly once; finalize_result sorts, so order is free.
  void hook() {
    obs::PhaseTimer span("hook");
    parallel_for_adaptive(pool, 0, k, s.vertex_grain, [this](std::size_t c) {
      const EdgePriority p = s.best[c];
      if (p == kInfinitePriority) return;  // no incident edges (round 1 only)
      const VertexId pw = s.partner[c];
      LLPMST_ASSERT(pw < k && pw != static_cast<VertexId>(c));
      if (s.best[pw] == p && static_cast<VertexId>(c) < pw) {
        return;  // mutual MWE: c stays the root of the merged component
      }
      s.parent[c] = pw;
      s.msf_edges[emit_pos.fetch_add(1, std::memory_order_relaxed)] =
          priority_edge(p);
    });
  }

  /// Pointer jumping: collapse every component to a rooted star.
  void jump() {
    obs::PhaseTimer span("pointer_jump");
    if (cfg.jumping == PointerJumping::kAsynchronous) {
      // One chaotic pass.  parent chains always lead to a root (roots are
      // stable during this phase), and concurrent shortcuts only replace a
      // pointer with a later node on the same path, so chasing terminates.
      // Full path compression: the discovered root is written back into
      // EVERY node on the chase path, not just the starting vertex — the
      // next vertex sharing a suffix of the path finds its root in O(1).
      ++jump_rounds;
      parallel_for_adaptive(pool, 0, k, s.vertex_grain, [this](std::size_t v) {
        VertexId root = rel_load(s.parent[v]);
        if (root == static_cast<VertexId>(v)) return;
        std::uint64_t steps = 0;
        for (;;) {
          const VertexId up = rel_load(s.parent[root]);
          if (up == root) break;
          root = up;
          ++steps;
        }
        VertexId cur = static_cast<VertexId>(v);
        while (cur != root) {
          const VertexId nxt = rel_load(s.parent[cur]);
          rel_store(s.parent[cur], root);
          cur = nxt;
        }
        if (steps != 0) {
          jump_count.fetch_add(steps, std::memory_order_relaxed);
        }
      });
    } else {
      // Bulk-synchronous double-buffered jumping; each iteration is a full
      // team barrier (this is the synchronization LLP-Boruvka removes).
      s.jump_buf.resize(k);
      for (;;) {
        ++jump_rounds;
        std::atomic<bool> changed{false};
        parallel_for(pool, 0, k, [this, &changed](std::size_t v) {
          const VertexId p = s.parent[v];
          const VertexId pp = s.parent[p];
          s.jump_buf[v] = pp;
          if (pp != p) changed.store(true, std::memory_order_relaxed);
        });
        parallel_for(pool, 0, k, [this](std::size_t v) {
          if (s.parent[v] != s.jump_buf[v]) {
            s.parent[v] = s.jump_buf[v];
            jump_count.fetch_add(1, std::memory_order_relaxed);
          }
        });
        if (!changed.load(std::memory_order_relaxed)) break;
      }
    }
  }

  /// Bundle-min filter: claim-or-merge a (u, v) pair slot.  Linear probing,
  /// capped; giving up keeps the edge (safe: extra parallel edges only cost
  /// list length, never correctness).
  void filter_install(VertexId a, VertexId b, EdgePriority p,
                      std::size_t mask) {
    if (a > b) std::swap(a, b);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(a) << 32) | b;  // a < b, so key != 0
    std::size_t idx = static_cast<std::size_t>(mix64(key)) & mask;
    for (std::size_t probe = 0; probe < kMaxProbes;
         ++probe, idx = (idx + 1) & mask) {
      std::atomic_ref<std::uint64_t> kref(s.filter_key[idx]);
      std::uint64_t cur = kref.load(std::memory_order_relaxed);
      if (cur == 0 &&
          kref.compare_exchange_strong(cur, key, std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
        cur = key;  // claimed the slot
      }
      if (cur == key) {
        prio_fetch_min(s.filter_min[idx], p);
        return;
      }
    }
  }

  /// True iff the edge survives the bundle-min filter: dropped only when its
  /// pair's slot is found AND holds a strictly lighter priority.
  [[nodiscard]] bool filter_keeps(VertexId a, VertexId b, EdgePriority p,
                                  std::size_t mask) const {
    if (a > b) std::swap(a, b);
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    std::size_t idx = static_cast<std::size_t>(mix64(key)) & mask;
    for (std::size_t probe = 0; probe < kMaxProbes;
         ++probe, idx = (idx + 1) & mask) {
      const std::uint64_t cur = s.filter_key[idx];
      if (cur == 0) return true;  // never installed
      if (cur == key) return s.filter_min[idx] >= p;
      // >= : priorities are unique, so == means "this edge IS the minimum".
    }
    return true;  // probe cap: filter gave up on this pair
  }

  /// Contraction: relabel surviving edges to the next round's dense root
  /// space, dropping self-loops (and bundle-heavy edges when filtering) in
  /// the same chunked sweeps, and fold the next round's per-component MWE
  /// minima into the emit pass while the edge is in cache.  Chunk-indexed
  /// stream compaction keeps the output in deterministic (input) order.
  template <typename View>
  void contract(const View& ev) {
    obs::PhaseTimer span("contract");
    const std::size_t me = ev.size();
    const bool filter = cfg.dedup_contracted_edges;
    const std::size_t grain = s.contract_grain.grain(me, threads);
    const std::size_t nc = (me + grain - 1) / grain;
    const std::uint64_t t0 = detail::grain_clock_ns();
    s.chunk_count.assign(nc, 0);
    s.dense.assign(k, 0);  // live-root marks, scanned into dense ids below

    std::size_t mask = 0;
    if (filter) {
      const std::size_t slots = next_pow2(std::max<std::size_t>(64, 2 * me));
      mask = slots - 1;
      if (s.filter_key.size() < slots) {
        s.filter_key.resize(slots);
        s.filter_min.resize(slots);
      }
      parallel_for_static(pool, 0, slots, [this](std::size_t i) {
        s.filter_key[i] = 0;
        s.filter_min[i] = kInfinitePriority;
      });
    }

    // Pass A: mark live roots, count survivors (exact without the filter;
    // with it, install bundle minima first and recount in pass B once the
    // table is frozen).
    parallel_chunks(
        pool, 0, me, grain,
        [this, &ev, grain, filter, mask](std::size_t lo, std::size_t hi,
                                         std::size_t) {
          const std::size_t ci = lo / grain;
          std::size_t alive = 0;
          for (std::size_t i = lo; i < hi; ++i) {
            const VertexId cu = s.parent[ev.u(i)];
            const VertexId cv = s.parent[ev.v(i)];
            if (cu == cv) continue;
            ++alive;
            mark_live(s.dense[cu]);
            mark_live(s.dense[cv]);
            if (filter) filter_install(cu, cv, ev.prio(i), mask);
          }
          s.chunk_count[ci] = alive;
        });
    std::size_t alive_total = 0;
    for (std::size_t ci = 0; ci < nc; ++ci) alive_total += s.chunk_count[ci];
    self_loops = me - alive_total;

    if (filter) {
      parallel_chunks(pool, 0, me, grain,
                      [this, &ev, grain, mask](std::size_t lo, std::size_t hi,
                                               std::size_t) {
                        const std::size_t ci = lo / grain;
                        std::size_t cnt = 0;
                        for (std::size_t i = lo; i < hi; ++i) {
                          const VertexId cu = s.parent[ev.u(i)];
                          const VertexId cv = s.parent[ev.v(i)];
                          if (cu != cv &&
                              filter_keeps(cu, cv, ev.prio(i), mask)) {
                            ++cnt;
                          }
                        }
                        s.chunk_count[ci] = cnt;
                      });
    }

    // Exclusive scan of the per-chunk counts -> output offsets (nc is tiny).
    kept = 0;
    for (std::size_t ci = 0; ci < nc; ++ci) {
      const std::size_t c = s.chunk_count[ci];
      s.chunk_count[ci] = kept;
      kept += c;
    }
    bundle_dropped = alive_total - kept;

    // Dense relabeling: scan the live marks into the next round's component
    // ids.  Every per-component array of the next round is k_new long — the
    // whole working set shrinks at least geometrically with the rounds.
    k_new = static_cast<std::size_t>(exclusive_scan_inplace(pool, s.dense));

    // Testing hook: gather the dropped original edge ids (sequential; the
    // observer path is cold by contract).
    if (cfg.collect_dropped_edges) {
      s.dropped.clear();
      for (std::size_t i = 0; i < me; ++i) {
        const VertexId cu = s.parent[ev.u(i)];
        const VertexId cv = s.parent[ev.v(i)];
        if (cu == cv || (filter && !filter_keeps(cu, cv, ev.prio(i), mask))) {
          s.dropped.push_back(priority_edge(ev.prio(i)));
        }
      }
    }

    // Pass C: emit survivors at their scanned offsets, relabeled to dense
    // ids, and fold the next round's MWE minima in the same touch.
    s.best.assign(k_new, kInfinitePriority);
    s.next_edges.resize(kept);
    parallel_chunks(
        pool, 0, me, grain,
        [this, &ev, grain, filter, mask](std::size_t lo, std::size_t hi,
                                         std::size_t) {
          const std::size_t ci = lo / grain;
          std::size_t pos = s.chunk_count[ci];
          for (std::size_t i = lo; i < hi; ++i) {
            const VertexId cu = s.parent[ev.u(i)];
            const VertexId cv = s.parent[ev.v(i)];
            if (cu == cv) continue;
            const EdgePriority p = ev.prio(i);
            if (filter && !filter_keeps(cu, cv, p, mask)) continue;
            const VertexId du = s.dense[cu];
            const VertexId dv = s.dense[cv];
            s.next_edges[pos++] = {du, dv, p};
            prio_fetch_min(s.best[du], p);
            prio_fetch_min(s.best[dv], p);
          }
        });

    // The old component space is dead: shrink the per-component arrays and
    // re-establish identity parents for the dense space.
    s.parent.resize(k_new);
    s.partner.resize(k_new);
    parallel_for_adaptive(pool, 0, k_new, s.vertex_grain, [this](std::size_t c) {
      s.parent[c] = static_cast<VertexId>(c);
    });
    s.contract_grain.update(me,
                            static_cast<double>(detail::grain_clock_ns() - t0));
  }

  MstResult run() {
    const std::size_t n = g.num_vertices();
    const std::size_t m = g.num_edges();
    std::string active_label;
    if (obs::kCompiledIn) {
      active_label = std::string(cfg.obs_label) + "/active_edges";
    }

    std::size_t active = m;
    bool first_round = true;
    const bool rounds_on = obs::kCompiledIn && obs::enabled();
    while (active > 0) {
      // Cancellation checkpoint, once per round: every edge already drained
      // into `chosen` was a genuine MSF edge, so stopping between rounds
      // yields a valid partial forest.
      if (cancel != nullptr && cancel->cancelled()) {
        r.stats.outcome = cancel->reason();
        break;
      }
      // Chaos hook, once per round.  Sleep/yield here widens the window
      // between a round's barriers; a failure spec aborts mid-contraction.
      if (LLPMST_FAILPOINT("boruvka/contract") != fail::Action::kNone) {
        r.stats.outcome = RunOutcome::kInjectedFault;
        break;
      }
      ++r.stats.rounds;
      // Per-round visibility: the geometric shrink of the active edge list
      // is the paper's Section VII story for Boruvka — one span per round
      // plus a counter track ("<label>/active_edges") the viewer plots.
      obs::PhaseTimer round_span("round");
      if (obs::trace_collecting()) {
        obs::trace_emit_counter(active_label, obs::now_us(), active);
      }
      const std::uint64_t round_t0 = rounds_on ? obs::now_us() : 0;

      BoruvkaRoundStats info;
      info.round = r.stats.rounds;
      info.active_edges = active;

      const std::size_t emitted_before =
          emit_pos.load(std::memory_order_relaxed);
      if (first_round) {
        info.components = n;
        init_round1();
        extract(CsrEdgeView{&g});
      } else {
        info.components = k;
        extract(ActiveEdgeView{s.edges.data(), s.edges.size()});
      }
      hook();
      info.msf_edges_emitted =
          emit_pos.load(std::memory_order_relaxed) - emitted_before;
      jump();
      if (first_round) {
        contract(CsrEdgeView{&g});
      } else {
        contract(ActiveEdgeView{s.edges.data(), s.edges.size()});
      }
      s.edges.swap(s.next_edges);
      active = kept;
      k = k_new;
      first_round = false;

      if (rounds_on) {
        obs::RoundRecord rr;
        rr.label = cfg.obs_label;
        rr.round = r.stats.rounds;
        rr.components = info.components;
        rr.edges = info.active_edges;
        rr.advances = info.msf_edges_emitted;
        rr.wall_ms = static_cast<double>(obs::now_us() - round_t0) * 1e-3;
        rr.imbalance = last_extract_imbalance;
        obs::record_round(std::move(rr));
      }

      if (cfg.round_observer) {
        info.self_loops_dropped = self_loops;
        info.bundle_edges_dropped = bundle_dropped;
        info.components_after = k_new;
        info.edges_after = kept;
        info.dropped_edge_ids = cfg.collect_dropped_edges ? &s.dropped : nullptr;
        cfg.round_observer(info);
      }
    }

    const std::size_t emitted = emit_pos.load(std::memory_order_relaxed);
    LLPMST_ASSERT(emitted <= s.msf_edges.size());
    r.edges.assign(s.msf_edges.begin(),
                   s.msf_edges.begin() + static_cast<std::ptrdiff_t>(emitted));
    r.stats.pointer_jumps = jump_count.load(std::memory_order_relaxed);
    if (obs::kCompiledIn) {
      obs::counter(std::string(cfg.obs_label) + "/jump_rounds")
          .add(jump_rounds);
      obs::gauge(std::string(cfg.obs_label) + "/last_run_rounds")
          .set(r.stats.rounds);
    }
    record_algo_metrics(cfg.obs_label, r.stats);
    finalize_result(g, r);
    return r;
  }
};

}  // namespace

MstResult boruvka_engine(const CsrGraph& g, RunContext& ctx,
                         const BoruvkaConfig& config) {
  obs::PhaseTimer algo_span(config.obs_label);
  obs::ScopedHwCounters hw_scope(config.obs_label);
  // Scratch deliberately does NOT default to the context's arena (the
  // ablation bench measures fresh-vs-reused scratch; the named entry points
  // opt in explicitly).
  BoruvkaScratch local_scratch;
  BoruvkaScratch& s =
      config.scratch != nullptr ? *config.scratch : local_scratch;
  Engine engine(g, ctx.executor(), config, ctx.cancel_token(), s);
  return engine.run();
}

}  // namespace llpmst

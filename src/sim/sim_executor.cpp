#include "sim/sim_executor.hpp"

#include <new>
#include <utility>

#include "support/assert.hpp"
#include "support/failpoint.hpp"

namespace llpmst::sim {

SimExecutor::SimExecutor(const Options& options)
    : workers_(options.replay != nullptr
                   ? options.replay->workers
                   : (options.workers == 0 ? 1 : options.workers)),
      seed_(options.replay != nullptr ? options.replay->seed : options.seed),
      step_ns_(options.step_ns == 0 ? 1 : options.step_ns),
      rng_(SplitMix64::mix(seed_ ^ 0x51a17ab1eull)),
      replay_(options.replay) {
  LLPMST_CHECK_MSG(workers_ <= 255, "schedule traces encode worker ids in "
                                    "a byte");
  if (!options.timeline.empty() && !timeline_.parse(options.timeline)) {
    timeline_error_ = timeline_.error();
  }
  timeline_.bind(nullptr, &clock_);

  state_.assign(workers_, WorkerState::kIdle);
  hook_ctx_.resize(workers_);
  hook_tables_.resize(workers_);
  for (std::size_t w = 0; w < workers_; ++w) {
    hook_ctx_[w] = HookCtx{this, w};
    hook_tables_[w] = simhook::WorkerHooks{
        &hook_ctx_[w],
        [](void* c) {
          auto* hc = static_cast<HookCtx*>(c);
          hc->exec->worker_preempt(hc->worker);
        },
        [](void* c, std::uint64_t ns) {
          auto* hc = static_cast<HookCtx*>(c);
          hc->exec->worker_sleep(hc->worker, ns);
        },
        [](void* c, const char* name) {
          auto* hc = static_cast<HookCtx*>(c);
          hc->exec->timeline_.on_failpoint(name);
        }};
  }

  // The executor owns virtual time for its lifetime: CancelToken deadlines
  // and grain clocks read simulated nanoseconds from here on.
  prev_clock_ = vtime::install_clock(&clock_);
  // The constructing thread gets worker 0's hooks immediately, so failpoint
  // hits and sleeps in SEQUENTIAL phases (between team regions) also reach
  // the timeline and the virtual clock.
  main_prev_hooks_ = simhook::install(&hook_tables_[0]);

  threads_.reserve(workers_ > 0 ? workers_ - 1 : 0);
  for (std::size_t id = 1; id < workers_; ++id) {
    threads_.emplace_back([this, id] { worker_thread(id); });
  }
}

SimExecutor::~SimExecutor() {
  {
    std::lock_guard lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
  simhook::install(main_prev_hooks_);
  vtime::install_clock(prev_clock_);
}

ScheduleTrace SimExecutor::trace() const {
  ScheduleTrace t;
  t.seed = seed_;
  t.workers = static_cast<std::uint32_t>(workers_);
  t.picks = picks_;
  return t;
}

void SimExecutor::run_region_impl(const TeamFn& fn) {
  {
    std::lock_guard lock(mutex_);
    LLPMST_CHECK_MSG(!region_active_, "SimExecutor regions are not reentrant");
    job_ = fn;
    region_active_ = true;
    for (std::size_t w = 0; w < workers_; ++w) state_[w] = WorkerState::kReady;
    unfinished_ = workers_;
    granted_ = kNone;
    first_exception_ = nullptr;
    ++epoch_;
    // The first decision of the region: who starts.
    schedule_next_locked();
  }
  cv_.notify_all();

  // The submitting thread participates as worker 0 (its body may itself be
  // granted first, last, or anywhere between).
  run_worker(0, fn);

  std::exception_ptr thrown;
  {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return unfinished_ == 0; });
    region_active_ = false;
    job_ = TeamFn{};
    thrown = std::exchange(first_exception_, nullptr);
  }
  if (thrown != nullptr) std::rethrow_exception(thrown);
}

void SimExecutor::worker_thread(std::size_t id) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    TeamFn job;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    run_worker(id, job);
  }
}

void SimExecutor::run_worker(std::size_t id, const TeamFn& fn) {
  {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return granted_ == id; });
    state_[id] = WorkerState::kRunning;
  }
  // Hooks scope: preemption points inside fn park THIS worker.
  simhook::ScopedHooks scoped(&hook_tables_[id]);
  std::exception_ptr thrown;
  try {
    // Parity with ThreadPool's per-worker region entry: the same "pool/task"
    // chaos hook fires here, so failpoint specs behave identically under
    // simulation (modulo the deterministic schedule).
    switch (LLPMST_FAILPOINT("pool/task")) {
      case fail::Action::kError:
        throw fail::FailpointError("pool/task");
      case fail::Action::kAlloc:
        throw std::bad_alloc();
      case fail::Action::kNone:
        break;
    }
    fn.invoke(fn.obj, id);
  } catch (...) {
    thrown = std::current_exception();
  }
  {
    std::lock_guard lock(mutex_);
    if (thrown != nullptr && first_exception_ == nullptr) {
      first_exception_ = thrown;  // first thrower wins, as in ThreadPool
    }
    state_[id] = WorkerState::kDone;
    granted_ = kNone;
    --unfinished_;
    schedule_next_locked();
  }
  cv_.notify_all();  // wakes the next grant and, when last, the region join
}

void SimExecutor::schedule_next_locked() {
  // Runnable = parked-or-unstarted workers of the active region.
  std::size_t runnable = 0;
  for (std::size_t w = 0; w < workers_; ++w) {
    if (state_[w] == WorkerState::kReady) ++runnable;
  }
  if (runnable == 0) {
    granted_ = kNone;
    return;
  }
  ++decisions_;
  clock_.advance_ns(step_ns_);
  // Timeline @step triggers observe the decision ordinal BEFORE the pick,
  // so an action armed "at step S" influences the code the S-th granted
  // worker runs next.
  timeline_.on_step(decisions_);

  bool picked = false;
  if (replay_ != nullptr && replay_pos_ < replay_->picks.size()) {
    const std::size_t want = replay_->picks[replay_pos_++];
    if (want < workers_ && state_[want] == WorkerState::kReady) {
      granted_ = want;
      picked = true;
    } else {
      replay_diverged_ = true;
    }
  } else if (replay_ == nullptr) {
    std::size_t index = static_cast<std::size_t>(rng_.next() % runnable);
    for (std::size_t w = 0; w < workers_; ++w) {
      if (state_[w] != WorkerState::kReady) continue;
      if (index == 0) {
        granted_ = w;
        picked = true;
        break;
      }
      --index;
    }
  }
  if (!picked) {
    // Trace exhausted (a minimized prefix) or diverged: continue with a
    // deterministic ROUND-ROBIN fill.  Round-robin rather than lowest-id
    // because lowest-id can livelock — a low-id worker looping on a
    // preemption point (a failpoint yield, say) would be re-granted forever
    // while the worker holding the remaining work never runs.
    for (std::size_t off = 1; off <= workers_; ++off) {
      const std::size_t w = (last_pick_ + off) % workers_;
      if (state_[w] == WorkerState::kReady) {
        granted_ = w;
        break;
      }
    }
  }
  last_pick_ = granted_;
  picks_.push_back(static_cast<std::uint8_t>(granted_));
  cv_.notify_all();
}

void SimExecutor::worker_preempt(std::size_t id) {
  std::unique_lock lock(mutex_);
  // The main thread carries worker 0's hooks even between regions, where a
  // preempt has nothing to schedule.
  if (!region_active_ || state_[id] != WorkerState::kRunning) return;
  state_[id] = WorkerState::kReady;
  granted_ = kNone;
  schedule_next_locked();
  cv_.wait(lock, [&] { return granted_ == id; });
  state_[id] = WorkerState::kRunning;
}

void SimExecutor::worker_sleep(std::size_t id, std::uint64_t ns) {
  // A virtual sleep costs simulated time plus one scheduling decision —
  // the sleeper yields, everyone else gets a chance to run "during" it.
  clock_.advance_ns(ns);
  worker_preempt(id);
}

}  // namespace llpmst::sim

// Deterministic thread pool (DESIGN.md §12).
//
// Vegvisir's hot path is stateless Ed25519 verification; everything
// stateful (DAG insert, CSM apply) stays on the owning thread. The
// pool therefore only ever runs closed-over, side-effect-free jobs
// whose results land behind a lock or an atomic — which is what makes
// `threads=N` observably identical to `threads=1`.
//
// Shape: one bounded FIFO queue behind one flat mutex. Workers, and
// the submitter while it Wait()s, pop from its front. No task submits
// another, so a shared FIFO balances the load by itself. Tasks here
// are coarse — one Ed25519 verify is tens of microseconds — so the
// mutex costs noise compared to the work and buys obviously-correct
// wakeup logic.
//
// `threads = 1` spawns no workers at all: `Submit` runs the task
// inline and `Wait` is a no-op, byte-identical to the pre-pool serial
// path. A full queue also degrades to inline execution on the
// submitter (backpressure without blocking or dropping).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "telemetry/telemetry.h"
#include "util/thread_annotations.h"

namespace vegvisir::exec {

// Threads the hardware can run at once; at least 1 even when the
// platform reports zero.
unsigned HardwareConcurrency();

struct ExecConfig {
  // The second argument is accepted and ignored: the queue's bound is
  // a constant of the pool (pool.cpp), and bench/e2e still spells the
  // `{width, 4096}` it once passed.
  explicit ExecConfig(unsigned width = 1, std::size_t /*unused*/ = 0)
      : threads(width) {}

  // Total execution width. 1 = serial (no worker threads); N >= 2
  // spawns N workers and the submitting thread helps during Wait().
  unsigned threads;

  // Reads VEGVISIR_THREADS (clamped to [1, 64]); unset or malformed
  // means serial.
  static ExecConfig FromEnv();
};

class ThreadPool {
 public:
  // `sink` receives the exec.tasks_executed counter and the
  // exec.threads gauge; may be null.
  explicit ThreadPool(ExecConfig config,
                      telemetry::Telemetry* sink = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return config_.threads; }
  bool parallel() const { return !workers_.empty(); }

  // Runs `task` on some thread. Serial mode and queue-full
  // backpressure both execute inline before returning — so Submit
  // can run arbitrary task code on THIS thread and must never be
  // entered with any mutex held (enforced under VEGVISIR_LOCK_DEBUG;
  // EXCLUDES covers the pool's own lock for clang).
  void Submit(std::function<void()> task) VEGVISIR_EXCLUDES(mu_);

  // Blocks until every submitted task has finished. The calling
  // thread helps drain the queue while it waits. Scheduler-class
  // blocking: callers must hold no locks at all.
  void Wait() VEGVISIR_EXCLUDES(mu_);

  // Splits [0, n) into chunks of `grain`, Submits one task per chunk
  // and Wait()s — the same chunks at every width, so
  // exec.tasks_executed is a function of the workload. Blocks like
  // Wait(): no locks held.
  void ParallelFor(std::size_t n, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& body)
      VEGVISIR_EXCLUDES(mu_);

 private:
  // Pops the front task and runs it with mu_ dropped, then retires it
  // from outstanding_ — called and returns with mu_ held. False when
  // the queue is empty.
  bool RunNextLocked() VEGVISIR_REQUIRES(mu_);
  // Submit and Wait without their lock-debug checks, so ParallelFor
  // reports a held lock once, not once per chunk.
  void Push(std::function<void()> task) VEGVISIR_EXCLUDES(mu_);
  void Drain() VEGVISIR_EXCLUDES(mu_);
  void WorkerLoop();

  ExecConfig config_;
  telemetry::Counter c_tasks_;
  telemetry::Gauge g_threads_;

  // Rank kExecPool: tasks run with mu_ dropped (RunNextLocked), so
  // nothing is ever acquired under it. Both condition variables pair
  // with this one mutex — idle_cv_ has no mutex of its own
  // (lock_ranks.h documents the pairing).
  mutable util::Mutex mu_{util::LockRank::kExecPool};
  util::ConditionVariable work_cv_;  // workers: "a task was queued"
  util::ConditionVariable idle_cv_;  // Wait(): "outstanding hit zero"
  std::deque<std::function<void()>> queue_ VEGVISIR_GUARDED_BY(mu_);
  // Queued + currently running.
  std::size_t outstanding_ VEGVISIR_GUARDED_BY(mu_) = 0;
  bool stop_ VEGVISIR_GUARDED_BY(mu_) = false;
  // Filled in the constructor, then immutable: parallel() reads it
  // unlocked, and no worker touches it. Declared after what the
  // workers use.
  std::vector<std::thread> workers_;
};

// Free-function convenience that tolerates a null pool (serial).
void ParallelFor(ThreadPool* pool, std::size_t n, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace vegvisir::exec

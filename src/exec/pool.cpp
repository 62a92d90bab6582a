#include "exec/pool.h"

#include <cstdlib>
#include <string>

#include "util/lock_ranks.h"

namespace vegvisir::exec {

unsigned HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ExecConfig ExecConfig::FromEnv() {
  ExecConfig config;
  const char* raw = std::getenv("VEGVISIR_THREADS");
  if (raw == nullptr || *raw == '\0') return config;
  char* end = nullptr;
  const unsigned long value = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0') return config;
  config.threads = static_cast<unsigned>(value < 1 ? 1 : value);
  if (config.threads > 64) config.threads = 64;
  return config;
}

ThreadPool::ThreadPool(ExecConfig config, telemetry::Telemetry* sink)
    : config_(config) {
  if (config_.threads < 1) config_.threads = 1;
  if (config_.queue_capacity < 1) config_.queue_capacity = 1;
  if (sink != nullptr) {
    c_tasks_ = sink->metrics.GetCounter("exec.tasks_executed");
    c_steals_ = sink->metrics.GetCounter("exec.steals");
    g_threads_ = sink->metrics.GetGauge("exec.threads");
    g_utilization_ = sink->metrics.GetGauge("exec.pool_utilization");
  }
  g_threads_.Set(static_cast<double>(config_.threads));
  if (config_.threads < 2) return;
  workers_.reserve(config_.threads);
  for (unsigned i = 0; i < config_.threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (unsigned i = 0; i < config_.threads; ++i) {
    // The repo's one sanctioned thread construction site
    // (vegvisir_lint rule 6): every other layer goes through this
    // pool.
    // lint: thread-owner
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    const util::MutexLock guard(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

bool ThreadPool::TakeTaskLocked(std::size_t self,
                                std::function<void()>* task) {
  if (self != kHelper) {
    auto& mine = workers_[self]->local;
    if (!mine.empty()) {
      *task = std::move(mine.back());
      mine.pop_back();
      return true;
    }
  }
  if (!global_.empty()) {
    *task = std::move(global_.front());
    global_.pop_front();
    return true;
  }
  const std::size_t n = workers_.size();
  const std::size_t start = self == kHelper ? 0 : self + 1;
  for (std::size_t offset = 0; offset < n; ++offset) {
    auto& victim = workers_[(start + offset) % n]->local;
    if (victim.empty()) continue;
    *task = std::move(victim.front());
    victim.pop_front();
    c_steals_.Inc();
    return true;
  }
  return false;
}

void ThreadPool::RunTask(std::function<void()> task, bool on_worker) {
  mu_.unlock();
  task();
  c_tasks_.Inc();
  total_tasks_.fetch_add(1, std::memory_order_relaxed);
  if (on_worker) worker_tasks_.fetch_add(1, std::memory_order_relaxed);
  mu_.lock();
  --outstanding_;
  if (outstanding_ == 0) idle_cv_.notify_all();
}

void ThreadPool::WorkerLoop(std::size_t index) {
  mu_.lock();
  for (;;) {
    std::function<void()> task;
    if (TakeTaskLocked(index, &task)) {
      RunTask(std::move(task), /*on_worker=*/true);
      continue;
    }
    if (stop_) break;
    // Re-acquires mu_ (rank kExecPool) before returning; the worker
    // holds nothing else, so the park cannot stall another lock.
    work_cv_.wait(mu_);
  }
  mu_.unlock();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Both degraded paths below run `task` inline on the submitter, so
  // a Submit under any lock would execute arbitrary code under it.
  util::lock_debug::AssertNoLocksHeld("ThreadPool::Submit");
  if (!parallel()) {
    task();
    c_tasks_.Inc();
    total_tasks_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  {
    util::UniqueLock lock(mu_);
    if (global_.size() < config_.queue_capacity) {
      global_.push_back(std::move(task));
      ++outstanding_;
      lock.unlock();
      work_cv_.notify_one();
      return;
    }
  }
  // Queue full: backpressure by running on the submitter. Correctness
  // is unaffected — the task just runs here instead of there.
  task();
  c_tasks_.Inc();
  total_tasks_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::Wait() {
  // Unbounded drain: entering with a lock held would hold it for the
  // whole queue (and for every task this thread helps run).
  util::lock_debug::AssertNoLocksHeld("ThreadPool::Wait");
  if (!parallel()) return;
  mu_.lock();
  for (;;) {
    std::function<void()> task;
    if (TakeTaskLocked(kHelper, &task)) {
      RunTask(std::move(task), /*on_worker=*/false);
      continue;
    }
    if (outstanding_ == 0) break;
    // Re-acquires mu_ (rank kExecPool) before returning — idle_cv_
    // pairs with the same pool mutex as work_cv_ (lock_ranks.h).
    idle_cv_.wait(mu_);
  }
  mu_.unlock();
  const double total =
      static_cast<double>(total_tasks_.load(std::memory_order_relaxed));
  if (total > 0) {
    g_utilization_.Set(
        static_cast<double>(worker_tasks_.load(std::memory_order_relaxed)) /
        total);
  }
}

void ThreadPool::ParallelFor(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  util::lock_debug::AssertNoLocksHeld("ThreadPool::ParallelFor");
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (!parallel()) {
    // Same chunking as the parallel path so exec.tasks_executed is
    // identical for every thread count.
    for (std::size_t begin = 0; begin < n; begin += grain) {
      const std::size_t end = n - begin > grain ? begin + grain : n;
      body(begin, end);
      c_tasks_.Inc();
      total_tasks_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  {
    const util::MutexLock guard(mu_);
    for (std::size_t begin = 0; begin < n; begin += grain) {
      const std::size_t end = n - begin > grain ? begin + grain : n;
      // Chunks go straight into worker deques round-robin; the global
      // queue stays free for Submit() traffic.
      workers_[next_worker_]->local.push_back(
          [&body, begin, end] { body(begin, end); });
      next_worker_ = (next_worker_ + 1) % workers_.size();
      ++outstanding_;
    }
  }
  work_cv_.notify_all();
  Wait();
}

void ParallelFor(ThreadPool* pool, std::size_t n, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body) {
  if (pool != nullptr) {
    pool->ParallelFor(n, grain, body);
    return;
  }
  if (n > 0) body(0, n);
}

}  // namespace vegvisir::exec

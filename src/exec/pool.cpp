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

namespace {

// Bound on queued tasks; a Submit past it runs inline on the
// submitter.
constexpr std::size_t kQueueCapacity = 4096;

}  // namespace

ThreadPool::ThreadPool(ExecConfig config, telemetry::Telemetry* sink)
    : config_(config) {
  if (config_.threads < 1) config_.threads = 1;
  if (sink != nullptr) {
    c_tasks_ = sink->metrics.GetCounter("exec.tasks_executed");
    g_threads_ = sink->metrics.GetGauge("exec.threads");
  }
  g_threads_.Set(static_cast<double>(config_.threads));
  if (config_.threads < 2) return;
  workers_.reserve(config_.threads);
  for (unsigned i = 0; i < config_.threads; ++i) {
    // The repo's one sanctioned thread construction site
    // (vegvisir_lint rule 6): every other layer goes through this
    // pool.
    // lint: thread-owner
    workers_.push_back(std::thread([this] { WorkerLoop(); }));
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    const util::MutexLock guard(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::RunNextLocked() {
  if (queue_.empty()) return false;
  {
    const std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    mu_.unlock();
    task();
  }
  c_tasks_.Inc();
  mu_.lock();
  if (--outstanding_ == 0) idle_cv_.notify_all();
  return true;
}

void ThreadPool::WorkerLoop() {
  mu_.lock();
  for (;;) {
    if (RunNextLocked()) continue;
    if (stop_) break;
    // Re-acquires mu_ (rank kExecPool) before returning; the worker
    // holds nothing else, so the park cannot stall another lock.
    work_cv_.wait(mu_);
  }
  mu_.unlock();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Both degraded paths of Push run `task` inline on the submitter, so
  // a Submit under any lock would execute arbitrary code under it.
  util::lock_debug::AssertNoLocksHeld("ThreadPool::Submit");
  Push(std::move(task));
}

void ThreadPool::Push(std::function<void()> task) {
  if (parallel()) {
    util::UniqueLock lock(mu_);
    if (queue_.size() < kQueueCapacity) {
      queue_.push_back(std::move(task));
      ++outstanding_;
      lock.unlock();
      work_cv_.notify_one();
      return;
    }
  }
  // Serial mode, or the queue is full (backpressure). Correctness is
  // unaffected — the task just runs here instead of on a worker.
  task();
  c_tasks_.Inc();
}

void ThreadPool::Wait() {
  // Unbounded drain: entering with a lock held would hold it for the
  // whole queue (and for every task this thread helps run).
  util::lock_debug::AssertNoLocksHeld("ThreadPool::Wait");
  Drain();
}

void ThreadPool::Drain() {
  if (!parallel()) return;
  mu_.lock();
  while (outstanding_ != 0) {
    // Re-acquires mu_ (rank kExecPool) before returning — idle_cv_
    // pairs with the same pool mutex as work_cv_ (lock_ranks.h).
    if (!RunNextLocked()) idle_cv_.wait(mu_);
  }
  mu_.unlock();
}

void ThreadPool::ParallelFor(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  util::lock_debug::AssertNoLocksHeld("ThreadPool::ParallelFor");
  if (n == 0) return;
  if (grain == 0) grain = 1;
  for (std::size_t begin = 0; begin < n; begin += grain) {
    const std::size_t end = n - begin > grain ? begin + grain : n;
    Push([&body, begin, end] { body(begin, end); });
  }
  Drain();
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

#include "exec/verifier.h"

#include <utility>

#include "util/lock_ranks.h"

namespace vegvisir::exec {

BatchVerifier::BatchVerifier(ThreadPool* pool, telemetry::Telemetry* sink,
                             std::size_t capacity)
    : pool_(pool), capacity_(capacity < 1 ? 1 : capacity) {
  if (sink != nullptr) {
    c_batches_ = sink->metrics.GetCounter("exec.batches");
    c_batch_jobs_ = sink->metrics.GetCounter("exec.batch_jobs");
    c_hits_ = sink->metrics.GetCounter("exec.presig_hits");
    c_misses_ = sink->metrics.GetCounter("exec.presig_misses");
    h_batch_size_ = sink->metrics.GetHistogram(
        "exec.batch_size", telemetry::PowerOfTwoBounds(10));
  }
}

BatchVerifier::~BatchVerifier() {
  mu_.lock();
  // Re-acquires mu_ (rank kExecVerifier) before returning; the
  // destructor holds nothing else while it drains.
  while (in_flight_ != 0) done_cv_.wait(mu_);
  mu_.unlock();
}

void BatchVerifier::Enqueue(std::vector<VerifyJob> jobs) {
  // Null-pool/serial fallback runs jobs inline below, and the
  // parallel path calls ThreadPool::Submit — both forbid held locks.
  util::lock_debug::AssertNoLocksHeld("BatchVerifier::Enqueue");
  struct Pending {
    VerifyJob job;
    std::uint64_t gen;
  };
  std::vector<Pending> fresh;
  {
    const util::MutexLock guard(mu_);
    for (VerifyJob& job : jobs) {
      const auto it = entries_.find(job.id);
      if (it != entries_.end() && it->second.key == job.key) continue;
      if (it == entries_.end()) {
        while (entries_.size() >= capacity_ && !fifo_.empty()) {
          // fifo_ can hold ids whose entry was already dropped by
          // Forget; skip those.
          entries_.erase(fifo_.front());
          fifo_.pop_front();
        }
        fifo_.push_back(job.id);
      }
      Entry& entry = entries_[job.id];
      entry.key = job.key;
      entry.gen = ++gen_counter_;
      entry.done = false;
      entry.valid = false;
      fresh.push_back(Pending{std::move(job), entry.gen});
    }
    if (fresh.empty()) return;
    in_flight_ += fresh.size();
    c_batches_.Inc();
    c_batch_jobs_.Inc(fresh.size());
    h_batch_size_.Observe(static_cast<double>(fresh.size()));
  }
  for (Pending& pending : fresh) {
    std::shared_ptr<const crypto::VerifyingKey> key =
        Prepared(pending.job.key);
    auto run = [this, key = std::move(key), job = std::move(pending.job),
                gen = pending.gen] {
      Record(job.id, gen, key->Verify(job.message, job.signature));
    };
    if (pool_ != nullptr) {
      pool_->Submit(std::move(run));
    } else {
      run();
    }
  }
}

void BatchVerifier::Record(const ContentId& id, std::uint64_t gen,
                           bool valid) {
  const util::MutexLock guard(mu_);
  const auto it = entries_.find(id);
  if (it != entries_.end() && it->second.gen == gen) {
    it->second.done = true;
    it->second.valid = valid;
  }
  --in_flight_;
  done_cv_.notify_all();
}

std::optional<bool> BatchVerifier::Lookup(const ContentId& id,
                                          const crypto::PublicKey& key) {
  // Documented-blocking entry point: the wait below is bounded by a
  // batch drain but unbounded in wall time, so no caller may arrive
  // holding a mutex (the satellite regression in lock_rank_test.cpp
  // pins this).
  util::lock_debug::AssertNoLocksHeld("BatchVerifier::Lookup");
  mu_.lock();
  const auto it = entries_.find(id);
  if (it == entries_.end() || !(it->second.key == key)) {
    c_misses_.Inc();
    mu_.unlock();
    return std::nullopt;
  }
  c_hits_.Inc();
  // Pending entry: the job is inline (already done), queued, or on a
  // worker — all guarantee progress, so this wait is bounded by one
  // batch drain. (Record never erases, so `it` stays valid across the
  // wait; only Forget/eviction erase, and both run on the serial
  // owner thread that is blocked right here.)
  while (!it->second.done) done_cv_.wait(mu_);
  const bool valid = it->second.valid;
  mu_.unlock();
  return valid;
}

bool BatchVerifier::Cached(const ContentId& id,
                           const crypto::PublicKey& key) const {
  const util::MutexLock guard(mu_);
  const auto it = entries_.find(id);
  return it != entries_.end() && it->second.key == key;
}

void BatchVerifier::Forget(const ContentId& id) {
  const util::MutexLock guard(mu_);
  entries_.erase(id);
}

bool BatchVerifier::Verify(const crypto::PublicKey& key, ByteSpan message,
                           const crypto::Signature& signature) {
  return Prepared(key)->Verify(message, signature);
}

std::shared_ptr<const crypto::VerifyingKey> BatchVerifier::Prepared(
    const crypto::PublicKey& key) {
  const auto it = keys_.find(key);
  if (it != keys_.end()) return it->second;
  if (keys_.size() >= capacity_) keys_.erase(keys_.begin());
  auto prepared = std::make_shared<const crypto::VerifyingKey>(key);
  keys_.emplace(key, prepared);
  return prepared;
}

std::size_t BatchVerifier::SizeForTest() const {
  const util::MutexLock guard(mu_);
  return entries_.size();
}

}  // namespace vegvisir::exec

// Batched Ed25519 verification over the thread pool (DESIGN.md §12).
//
// The ingest pipeline splits block checking in two: stateless
// signature verification fans out across workers the moment blocks
// arrive off the wire (recon stash, gossip quarantine sweep), while
// the stateful validate/insert/apply sweep stays serial and looks the
// results up here. `Lookup` blocks on an entry that is still in
// flight, which keeps hit/miss counts — and therefore the whole
// metric snapshot — independent of how many workers raced ahead.
//
// Entries are keyed by content id (block hash) AND the public key the
// job was verified under: if membership re-enrolls a creator between
// pre-verification and validation, the stale entry misses and the
// caller falls back to a synchronous verify. A verdict is consumed
// with `Forget` once the block reaches a final accept/reject, and the
// cache is bounded by FIFO eviction at enqueue time (both on the
// serial thread, so cache contents stay deterministic).
//
// Each verifier also holds the node's prepared keys
// (crypto::VerifyingKey, about 15 KB each): a creator's key is tabled
// the first time this node verifies under it, on the owner thread,
// and every later job under that key shares the immutable tables.
// Preparation is lazy rather than done at enrolment, so CSM apply is
// never billed for tables of keys this node may never verify under
// (DESIGN.md §12); and it is per node, so simulated devices share no
// verification work.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/ed25519.h"
#include "exec/pool.h"
#include "telemetry/telemetry.h"
#include "util/bytes.h"
#include "util/thread_annotations.h"

namespace vegvisir::exec {

using ContentId = std::array<std::uint8_t, 32>;

// One signature check. Owns its payload bytes: jobs outlive the
// buffers they were built from (a recon stash can be consumed while
// the job is still queued).
struct VerifyJob {
  ContentId id{};
  crypto::PublicKey key{};
  Bytes message;
  crypto::Signature signature{};
};

class BatchVerifier {
 public:
  // `pool` may be null or serial — jobs then run inline on Enqueue.
  // `sink` receives exec.batches / exec.batch_jobs / exec.presig_*
  // counters and the exec.batch_size histogram; may be null.
  BatchVerifier(ThreadPool* pool, telemetry::Telemetry* sink,
                std::size_t capacity = 8192);
  ~BatchVerifier();  // waits out in-flight jobs

  BatchVerifier(const BatchVerifier&) = delete;
  BatchVerifier& operator=(const BatchVerifier&) = delete;

  // Fans the jobs that are not already cached under the same key out
  // across the pool. Call from the owning (serial) thread only —
  // and with NO locks held: the null-pool/serial path runs the
  // verify jobs inline right here (enforced under
  // VEGVISIR_LOCK_DEBUG; EXCLUDES covers this cache's own lock for
  // clang).
  void Enqueue(std::vector<VerifyJob> jobs) VEGVISIR_EXCLUDES(mu_);

  // Verdict for id under `key`: nullopt when no entry exists (or the
  // entry was verified under a different key); otherwise the result,
  // blocking until an in-flight job lands. Scheduler-class blocking
  // (DESIGN.md §15): callers must hold no mutex at all — a caller
  // blocked here while holding a node-side lock would stall every
  // other user of that lock for a whole batch drain.
  std::optional<bool> Lookup(const ContentId& id, const crypto::PublicKey& key)
      VEGVISIR_EXCLUDES(mu_);

  // True when an entry (pending or done) exists for id under `key`.
  // Lets callers skip rebuilding payloads for already-enqueued work.
  bool Cached(const ContentId& id, const crypto::PublicKey& key) const;

  // Drops the entry; call once the block reaches a final verdict.
  void Forget(const ContentId& id);

  // Verifies one signature now, under this verifier's prepared copy of
  // `key`: the cache-miss fallback of chain::ValidateBlock. Touches no
  // verdict entry or counter. Owner thread only, like Enqueue.
  bool Verify(const crypto::PublicKey& key, ByteSpan message,
              const crypto::Signature& signature);

  std::size_t SizeForTest() const;

 private:
  struct Entry {
    crypto::PublicKey key{};
    std::uint64_t gen = 0;  // guards late writes against evict/rekey
    bool done = false;
    bool valid = false;
  };

  void Record(const ContentId& id, std::uint64_t gen, bool valid);

  // The prepared key, built on first use. Owner thread only.
  std::shared_ptr<const crypto::VerifyingKey> Prepared(
      const crypto::PublicKey& key);

  ThreadPool* pool_;
  std::size_t capacity_;
  telemetry::Counter c_batches_;
  telemetry::Counter c_batch_jobs_;
  telemetry::Counter c_hits_;
  telemetry::Counter c_misses_;
  telemetry::Histogram h_batch_size_;

  // Rank kExecVerifier: nothing is acquired while held (Enqueue
  // releases it before fanning out to pool_->Submit). done_cv_ pairs
  // with this mutex (lock_ranks.h).
  mutable util::Mutex mu_{util::LockRank::kExecVerifier};
  util::ConditionVariable done_cv_;
  std::map<ContentId, Entry> entries_ VEGVISIR_GUARDED_BY(mu_);
  // Insertion order; may hold stale ids.
  std::deque<ContentId> fifo_ VEGVISIR_GUARDED_BY(mu_);
  std::uint64_t gen_counter_ VEGVISIR_GUARDED_BY(mu_) = 0;
  std::size_t in_flight_ VEGVISIR_GUARDED_BY(mu_) = 0;

  // Read and written on the owner thread only, so unguarded; workers
  // see just the shared_ptr their job holds. Bounded by capacity_.
  std::map<crypto::PublicKey, std::shared_ptr<const crypto::VerifyingKey>>
      keys_;
};

}  // namespace vegvisir::exec

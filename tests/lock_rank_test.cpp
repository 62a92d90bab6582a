// The lock-hierarchy wall's runtime half (src/util/lock_ranks.h,
// DESIGN.md §15).
//
// Two layers under test:
//   1. Under VEGVISIR_LOCK_DEBUG, the thread-local rank enforcer
//      flags out-of-order acquisition, scheduler-class blocking
//      calls entered with any lock held (pool Submit/Wait/
//      ParallelFor, verifier Enqueue/Lookup), I/O under a
//      non-may-block lock, and cv waits that are not the
//      single-held-mutex idiom — all assertable without death tests
//      via the injectable violation handler.
//   2. Always compiled: a seeded storm driving the pool, the batch
//      verifier and TieredStore appends concurrently must keep
//      exec.tasks_executed a function of the workload, not the
//      width — and, in VEGVISIR_LOCK_DEBUG builds, run the whole
//      pipeline through the enforcer without tripping it (a
//      violation aborts, so green IS the assertion).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "chain/genesis.h"
#include "crdt/sets.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "csm/state_machine.h"
#include "exec/pool.h"
#include "exec/verifier.h"
#include "node/node.h"
#include "storage/engine.h"
#include "telemetry/telemetry.h"
#include "util/fsio.h"
#include "util/lock_ranks.h"
#include "util/thread_annotations.h"

namespace vegvisir {
namespace {

using util::LockRank;

// A fresh, empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("vgv_lockrank_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct SignedJob {
  exec::VerifyJob job;
  crypto::KeyPair keys;
};

SignedJob MakeSignedJob(std::uint64_t seed, const std::string& text) {
  crypto::Drbg drbg(seed);
  SignedJob out{.job = {}, .keys = crypto::KeyPair::Generate(drbg)};
  out.job.id.fill(static_cast<std::uint8_t>(seed));
  out.job.key = out.keys.public_key();
  out.job.message.assign(text.begin(), text.end());
  out.job.signature = out.keys.Sign(ByteSpan(out.job.message));
  return out;
}

#if defined(VEGVISIR_LOCK_DEBUG)

std::atomic<int> g_violations{0};

void CountViolation(const char* /*message*/) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
}

// Installs the counting handler for one test body; restores the
// previous handler (the aborting default) on scope exit so a bug in
// a LATER test still crashes loudly.
struct ViolationCapture {
  ViolationCapture()
      : prev_(util::lock_debug::SetViolationHandlerForTest(CountViolation)) {
    g_violations.store(0, std::memory_order_relaxed);
  }
  ~ViolationCapture() { util::lock_debug::SetViolationHandlerForTest(prev_); }
  int count() const { return g_violations.load(std::memory_order_relaxed); }

 private:
  util::lock_debug::ViolationHandler prev_;
};

TEST(LockRankTest, AscendingAcquisitionIsClean) {
  ViolationCapture capture;
  util::Mutex engine{LockRank::kStorageEngine};
  util::Mutex registry{LockRank::kTelemetryRegistry};
  {
    const util::MutexLock outer(engine);
    const util::MutexLock inner(registry);
    EXPECT_EQ(util::lock_debug::HeldCountForTest(), 2U);
  }
  EXPECT_EQ(util::lock_debug::HeldCountForTest(), 0U);
  EXPECT_EQ(capture.count(), 0);
}

TEST(LockRankTest, DescendingAcquisitionIsFlagged) {
  ViolationCapture capture;
  util::Mutex pool{LockRank::kExecPool};
  util::Mutex engine{LockRank::kStorageEngine};
  {
    const util::MutexLock outer(pool);
    const util::MutexLock inner(engine);  // 30 -> 10: descent
  }
  EXPECT_EQ(capture.count(), 1);
}

TEST(LockRankTest, EqualRankAcquisitionIsFlagged) {
  ViolationCapture capture;
  util::Mutex a{LockRank::kExecVerifier};
  util::Mutex b{LockRank::kExecVerifier};
  {
    const util::MutexLock outer(a);
    const util::MutexLock inner(b);  // 20 -> 20: ascent must be strict
  }
  EXPECT_EQ(capture.count(), 1);
}

TEST(LockRankTest, UnrankedLocksAreExemptFromOrderButTracked) {
  ViolationCapture capture;
  util::Mutex ranked{LockRank::kExecPool};
  util::Mutex unranked;  // kUnranked
  {
    const util::MutexLock outer(ranked);
    const util::MutexLock inner(unranked);
    EXPECT_EQ(util::lock_debug::HeldCountForTest(), 2U);
  }
  EXPECT_EQ(capture.count(), 0);
}

TEST(LockRankTest, TryLockSkipsTheAscentCheck) {
  ViolationCapture capture;
  util::Mutex pool{LockRank::kExecPool};
  util::Mutex engine{LockRank::kStorageEngine};
  const util::MutexLock outer(pool);
  // try_lock cannot deadlock — it fails instead of waiting — so
  // descending order is permitted, but the hold is still tracked.
  ASSERT_TRUE(engine.try_lock());
  EXPECT_EQ(util::lock_debug::HeldCountForTest(), 2U);
  engine.unlock();
  EXPECT_EQ(capture.count(), 0);
}

TEST(LockRankTest, ReacquisitionIsFlagged) {
  ViolationCapture capture;
  // Through the raw hooks: a real second Mutex::lock() would
  // genuinely deadlock on the wrapped std::mutex.
  int token = 0;
  util::lock_debug::OnAcquire(&token, LockRank::kStorageEngine);
  util::lock_debug::OnAcquire(&token, LockRank::kStorageEngine);
  util::lock_debug::OnRelease(&token);
  util::lock_debug::OnRelease(&token);
  EXPECT_GE(capture.count(), 1);
  EXPECT_EQ(util::lock_debug::HeldCountForTest(), 0U);
}

TEST(LockRankTest, SchedulerCallsUnderAnyLockAreFlagged) {
  ViolationCapture capture;
  exec::ThreadPool pool{exec::ExecConfig{}};  // serial: asserts still fire
  util::Mutex mu{LockRank::kStorageEngine};
  const util::MutexLock guard(mu);
  pool.Submit([] {});
  EXPECT_EQ(capture.count(), 1);
  pool.Wait();
  EXPECT_EQ(capture.count(), 2);
  pool.ParallelFor(4, 2, [](std::size_t, std::size_t) {});
  EXPECT_EQ(capture.count(), 3);
}

// Satellite of the lock wall: BatchVerifier::Lookup (and Enqueue)
// may block on in-flight jobs and must never be entered with a
// node-side mutex held — the EXCLUDES contract, enforced at runtime.
TEST(LockRankTest, VerifierLookupUnderNodeSideMutexIsFlagged) {
  ViolationCapture capture;
  exec::BatchVerifier verifier(nullptr, nullptr);
  const SignedJob entry = MakeSignedJob(7, "held-lock regression");
  verifier.Enqueue({entry.job});
  EXPECT_EQ(capture.count(), 0);  // lock-free enqueue is legal
  ASSERT_TRUE(verifier.Lookup(entry.job.id, entry.job.key).has_value());
  EXPECT_EQ(capture.count(), 0);  // lock-free lookup is legal
  util::Mutex serial_sweep{LockRank::kStorageEngine};
  {
    const util::MutexLock guard(serial_sweep);
    (void)verifier.Lookup(entry.job.id, entry.job.key);
    EXPECT_EQ(capture.count(), 1);
    verifier.Enqueue({entry.job});
    EXPECT_EQ(capture.count(), 2);
  }
}

TEST(LockRankTest, IoIsFlaggedUnderFastLocksOnly) {
  ViolationCapture capture;
  const std::string dir = FreshDir("io_policy");
  const Bytes payload{0x10, 0x20, 0x30};
  util::Mutex fast{LockRank::kExecVerifier};
  util::Mutex engine{LockRank::kStorageEngine};
  {
    const util::MutexLock guard(engine);  // may-block: WAL discipline
    EXPECT_TRUE(DurableWriteFile(dir + "/ok", ByteSpan(payload)).ok());
  }
  EXPECT_EQ(capture.count(), 0);
  {
    const util::MutexLock guard(fast);
    EXPECT_TRUE(DurableWriteFile(dir + "/bad", ByteSpan(payload)).ok());
  }
  EXPECT_GE(capture.count(), 1);
}

TEST(LockRankTest, CvWaitIdiomRequiresTheOnlyHeldLock) {
  ViolationCapture capture;
  util::Mutex mu{LockRank::kExecPool};
  util::Mutex other{LockRank::kStorageEngine};
  mu.lock();
  util::lock_debug::AssertOnlyHeld(&mu, "test");
  EXPECT_EQ(capture.count(), 0);  // the documented idiom
  mu.unlock();
  const util::MutexLock outer(other);
  mu.lock();
  util::lock_debug::AssertOnlyHeld(&mu, "test");
  EXPECT_EQ(capture.count(), 1);  // a second lock is held across the park
  mu.unlock();
}

#endif  // VEGVISIR_LOCK_DEBUG

// --------------------------------------------------------------------
// Seeded storm: pool + verifier + storage engine concurrently. In
// VEGVISIR_LOCK_DEBUG builds every acquisition and blocking call in
// this pipeline runs through the rank enforcer with the aborting
// default handler. At any build, exec.tasks_executed must not depend
// on the width.

std::uint64_t RunStorm(unsigned threads) {
  const std::string dir = FreshDir("storm_" + std::to_string(threads));

  // A small chain to feed the store (deterministic across widths).
  crypto::Drbg drbg(1);
  const crypto::KeyPair owner_keys = crypto::KeyPair::Generate(drbg);
  const chain::Block genesis = chain::GenesisBuilder("lock-storm-chain")
                                   .WithTimestamp(100)
                                   .Build("owner", owner_keys);
  node::NodeConfig node_cfg;
  node_cfg.user_id = "owner";
  node::Node owner(node_cfg, genesis, owner_keys);
  owner.SetTime(10'000);
  EXPECT_TRUE(owner
                  .CreateCrdt("S", crdt::CrdtType::kGSet, crdt::ValueType::kStr,
                              csm::AclPolicy::AllowAll())
                  .ok());
  for (int i = 0; i < 15; ++i) {
    EXPECT_TRUE(
        owner.AppendOp("S", "add", {crdt::Value::OfStr(std::to_string(i))})
            .ok());
  }
  const std::vector<chain::BlockHash> hashes = owner.dag().TopologicalOrder();

  telemetry::Telemetry sink;
  exec::ExecConfig cfg;
  cfg.threads = threads;
  exec::ThreadPool pool(cfg, &sink);
  exec::BatchVerifier verifier(&pool, &sink);
  storage::TieredStoreOptions opts;
  opts.dir = dir;
  opts.telemetry = &sink;
  auto store = storage::TieredStore::Open(opts);
  EXPECT_TRUE(store.ok());

  constexpr int kRounds = 4;
  constexpr std::uint64_t kJobsPerRound = 8;
  const std::size_t per_round = (hashes.size() + kRounds - 1) / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    // Fan signature jobs across the workers...
    std::vector<exec::VerifyJob> jobs;
    for (std::uint64_t i = 0; i < kJobsPerRound; ++i) {
      jobs.push_back(
          MakeSignedJob(64 + round * kJobsPerRound + i,
                        "storm " + std::to_string(round * kJobsPerRound + i))
              .job);
    }
    verifier.Enqueue(jobs);
    // ...while this thread appends to the WAL under the engine lock...
    const std::size_t begin = round * per_round;
    const std::size_t end = std::min(begin + per_round, hashes.size());
    for (std::size_t i = begin; i < end; ++i) {
      EXPECT_TRUE((*store)->Append(*owner.dag().Find(hashes[i])).ok());
    }
    // ...workers hammer the engine lock from the other side...
    storage::TieredStore* raw_store = store->get();
    for (std::size_t i = begin; i < end; ++i) {
      pool.Submit([raw_store, end] {
        EXPECT_GE(raw_store->GetStats().log_records, end);
      });
    }
    // ...plus a deterministic chunked sweep...
    std::atomic<std::uint64_t> touched{0};
    pool.ParallelFor(256, 16, [&touched](std::size_t b, std::size_t e) {
      touched.fetch_add(e - b, std::memory_order_relaxed);
    });
    EXPECT_EQ(touched.load(), 256U);
    // ...and the serial sweep consumes the verdicts, lock-free.
    for (const exec::VerifyJob& job : jobs) {
      const auto verdict = verifier.Lookup(job.id, job.key);
      EXPECT_TRUE(verdict.has_value() && *verdict);
    }
  }
  pool.Wait();
  EXPECT_EQ((*store)->GetStats().log_records, hashes.size());
  return sink.metrics.CounterValue("exec.tasks_executed");
}

TEST(LockStormTest, TasksExecutedIsWidthInvariantUnderStorm) {
  const std::uint64_t serial = RunStorm(1);
  const std::uint64_t wide = RunStorm(8);
  EXPECT_GT(serial, 0U);
  EXPECT_EQ(serial, wide);
}

}  // namespace
}  // namespace vegvisir

// Tests for the parallel execution engine (DESIGN.md §12): the
// one-queue FIFO pool, the batched signature verifier, and the
// end-to-end claim that thread count changes wall-clock time and
// nothing else — same frontiers, same fingerprints, same metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crdt/sets.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "exec/pool.h"
#include "exec/verifier.h"
#include "node/cluster.h"
#include "sim/topology.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace vegvisir::exec {
namespace {

TEST(ExecConfigTest, FromEnvDefaultsAndClamps) {
  unsetenv("VEGVISIR_THREADS");
  EXPECT_EQ(ExecConfig::FromEnv().threads, 1U);
  setenv("VEGVISIR_THREADS", "8", 1);
  EXPECT_EQ(ExecConfig::FromEnv().threads, 8U);
  setenv("VEGVISIR_THREADS", "0", 1);
  EXPECT_EQ(ExecConfig::FromEnv().threads, 1U);
  setenv("VEGVISIR_THREADS", "9999", 1);
  EXPECT_EQ(ExecConfig::FromEnv().threads, 64U);
  setenv("VEGVISIR_THREADS", "junk", 1);
  EXPECT_EQ(ExecConfig::FromEnv().threads, 1U);
  unsetenv("VEGVISIR_THREADS");
}

TEST(ThreadPoolTest, SerialModeRunsInline) {
  telemetry::Telemetry sink;
  ThreadPool pool(ExecConfig{}, &sink);
  EXPECT_FALSE(pool.parallel());
  EXPECT_EQ(pool.thread_count(), 1U);
  int ran = 0;
  pool.Submit([&] { ++ran; });
  // No Wait() needed: serial Submit returns only after the task ran.
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sink.metrics.CounterValue("exec.tasks_executed"), 1U);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnceAtEveryWidth) {
  for (const unsigned threads : {1U, 2U, 4U, 8U}) {
    ExecConfig cfg;
    cfg.threads = threads;
    ThreadPool pool(cfg);
    std::vector<std::atomic<int>> hits(1'000);
    pool.ParallelFor(hits.size(), 64, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " index " << i;
    }
  }
}

// exec.tasks_executed must be a function of the workload, not the
// schedule: ParallelFor chunks identically whether the chunks run
// inline or on workers. This is what keeps the metric snapshot
// byte-identical across thread counts.
TEST(ThreadPoolTest, TaskCountIsThreadCountInvariant) {
  std::uint64_t serial_tasks = 0;
  for (const unsigned threads : {1U, 4U}) {
    ExecConfig cfg;
    cfg.threads = threads;
    telemetry::Telemetry sink;
    ThreadPool pool(cfg, &sink);
    std::atomic<int> sum{0};
    pool.ParallelFor(1'000, 64, [&](std::size_t begin, std::size_t end) {
      sum.fetch_add(static_cast<int>(end - begin),
                    std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 1'000);
    const std::uint64_t tasks =
        sink.metrics.CounterValue("exec.tasks_executed");
    if (threads == 1) {
      serial_tasks = tasks;
    } else {
      EXPECT_EQ(tasks, serial_tasks);
    }
  }
  EXPECT_EQ(serial_tasks, (1'000 + 63) / 64);  // ceil(n / grain) chunks
}

// Ranges shorter than one grain, or ending mid-grain, get one short
// last chunk: no chunk may run past n, and the chunk count (so
// exec.tasks_executed) is the same inline and on workers.
TEST(ThreadPoolTest, ParallelForShortRangesStayInBounds) {
  constexpr std::size_t kGrain = 64;
  for (const std::size_t n : {0U, 1U, 5U, 63U, 64U, 65U}) {
    std::vector<std::uint64_t> tasks;
    for (const unsigned threads : {0U, 1U, 4U}) {  // 0: null pool
      ExecConfig cfg;
      cfg.threads = threads == 0 ? 1 : threads;
      telemetry::Telemetry sink;
      ThreadPool pool(cfg, &sink);
      std::vector<std::atomic<int>> hits(n);
      std::atomic<bool> overran{false};
      ParallelFor(threads == 0 ? nullptr : &pool, n, kGrain,
                  [&](std::size_t begin, std::size_t end) {
                    if (begin > end || end > n) {
                      overran.store(true);
                      return;
                    }
                    for (std::size_t i = begin; i < end; ++i) {
                      hits[i].fetch_add(1, std::memory_order_relaxed);
                    }
                  });
      EXPECT_FALSE(overran.load()) << "n=" << n << " threads=" << threads;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "n=" << n << " threads=" << threads << " index " << i;
      }
      if (threads != 0) {
        tasks.push_back(sink.metrics.CounterValue("exec.tasks_executed"));
      }
    }
    ASSERT_EQ(tasks.size(), 2U);
    EXPECT_EQ(tasks[0], tasks[1]) << "n=" << n;
    EXPECT_EQ(tasks[0], (n + kGrain - 1) / kGrain) << "n=" << n;
  }
}

// Both workers are held on a flag, so the queue only fills: once it
// is full, Submit must run the task inline on the submitter, and after
// the release every task has run exactly once.
TEST(ThreadPoolTest, TinyQueueBackpressureLosesNothing) {
  ExecConfig cfg;
  cfg.threads = 2;
  telemetry::Telemetry sink;
  ThreadPool pool(cfg, &sink);
  std::atomic<bool> release{false};
  for (unsigned i = 0; i < cfg.threads; ++i) {
    pool.Submit([&release] {
      while (!release.load()) std::this_thread::yield();
    });
  }
  std::atomic<int> count{0};
  int submitted = 0;
  // Nothing can run a counting task but the submitter itself, so the
  // first increment seen here is the inline overflow path.
  while (count.load() == 0 && submitted < 100'000) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    ++submitted;
  }
  EXPECT_EQ(count.load(), 1) << "no Submit overflowed inline";
  for (int i = 0; i < 500; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  submitted += 500;
  release.store(true);
  pool.Wait();
  EXPECT_EQ(count.load(), submitted);
  EXPECT_EQ(sink.metrics.CounterValue("exec.tasks_executed"),
            static_cast<std::uint64_t>(submitted) + cfg.threads);
}

TEST(ThreadPoolTest, FreeParallelForToleratesNullPool) {
  std::vector<int> hits(100, 0);
  ParallelFor(nullptr, hits.size(), 7,
              [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) hits[i] += 1;
              });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, TelemetryGaugesReportWidth) {
  telemetry::Telemetry sink;
  ExecConfig cfg;
  cfg.threads = 4;
  ThreadPool pool(cfg, &sink);
  EXPECT_EQ(sink.metrics.GaugeValue("exec.threads"), 4.0);
  std::atomic<int> n{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&] { n.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(n.load(), 64);
  EXPECT_EQ(sink.metrics.CounterValue("exec.tasks_executed"), 64U);
}

// The atomic-counter hammer: many workers incrementing one cell must
// lose nothing. (tests/telemetry_test.cpp hammers the cell with raw
// std::threads; this covers the pool path.)
TEST(ThreadPoolTest, CounterHammerSumsExactly) {
  telemetry::Telemetry sink;
  telemetry::Counter counter = sink.metrics.GetCounter("test.hammer");
  ExecConfig cfg;
  cfg.threads = 8;
  ThreadPool pool(cfg, &sink);
  constexpr int kTasks = 64;
  constexpr int kIncsPerTask = 10'000;
  for (int t = 0; t < kTasks; ++t) {
    pool.Submit([&counter] {
      for (int i = 0; i < kIncsPerTask; ++i) counter.Inc();
    });
  }
  pool.Wait();
  EXPECT_EQ(sink.metrics.CounterValue("test.hammer"),
            static_cast<std::uint64_t>(kTasks) * kIncsPerTask);
}

struct SignedJob {
  VerifyJob job;
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

TEST(BatchVerifierTest, VerdictsMatchSynchronousVerifyAtEveryWidth) {
  for (const unsigned threads : {1U, 4U}) {
    ExecConfig cfg;
    cfg.threads = threads;
    ThreadPool pool(cfg);
    BatchVerifier verifier(&pool, nullptr);
    SignedJob good = MakeSignedJob(1, "authentic");
    SignedJob bad = MakeSignedJob(2, "tampered");
    bad.job.signature.bytes[0] ^= 0x01;
    verifier.Enqueue({good.job, bad.job});
    const auto good_verdict = verifier.Lookup(good.job.id, good.job.key);
    const auto bad_verdict = verifier.Lookup(bad.job.id, bad.job.key);
    ASSERT_TRUE(good_verdict.has_value());
    EXPECT_TRUE(*good_verdict);
    ASSERT_TRUE(bad_verdict.has_value());
    EXPECT_FALSE(*bad_verdict);
  }
}

TEST(BatchVerifierTest, KeyMismatchMissesInsteadOfLying) {
  BatchVerifier verifier(nullptr, nullptr);
  const SignedJob entry = MakeSignedJob(3, "enrolled");
  verifier.Enqueue({entry.job});
  // The creator re-enrolled under a different key: the cached verdict
  // must not be served for the new key.
  crypto::Drbg drbg(99);
  const crypto::PublicKey other = crypto::KeyPair::Generate(drbg).public_key();
  EXPECT_FALSE(verifier.Lookup(entry.job.id, other).has_value());
  EXPECT_FALSE(verifier.Cached(entry.job.id, other));
  EXPECT_TRUE(verifier.Cached(entry.job.id, entry.job.key));
  EXPECT_TRUE(verifier.Lookup(entry.job.id, entry.job.key).has_value());
}

TEST(BatchVerifierTest, ForgetConsumesTheEntry) {
  BatchVerifier verifier(nullptr, nullptr);
  const SignedJob entry = MakeSignedJob(4, "final verdict");
  verifier.Enqueue({entry.job});
  EXPECT_EQ(verifier.SizeForTest(), 1U);
  verifier.Forget(entry.job.id);
  EXPECT_EQ(verifier.SizeForTest(), 0U);
  EXPECT_FALSE(verifier.Lookup(entry.job.id, entry.job.key).has_value());
}

TEST(BatchVerifierTest, CapacityEvictsOldestFirst) {
  BatchVerifier verifier(nullptr, nullptr, /*capacity=*/4);
  std::vector<SignedJob> jobs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    jobs.push_back(MakeSignedJob(10 + i, "entry " + std::to_string(i)));
    verifier.Enqueue({jobs.back().job});
  }
  EXPECT_EQ(verifier.SizeForTest(), 4U);
  EXPECT_FALSE(verifier.Cached(jobs[0].job.id, jobs[0].job.key));
  EXPECT_FALSE(verifier.Cached(jobs[1].job.id, jobs[1].job.key));
  for (std::size_t i = 2; i < jobs.size(); ++i) {
    EXPECT_TRUE(verifier.Cached(jobs[i].job.id, jobs[i].job.key));
  }
}

TEST(BatchVerifierTest, ReEnqueueUnderSameKeyIsDeduplicated) {
  telemetry::Telemetry sink;
  BatchVerifier verifier(nullptr, &sink);
  const SignedJob entry = MakeSignedJob(20, "once");
  verifier.Enqueue({entry.job});
  verifier.Enqueue({entry.job});  // quarantine re-sweep hits the cache
  EXPECT_EQ(sink.metrics.CounterValue("exec.batch_jobs"), 1U);
  EXPECT_EQ(sink.metrics.CounterValue("exec.batches"), 1U);
  ASSERT_TRUE(verifier.Lookup(entry.job.id, entry.job.key).has_value());
  EXPECT_EQ(sink.metrics.CounterValue("exec.presig_hits"), 1U);
}

// y = 1 with the sign bit set: x = 0 cannot carry a sign, so this is
// no curve point.
crypto::PublicKey UndecodableKey() {
  crypto::PublicKey key{};
  key.bytes[0] = 0x01;
  key.bytes[31] = 0x80;
  return key;
}

TEST(BatchVerifierTest, UndecodableKeyVerdictIsFalse) {
  BatchVerifier verifier(nullptr, nullptr);
  SignedJob entry = MakeSignedJob(30, "no such point");
  entry.job.key = UndecodableKey();
  verifier.Enqueue({entry.job});
  const auto verdict = verifier.Lookup(entry.job.id, entry.job.key);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_FALSE(*verdict);
  EXPECT_FALSE(verifier.Verify(entry.job.key, ByteSpan(entry.job.message),
                               entry.job.signature));
}

// A re-enrolled creator: the job verified under the old key must never
// answer for the new one, and re-enqueueing under the new key verifies
// against the new key's own tables, not the old key's.
TEST(BatchVerifierTest, RekeyedJobNeverAnswersUnderTheNewKey) {
  BatchVerifier verifier(nullptr, nullptr);
  const SignedJob old_key = MakeSignedJob(31, "signed under the old key");
  crypto::Drbg drbg(32);
  const crypto::PublicKey new_key =
      crypto::KeyPair::Generate(drbg).public_key();
  verifier.Enqueue({old_key.job});
  EXPECT_FALSE(verifier.Lookup(old_key.job.id, new_key).has_value());

  VerifyJob rekeyed = old_key.job;
  rekeyed.key = new_key;
  verifier.Enqueue({rekeyed});
  EXPECT_FALSE(verifier.Lookup(old_key.job.id, old_key.job.key).has_value());
  const auto verdict = verifier.Lookup(old_key.job.id, new_key);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_FALSE(*verdict);
  EXPECT_TRUE(verifier.Verify(old_key.job.key, ByteSpan(old_key.job.message),
                              old_key.job.signature));
}

// End to end: the same seeded storm at threads=1 and threads=4 must
// produce identical frontiers, fingerprints and metrics (modulo the
// width gauge itself, the one series the determinism tool waives). A
// compact in-tree version of tools/determinism_check.cpp's third leg.
struct StormResult {
  std::vector<std::string> frontiers;
  std::vector<std::string> fingerprints;
  std::string metrics_json;
};

StormResult RunStorm(unsigned threads) {
  constexpr int kNodes = 4;
  sim::ExplicitTopology topo(kNodes);
  topo.MakeClique();
  node::ClusterConfig cfg;
  cfg.node_count = kNodes;
  cfg.seed = 7'777;
  cfg.exec.threads = threads;
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(10'000);
  EXPECT_TRUE(cluster.node(0)
                  .CreateCrdt("log", crdt::CrdtType::kGSet,
                              crdt::ValueType::kStr,
                              csm::AclPolicy::AllowAll())
                  .ok());
  cluster.RunFor(10'000);
  (void)cluster.node(1).AppendOp("log", "add", {crdt::Value::OfStr("a")});
  (void)cluster.node(2).AppendOp("log", "add", {crdt::Value::OfStr("b")});
  cluster.RunFor(40'000);

  StormResult result;
  for (int i = 0; i < cluster.size(); ++i) {
    const chain::BlockHash digest = cluster.node(i).dag().FrontierDigest();
    result.frontiers.push_back(ToHex(ByteSpan(digest.data(), digest.size())));
    result.fingerprints.push_back(ToHex(cluster.node(i).Fingerprint()));
  }
  telemetry::Snapshot snap = cluster.AggregateSnapshot();
  snap.gauges.erase("exec.threads");
  result.metrics_json = telemetry::ToJson(snap);
  return result;
}

TEST(ExecDeterminismTest, StormIsIdenticalAcrossThreadCounts) {
  const StormResult serial = RunStorm(1);
  const StormResult parallel = RunStorm(4);
  EXPECT_EQ(serial.frontiers, parallel.frontiers);
  EXPECT_EQ(serial.fingerprints, parallel.fingerprints);
  EXPECT_EQ(serial.metrics_json, parallel.metrics_json);
}

}  // namespace
}  // namespace vegvisir::exec

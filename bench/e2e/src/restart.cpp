// restart: a device with a 10k-block durable log restarts. Each
// repetition reopens the TieredStore and runs node::RecoverFromStorage,
// then checks that the recovered fingerprint equals the one the node
// had before it went down. Repetitions alternate between exec width 1
// and width N (recovery does not use the pool: the widths should read
// the same).
//
// This is the read side of the layers catchup writes: log scan and
// index rebuild, DAG rebuild, topological order and CSM replay, with
// no crypto. A gain on one side that costs the other shows up.
//
// The traced run repeats recovery step by step (TieredStore::Open,
// RecoverDag, TopologicalOrder, StateMachine::ApplyBlock), in the order
// Node::Restore and Node::AttachStorage take them.
#include <cstdio>
#include <optional>

#include "common.h"
#include "node/checkpoint.h"
#include "node/node.h"
#include "storage/engine.h"

namespace vegvisir::e2e {
namespace {

constexpr int kWriters = 8;

struct Sizes {
  int blocks;
  int setups;
  int min_pairs;
};

Sizes SizesFor(const Options& opt) {
  return opt.smoke ? Sizes{64, 2, 1} : Sizes{10'000, 3, 3};
}

node::NodeConfig DeviceConfig(exec::ThreadPool* pool) {
  node::NodeConfig cfg;
  cfg.user_id = "device";
  cfg.exec_pool = pool;
  return cfg;
}

struct Setup {
  std::string dir;
  chain::Block genesis;
  std::size_t blocks = 0;  // in the log, genesis included
  std::uint64_t log_bytes = 0;
  Bytes fingerprint;       // the node's, just before it went down
};

// Writes the log the way a device does: a durable node ingests the
// seeded fleet's blocks, then goes down without a farewell write.
Setup BuildSetup(const Options& opt, const Sizes& sz, Pools& pools,
                 Result* result) {
  Setup s;
  const Fleet f = MakeFleet(opt.seed, kWriters, sz.blocks, &pools.wide);
  s.dir = FreshDir(opt, "restart-log");
  s.genesis = f.genesis;
  node::Node n(DeviceConfig(&pools.wide), f.genesis, KeysFor(opt.seed, 2'000));
  n.SetTime(f.max_timestamp_ms);
  auto store = OpenDurable(s.dir, n.telemetry());
  bool ok = store != nullptr && n.AttachStorage(store.get()).ok();
  for (const chain::Block& b : f.base) {
    ok = ok && n.OfferBlock(b) == chain::BlockVerdict::kValid;
  }
  std::vector<const chain::Block*> ptrs;
  for (const chain::Block& b : f.backlog) ptrs.push_back(&b);
  n.PreverifyBlocks(ptrs);
  for (const chain::Block& b : f.backlog) {
    ok = ok && n.OfferBlock(b) == chain::BlockVerdict::kValid;
  }
  s.blocks = n.dag().Size();
  s.fingerprint = n.Fingerprint();
  if (store != nullptr) s.log_bytes = store->GetStats().log_bytes;
  result->Expect(ok && s.blocks == 1 + f.base.size() + f.backlog.size(),
                "restart setup: the device logs every block");
  return s;
}

struct Recovery {
  double seconds = 0;
  std::size_t blocks = 0;
  std::uint64_t replayed = 0;
  Bytes fingerprint;
};

// One crash recovery through RecoverFromStorage (traced == nullptr) or
// step by step with each step timed.
Recovery Recover(const Setup& s, exec::ThreadPool* pool, std::uint64_t seed,
                 StageTimes* traced) {
  Recovery r;
  auto telem = std::make_unique<telemetry::Telemetry>();
  if (traced == nullptr) {
    const auto t0 = Clock::now();
    auto store = OpenDurable(s.dir, telem.get());
    if (store == nullptr) return r;
    auto node = node::RecoverFromStorage(DeviceConfig(pool),
                                         KeysFor(seed, 2'000), store.get());
    r.seconds = UsSince(t0) / 1e6;
    if (!node.ok()) return r;
    r.blocks = (*node)->dag().Size();
    r.fingerprint = (*node)->Fingerprint();
  } else {
    StageTimes t;
    const auto t0 = Clock::now();
    std::unique_ptr<storage::TieredStore> store;
    {
      StageTimer st(&t, kStorageOpen);
      store = OpenDurable(s.dir, telem.get());
    }
    if (store == nullptr) return r;
    StatusOr<chain::Dag> dag = FailedPreconditionError("not recovered");
    {
      StageTimer st(&t, kStorageReplay);
      dag = store->RecoverDag();
    }
    if (!dag.ok()) return r;
    // Node::Restore builds a node from genesis first (its constructor
    // applies the genesis block), then replays into a fresh machine.
    csm::StateMachine discarded({}, telem.get());
    discarded.ApplyBlock(s.genesis);
    std::vector<chain::BlockHash> order;
    {
      StageTimer st(&t, kChainTopoOrder);
      order = dag->TopologicalOrder();
    }
    csm::StateMachine csm({}, telem.get());
    {
      StageTimer st(&t, kCsmApply);
      for (const chain::BlockHash& h : order) csm.ApplyBlock(*dag->Find(h));
    }
    store->UpdateResidency(*dag);
    t.total_us = UsSince(t0);
    t.blocks = static_cast<double>(dag->Size());
    traced->Add(t);
    r.seconds = t.total_us / 1e6;
    r.blocks = dag->Size();
    r.fingerprint = ReplicaFingerprint(*dag, csm);
  }
  r.replayed =
      telem->metrics.CounterValue("storage.recovery.records_replayed");
  return r;
}

}  // namespace

Result RunRestart(const Options& opt) {
  Pools pools;
  Result result("restart");
  const Sizes sz = SizesFor(opt);
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < sz.setups; ++i) {
    const auto t0 = Clock::now();
    s = BuildSetup(opt, sz, pools, &result);
    setup_s.push_back(UsSince(t0) / 1e6);
    result.EndOp();
  }
  const double blocks = static_cast<double>(s.blocks);

  std::array<std::vector<double>, 2> secs;
  std::vector<double> untraced_t1;
  std::array<StageTimes, 2> traced{};
  std::optional<std::uint64_t> replayed;
  const auto check = [&](const Recovery& r) {
    result.Expect(r.blocks == s.blocks && r.fingerprint == s.fingerprint,
                 "restart: recovered state equals the pre-crash state");
    if (!replayed.has_value()) replayed = r.replayed;
    result.Expect(r.replayed == *replayed,
                 "restart: every recovery, traced or not, replays the same "
                 "records");
    result.EndOp();
  };
  AlternateWidths(opt, sz.min_pairs, true, [&](int, int w, bool tr) {
    const auto wi = static_cast<std::size_t>(w);
    const Recovery r =
        Recover(s, pools.at(w), opt.seed, tr ? &traced[wi] : nullptr);
    check(r);
    (opt.trace && !tr ? untraced_t1 : secs[wi]).push_back(r.seconds);
  });
  RemoveDir(s.dir);

  result.Detail("setup_s",
                Wall(Median(setup_s), "s", false, setup_s.size()));
  result.Detail("storage_read_bytes_per_block",
                Exact(double(s.log_bytes) / blocks, "B", Kind::kCount, false));
  if (!opt.trace) {
    EndToEnd e;
    e.setup_s = Median(setup_s);
    e.blocks_per_s = {blocks / Median(secs[0]), blocks / Median(secs[1])};
    e.latency_ms_p50 = 1e3 * Median(secs[0]);
    e.bytes_per_block = double(s.log_bytes) / blocks;
    result.SetEndToEnd(e);
    result.Detail("recover_bps_t1",
                  Wall(e.blocks_per_s[0], "1/s", true, secs[0].size()));
    result.Detail("recover_bps_tN",
                  Wall(e.blocks_per_s[1], "1/s", true, secs[1].size()));
    result.Detail("recover_ms_p50",
                  Wall(e.latency_ms_p50, "ms", false, secs[0].size()));
    std::printf("restart: %.0f-block log, %zu+%zu recoveries (t1+tN)\n",
                blocks, secs[0].size(), secs[1].size());
    std::printf("  recover t1 %.0f blocks/s (%.1f ms), tN %.0f blocks/s\n",
                e.blocks_per_s[0], e.latency_ms_p50, e.blocks_per_s[1]);
  } else {
    LayerCounts lc;
    lc.storage_read_bytes_per_block = double(s.log_bytes) / blocks;
    result.SetLayers(traced, 1e6 * Median(untraced_t1) / blocks, lc);
    std::printf("restart (traced): %.0f-block log, %zu+%zu traced recoveries\n",
                blocks, secs[0].size(), secs[1].size());
    result.PrintStageTable();
  }
  return result;
}

}  // namespace vegvisir::e2e

// local_write: one client in a closed loop calls Node::AppendOp on its
// own durable node, rotating over four CRDTs; the node's clock
// advances 1 ms per write (without that, the 5 s future-timestamp
// check would reject the node's own blocks after about 5k writes).
//
// One block at a time: Ed25519 sign, the synchronous verify of the
// node's own block, the fsync'd append, DAG insert and CSM apply. No
// exec fan-out and no reconciliation, so a batching or parallel-verify
// change that adds per-write latency shows up here.
//
// The loop runs in short epochs of 250 writes on a fresh node, so the
// state a write sees does not depend on how fast the host is, and the
// median epoch shrugs off a burst from a neighbour on the host; epochs
// alternate between exec width 1 and width N (the pool is unused on
// this path: the two widths should read the same). Every epoch writes
// the same seeded operations, so every epoch, traced or not, must end
// on the same fingerprint.
#include <cstdio>
#include <functional>
#include <map>
#include <optional>

#include "chain/genesis.h"
#include "common.h"
#include "crdt/counters.h"
#include "crdt/map.h"
#include "crdt/rga.h"
#include "crdt/sets.h"
#include "node/node.h"
#include "storage/engine.h"
#include "util/rng.h"

namespace vegvisir::e2e {
namespace {

constexpr std::uint64_t kStartMs = 1'000;

struct Sizes {
  int writes;  // per epoch
  int min_pairs;
};

Sizes SizesFor(const Options& opt) {
  return opt.smoke ? Sizes{40, 1} : Sizes{250, 10};
}

struct Op {
  const char* crdt;
  std::string op;
  crdt::Value a;
  crdt::Value b;  // second argument (map value, rga value); unused else
};

// The epoch's operations, from the seed alone. The rga parent is the
// previous rga insert, known only once it is written, so it is filled
// in at write time.
std::vector<Op> MakeOps(std::uint64_t seed, int n) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 0x10CA1ULL);
  std::vector<Op> ops;
  for (int i = 0; i < n; ++i) {
    switch (i % 4) {
      case 0:
        ops.push_back(
            {"g", "add", crdt::Value::OfStr(RandomText(rng, 16, 48)), {}});
        break;
      case 1:
        ops.push_back({"c", rng.NextBelow(3) == 0 ? "dec" : "inc",
                       crdt::Value::OfInt(rng.NextInRange(1, 100)), {}});
        break;
      case 2:
        ops.push_back(
            {"m", "put",
             crdt::Value::OfStr(RandomKey(rng)),
             crdt::Value::OfStr(RandomText(rng, 8, 32))});
        break;
      default:
        ops.push_back(
            {"r", "insert", {}, crdt::Value::OfStr(RandomText(rng, 4, 24))});
        break;
    }
  }
  return ops;
}

std::vector<crdt::Value> ArgsOf(const Op& op, const std::string& rga_parent) {
  if (std::string(op.crdt) == "r") {
    return {crdt::Value::OfStr(rga_parent), op.b};
  }
  if (std::string(op.crdt) == "m") return {op.a, op.b};
  return {op.a};
}

void CreateCrdts(const std::function<bool(chain::Transaction)>& submit,
                 bool* ok) {
  const csm::AclPolicy open = csm::AclPolicy::AllowAll();
  *ok = submit(csm::StateMachine::MakeCreateTx(
            "g", crdt::CrdtType::kGSet, crdt::ValueType::kStr, open)) &&
        submit(csm::StateMachine::MakeCreateTx(
            "c", crdt::CrdtType::kPnCounter, crdt::ValueType::kInt, open)) &&
        submit(csm::StateMachine::MakeCreateTx(
            "m", crdt::CrdtType::kLwwMap, crdt::ValueType::kStr, open)) &&
        submit(csm::StateMachine::MakeCreateTx(
            "r", crdt::CrdtType::kRga, crdt::ValueType::kStr, open));
}

// What an epoch must leave behind, checked against the operations.
bool StateMatches(const csm::StateMachine& csm, const std::vector<Op>& ops) {
  std::int64_t counter = 0;
  std::size_t adds = 0;
  std::size_t inserts = 0;
  std::map<std::string, crdt::Value> last;
  for (const Op& op : ops) {
    const std::string name = op.crdt;
    if (name == "g") ++adds;
    if (name == "r") ++inserts;
    if (name == "c") counter += (op.op == "inc" ? 1 : -1) * op.a.AsInt();
    if (name == "m") last[op.a.AsStr()] = op.b;
  }
  const auto* g = csm.FindCrdtAs<crdt::GSet>("g");
  const auto* c = csm.FindCrdtAs<crdt::PnCounter>("c");
  const auto* m = csm.FindCrdtAs<crdt::LwwMap>("m");
  const auto* r = csm.FindCrdtAs<crdt::Rga>("r");
  if (g == nullptr || c == nullptr || m == nullptr || r == nullptr) {
    return false;
  }
  bool ok = g->Size() == adds && c->Value() == counter &&
            r->ElementCount() == inserts;
  for (const auto& [key, value] : last) ok = ok && m->Get(key) == value;
  return ok;
}

// Node::Submit and Node::AdmitBlock re-assembled from public parts,
// with a timer on every call. Writes as "owner" on its own chain.
class TracedWriter {
 public:
  TracedWriter(const chain::Block& genesis, const crypto::KeyPair& keys,
               exec::ThreadPool* pool, StageTimes* times)
      : keys_(keys),
        telem_(std::make_unique<telemetry::Telemetry>()),
        presig_(pool, telem_.get()),
        dag_(genesis),
        csm_({}, telem_.get()),
        times_(times) {
    csm_.ApplyBlock(genesis);
  }

  bool Attach(storage::TieredStore* store) {
    store_ = store;
    return SeedLog(dag_, store);
  }

  void set_times(StageTimes* times) { times_ = times; }
  void SetTime(std::uint64_t ms) { now_ms_ = ms; }
  telemetry::Telemetry* telemetry() const { return telem_.get(); }
  const chain::Dag& dag() const { return dag_; }
  const csm::StateMachine& state() const { return csm_; }

  // Returns the new block's hash, or nullopt when Node::Submit would
  // have failed.
  std::optional<chain::BlockHash> Submit(chain::Transaction tx) {
    if (!Precheck(tx)) return std::nullopt;
    chain::BlockHeader header;
    {
      StageTimer t(times_, kChainFrontier);
      header.parents = dag_.Frontier();
      header.timestamp_ms =
          std::max(now_ms_, dag_.MaxParentTimestamp(header.parents) + 1);
    }
    header.user_id = "owner";
    chain::Block block;
    {
      StageTimer t(times_, kChainBlockCreate);
      block = chain::Block::Create(std::move(header), {std::move(tx)}, keys_);
    }
    chain::ValidationResult r;
    {
      StageTimer t(times_, kChainValidate);
      r = chain::ValidateBlock(block, dag_, csm_.membership(), now_ms_, {},
                               &presig_);
    }
    if (r.verdict != chain::BlockVerdict::kRetryLater) {
      presig_.Forget(block.hash());
    }
    telem_->trace.RecordInstant("block.validate", now_ms_,
                                static_cast<std::uint64_t>(r.verdict));
    if (r.verdict != chain::BlockVerdict::kValid) return std::nullopt;
    {
      StageTimer t(times_, kStorageAppend);
      if (!store_->Append(block).ok()) return std::nullopt;
    }
    {
      StageTimer t(times_, kChainDagInsert);
      if (!dag_.Insert(block).ok()) return std::nullopt;
    }
    StageTimer t(times_, kCsmApply);
    csm_.ApplyBlock(block);
    return block.hash();
  }

 private:
  // Node::PrecheckTransactions for one transaction.
  bool Precheck(const chain::Transaction& tx) const {
    if (tx.crdt_name.rfind("__", 0) == 0) return true;
    const crdt::Crdt* crdt = csm_.FindCrdt(tx.crdt_name);
    if (crdt == nullptr || !crdt->CheckOp(tx.op, tx.args).ok()) return false;
    const csm::AclPolicy* policy = csm_.PolicyOf(tx.crdt_name);
    return policy == nullptr ||
           policy->IsAllowed(csm_.membership().RoleOf("owner"), tx.op);
  }

  const crypto::KeyPair& keys_;
  std::unique_ptr<telemetry::Telemetry> telem_;
  exec::BatchVerifier presig_;
  chain::Dag dag_;
  csm::StateMachine csm_;
  storage::TieredStore* store_ = nullptr;
  StageTimes* times_;
  std::uint64_t now_ms_ = 0;
};

struct Epoch {
  double setup_s = 0;
  double write_s = 0;
  std::vector<double> write_us;
  std::uint64_t appends = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t presig_misses = 0;
  std::uint64_t log_bytes = 0;
  Bytes fingerprint;
};

struct Chain {
  std::unique_ptr<crypto::KeyPair> keys;
  chain::Block genesis;
};

// One epoch on a real Node (traced == nullptr) or on TracedWriter.
Epoch RunEpoch(const Options& opt, const Chain& ch, const std::vector<Op>& ops,
               exec::ThreadPool* pool, int rep, StageTimes* traced,
               Result* result) {
  Epoch e;
  const std::string dir = FreshDir(opt, "local_write-" + std::to_string(rep));
  const auto t_setup = Clock::now();
  std::unique_ptr<node::Node> n;
  std::unique_ptr<TracedWriter> tw;
  std::unique_ptr<storage::TieredStore> store;
  StageTimes setup_times;
  bool ok = false;
  telemetry::Telemetry* t = nullptr;
  if (traced == nullptr) {
    node::NodeConfig cfg;
    cfg.user_id = "owner";
    cfg.exec_pool = pool;
    n = std::make_unique<node::Node>(cfg, ch.genesis, *ch.keys);
    t = n->telemetry();
    store = OpenDurable(dir, t);
    n->SetTime(kStartMs);
    ok = store != nullptr && n->AttachStorage(store.get()).ok();
    if (ok) {
      CreateCrdts([&](chain::Transaction tx) {
        return n->Submit({std::move(tx)}).ok();
      }, &ok);
    }
  } else {
    tw = std::make_unique<TracedWriter>(ch.genesis, *ch.keys, pool,
                                        &setup_times);
    t = tw->telemetry();
    store = OpenDurable(dir, t);
    tw->SetTime(kStartMs);
    ok = store != nullptr && tw->Attach(store.get());
    if (ok) {
      CreateCrdts([&](chain::Transaction tx) {
        return tw->Submit(std::move(tx)).has_value();
      }, &ok);
    }
  }
  e.setup_s = UsSince(t_setup) / 1e6;
  result->Expect(ok, "local_write: epoch setup");
  if (!ok) return e;

  const std::uint64_t appends0 = t->metrics.CounterValue("storage.appends");
  const std::uint64_t fsyncs0 = t->metrics.CounterValue("storage.fsyncs");
  const std::uint64_t misses0 = t->metrics.CounterValue("exec.presig_misses");
  const std::uint64_t log0 = store->GetStats().log_bytes;
  StageTimes run;
  if (tw != nullptr) tw->set_times(&run);
  std::string rga_parent;
  int failed = 0;
  e.write_us.reserve(ops.size());
  const auto t_loop = Clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::uint64_t now = kStartMs + 1 + i;
    std::optional<chain::BlockHash> h;
    const auto t0 = Clock::now();
    if (n != nullptr) {
      n->SetTime(now);
      auto r = n->AppendOp(op.crdt, op.op, ArgsOf(op, rga_parent));
      if (r.ok()) h = *r;
    } else {
      tw->SetTime(now);
      chain::Transaction tx;
      tx.crdt_name = op.crdt;
      tx.op = op.op;
      tx.args = ArgsOf(op, rga_parent);
      h = tw->Submit(std::move(tx));
    }
    e.write_us.push_back(UsSince(t0));
    if (!h.has_value()) {
      ++failed;
    } else if (std::string(op.crdt) == "r") {
      rga_parent = chain::HashHex(*h) + ":0";
    }
  }
  e.write_s = UsSince(t_loop) / 1e6;
  if (traced != nullptr) {
    run.total_us = e.write_s * 1e6;
    run.blocks = static_cast<double>(ops.size());
    traced->Add(run);
  }
  e.appends = t->metrics.CounterValue("storage.appends") - appends0;
  e.fsyncs = t->metrics.CounterValue("storage.fsyncs") - fsyncs0;
  e.presig_misses = t->metrics.CounterValue("exec.presig_misses") - misses0;
  e.log_bytes = store->GetStats().log_bytes - log0;
  const csm::StateMachine& csm = n != nullptr ? n->state() : tw->state();
  e.fingerprint = n != nullptr ? n->Fingerprint()
                               : ReplicaFingerprint(tw->dag(), tw->state());
  result->Expect(failed == 0, "local_write: every AppendOp succeeds");
  result->Expect(StateMatches(csm, ops),
                "local_write: CRDT state equals the operations written");
  result->Expect(e.appends == ops.size() && e.fsyncs >= ops.size(),
                "local_write: every write logged and fsync'd");
  n.reset();
  tw.reset();
  store.reset();
  RemoveDir(dir);
  return e;
}

}  // namespace

Result RunLocalWrite(const Options& opt) {
  Pools pools;
  Result result("local_write");
  const Sizes sz = SizesFor(opt);
  Chain ch;
  ch.keys = std::make_unique<crypto::KeyPair>(KeysFor(opt.seed, 0));
  ch.genesis = chain::GenesisBuilder("e2e-local-" + std::to_string(opt.seed))
                   .WithTimestamp(1)
                   .Build("owner", *ch.keys);
  const std::vector<Op> ops = MakeOps(opt.seed, sz.writes);

  std::vector<double> setup_s;
  std::array<std::vector<double>, 2> write_us;    // every write, pooled
  std::array<std::vector<double>, 2> epoch_p50_us;
  std::array<std::vector<double>, 2> ops_per_s;
  std::vector<double> untraced_us;
  std::array<StageTimes, 2> traced{};
  std::optional<Epoch> ref;
  int rep = 0;
  const auto record = [&](const Epoch& e) {
    setup_s.push_back(e.setup_s);
    if (!ref.has_value()) ref = e;
    result.Expect(e.fingerprint == ref->fingerprint &&
                     e.appends == ref->appends && e.fsyncs == ref->fsyncs &&
                     e.presig_misses == ref->presig_misses &&
                     e.log_bytes == ref->log_bytes,
                 "local_write: every epoch, traced or not, at either width, "
                 "ends on the same fingerprint and counts");
    result.EndOp();
  };
  AlternateWidths(opt, sz.min_pairs, true, [&](int, int w, bool tr) {
    const auto wi = static_cast<std::size_t>(w);
    const Epoch e = RunEpoch(opt, ch, ops, pools.at(w), rep++,
                             tr ? &traced[wi] : nullptr, &result);
    record(e);
    if (opt.trace && !tr) {
      untraced_us.push_back(1e6 * e.write_s / double(ops.size()));
      return;
    }
    write_us[wi].insert(write_us[wi].end(), e.write_us.begin(),
                        e.write_us.end());
    epoch_p50_us[wi].push_back(Median(e.write_us));
    ops_per_s[wi].push_back(double(ops.size()) / e.write_s);
  });
  if (!ref.has_value()) return result;
  const double writes = static_cast<double>(ops.size());

  result.Detail("setup_s",
                Wall(Median(setup_s), "s", false, setup_s.size()));
  result.Detail("storage_bytes_per_write",
                Exact(double(ref->log_bytes) / writes, "B", Kind::kCount,
                      false));
  result.Detail("storage_fsyncs_per_write",
                Exact(double(ref->fsyncs) / writes, "count", Kind::kCount,
                      false));
  if (!opt.trace) {
    EndToEnd e;
    e.setup_s = Median(setup_s);
    e.blocks_per_s = {Median(ops_per_s[0]), Median(ops_per_s[1])};
    e.latency_ms_p50 = Median(epoch_p50_us[0]) / 1e3;
    e.bytes_per_block = double(ref->log_bytes) / writes;
    result.SetEndToEnd(e);
    for (int w = 0; w < 2; ++w) {
      const auto wi = static_cast<std::size_t>(w);
      const std::string sfx = std::string("_") + kWidthSuffix[w];
      const std::size_t writes_at_w = write_us[wi].size();
      result.Detail("write_p50_us" + sfx, Wall(Median(epoch_p50_us[wi]), "us",
                                               false, writes_at_w));
      result.Detail("write_p99_us" + sfx,
                    Wall(Percentile(write_us[wi], 99), "us", false,
                         writes_at_w));
      result.Detail("write_ops_per_s" + sfx,
                    Wall(Median(ops_per_s[wi]), "1/s", true,
                         ops_per_s[wi].size()));
    }
    std::printf("local_write: %zu+%zu epochs of %d writes (t1+tN)\n",
                ops_per_s[0].size(), ops_per_s[1].size(), sz.writes);
    std::printf("  write p50 %.1f us, p99 %.1f us, %.0f writes/s (t1); "
                "p50 %.1f us (tN)\n",
                Median(epoch_p50_us[0]), Percentile(write_us[0], 99),
                e.blocks_per_s[0], Median(epoch_p50_us[1]));
  } else {
    LayerCounts lc;
    lc.storage_fsyncs_per_block = double(ref->fsyncs) / writes;
    lc.storage_write_bytes_per_block = double(ref->log_bytes) / writes;
    result.SetLayers(traced, Median(untraced_us), lc);
    std::printf("local_write (traced): %zu+%zu traced epochs of %d writes\n",
                ops_per_s[0].size(), ops_per_s[1].size(), sz.writes);
    result.PrintStageTable();
  }
  return result;
}

}  // namespace vegvisir::e2e

// catchup: a member that was away while the fleet wrote a backlog
// rejoins and pulls it in one kSetDiff session (RunLocalSession)
// from a neighbour that holds it, with durable storage. Sessions
// alternate between exec width 1 and width N, so both widths see the
// same host state. Closed loop, one session at a time.
//
// This is the ingest path end to end: signature pre-verification on
// the pool, validation, the write-ahead append and fsync, DAG insert
// and CSM apply, behind setdiff's probe / sketch / peel / fetch.
//
// The traced run replays the same sessions against TracedHost, a
// bench-side ReconHost that follows Node::AdmitBlock's order with
// the same public objects (Dag, StateMachine, BatchVerifier,
// TieredStore, ValidateBlock) and times each call.
#include <cstdio>
#include <deque>
#include <optional>

#include "common.h"
#include "node/node.h"
#include "recon/session.h"
#include "storage/engine.h"

namespace vegvisir::e2e {
namespace {

constexpr int kWriters = 8;

struct Sizes {
  int backlog;
  int setups;
  int min_pairs;
};

Sizes SizesFor(const Options& opt) {
  return opt.smoke ? Sizes{48, 2, 1} : Sizes{2'000, 3, 3};
}

recon::ReconConfig SetDiff() {
  recon::ReconConfig cfg;
  cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  return cfg;
}

std::uint64_t CounterOf(telemetry::Telemetry* t, const char* name) {
  return t->metrics.CounterValue(name);
}

// The counts a session leaves behind; the traced replica must leave
// exactly the same ones.
struct SessionCounts {
  std::uint64_t admitted = 0;
  std::uint64_t appends = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t presig_hits = 0;
  std::uint64_t presig_misses = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t log_bytes = 0;
  Bytes fingerprint;
  bool operator==(const SessionCounts&) const = default;

  // Counter deltas since `before`; the fingerprint is kept as is.
  SessionCounts Since(const SessionCounts& before) const {
    SessionCounts d = *this;
    d.admitted -= before.admitted;
    d.appends -= before.appends;
    d.fsyncs -= before.fsyncs;
    d.presig_hits -= before.presig_hits;
    d.presig_misses -= before.presig_misses;
    d.quarantined -= before.quarantined;
    d.log_bytes -= before.log_bytes;
    return d;
  }
};

// The untraced path's one instrument: forwards every call to the Node
// and notes when each newly admitted block became durable.
class DurableProbe final : public recon::ReconHost {
 public:
  DurableProbe(node::Node* node, std::vector<double>* ms_out)
      : node_(node), out_(ms_out) {}
  void Start() { t0_ = Clock::now(); }

  const chain::Dag& dag() const override { return node_->dag(); }
  bool HasBlock(const chain::BlockHash& h) const override {
    return node_->HasBlock(h);
  }
  telemetry::Telemetry* telemetry() const override {
    return node_->telemetry();
  }
  void PreverifyBlocks(
      const std::vector<const chain::Block*>& blocks) override {
    node_->PreverifyBlocks(blocks);
  }
  chain::BlockVerdict OfferBlock(const chain::Block& block) override {
    const std::size_t before = node_->dag().Size();
    const chain::BlockVerdict v = node_->OfferBlock(block);
    const std::size_t admitted = node_->dag().Size() - before;
    if (admitted > 0) {
      const double ms = UsSince(t0_) / 1e3;
      out_->insert(out_->end(), admitted, ms);
    }
    return v;
  }

 private:
  node::Node* node_;
  std::vector<double>* out_;
  Clock::time_point t0_ = Clock::now();
};

// Node's ingest, re-assembled from its public parts with a timer on
// every call (see the file comment). The backlog arrives parent-complete
// in one fetch, so Node never parks a block here; this replica counts a
// block it would park and drops it, and the session checks then fail.
class TracedHost final : public recon::ReconHost {
 public:
  TracedHost(const Fleet& f, exec::ThreadPool* pool, std::uint64_t now_ms,
             StageTimes* times)
      : telem_(std::make_unique<telemetry::Telemetry>()),
        presig_(pool, telem_.get()),
        dag_(f.genesis),
        csm_({}, telem_.get()),
        times_(times),
        now_ms_(now_ms) {
    csm_.ApplyBlock(f.genesis);
  }

  bool Attach(storage::TieredStore* store) {
    store_ = store;
    return SeedLog(dag_, store);
  }

  const chain::Dag& dag() const override { return dag_; }
  telemetry::Telemetry* telemetry() const override { return telem_.get(); }

  void PreverifyBlocks(
      const std::vector<const chain::Block*>& blocks) override {
    const auto t0 = Clock::now();
    {
      StageTimer t(times_, kExecPreverify);
      presig_.Enqueue(
          chain::MakeVerifyJobs(blocks, csm_.membership(), &presig_));
    }
    callback_us_ += UsSince(t0);
  }

  chain::BlockVerdict OfferBlock(const chain::Block& block) override {
    const auto t0 = Clock::now();
    chain::BlockVerdict v = chain::BlockVerdict::kValid;
    if (!dag_.Contains(block.hash())) {
      v = Admit(block);
      if (v == chain::BlockVerdict::kValid) ++admitted_;
    }
    callback_us_ += UsSince(t0);
    return v;
  }

  double callback_us() const { return callback_us_; }
  void set_times(StageTimes* times) { times_ = times; }

  SessionCounts Counts() const {
    SessionCounts c;
    c.admitted = admitted_;
    c.appends = CounterOf(telem_.get(), "storage.appends");
    c.fsyncs = CounterOf(telem_.get(), "storage.fsyncs");
    // Every verdict Admit pre-waited on was looked up twice.
    c.presig_hits = CounterOf(telem_.get(), "exec.presig_hits") - extra_hits_;
    c.presig_misses =
        CounterOf(telem_.get(), "exec.presig_misses") - extra_misses_;
    c.quarantined = quarantined_;
    c.log_bytes = store_ != nullptr ? store_->GetStats().log_bytes : 0;
    c.fingerprint = ReplicaFingerprint(dag_, csm_);
    return c;
  }

 private:
  // ValidateBlock, with the wait for a pre-verification verdict pulled
  // out in front of it so the two can be timed apart. The early Lookup
  // blocks until the verdict lands; ValidateBlock's own Lookup then
  // returns at once. Both count a hit or a miss, so Counts() takes the
  // early ones back out.
  chain::ValidationResult Validate(const chain::Block& block) {
    if (const chain::Certificate* cert =
            csm_.membership().FindCertificate(block.header().user_id)) {
      StageTimer t(times_, kExecVerifyWait);
      const bool hit = presig_.Lookup(block.hash(), cert->public_key)
                           .has_value();
      ++(hit ? extra_hits_ : extra_misses_);
    }
    StageTimer t(times_, kChainValidate);
    return chain::ValidateBlock(block, dag_, csm_.membership(), now_ms_, {},
                                &presig_);
  }

  bool Persist(const chain::Block& block) {
    StageTimer t(times_, kStorageAppend);
    return store_ == nullptr || store_->Append(block).ok();
  }

  void InsertAndApply(const chain::Block& block) {
    {
      StageTimer t(times_, kChainDagInsert);
      (void)dag_.Insert(block);
    }
    StageTimer t(times_, kCsmApply);
    csm_.ApplyBlock(block);
  }

  chain::BlockVerdict Admit(const chain::Block& block) {
    const chain::ValidationResult r = Validate(block);
    if (r.verdict != chain::BlockVerdict::kRetryLater) {
      presig_.Forget(block.hash());
    }
    telem_->trace.RecordInstant("block.validate", now_ms_,
                                static_cast<std::uint64_t>(r.verdict));
    if (r.verdict == chain::BlockVerdict::kValid && !Persist(block)) {
      ++quarantined_;
      return chain::BlockVerdict::kRetryLater;
    }
    if (r.verdict == chain::BlockVerdict::kValid) InsertAndApply(block);
    if (r.verdict == chain::BlockVerdict::kRetryLater) ++quarantined_;
    return r.verdict;
  }

  // Heap-held so the handles bound below survive any move of *this.
  std::unique_ptr<telemetry::Telemetry> telem_;
  exec::BatchVerifier presig_;
  chain::Dag dag_;
  csm::StateMachine csm_;
  storage::TieredStore* store_ = nullptr;
  StageTimes* times_;
  std::uint64_t now_ms_;
  double callback_us_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t extra_hits_ = 0;
  std::uint64_t extra_misses_ = 0;
};

// RunLocalSession's wire loop, with the two session sides timed. The
// initiator's self time excludes the host callbacks it makes.
recon::SessionState TracedSession(TracedHost* host, node::Node* responder_host,
                                  StageTimes* times,
                                  recon::SessionStats* istats) {
  const auto t_total = Clock::now();
  const recon::ReconConfig cfg = SetDiff();
  recon::InitiatorSession initiator(host, cfg);
  recon::ResponderSession responder(responder_host, cfg);
  const auto initiator_step = [&](auto&& call) {
    const double cb0 = host->callback_us();
    const auto t0 = Clock::now();
    const bool ok = call();
    times->us[kReconInitiatorSelf] +=
        UsSince(t0) - (host->callback_us() - cb0);
    return ok;
  };

  std::deque<Bytes> to_responder;
  std::deque<Bytes> to_initiator;
  initiator_step([&] {
    to_responder.push_back(initiator.Start());
    return true;
  });
  for (int step = 0; step < 1'000'000; ++step) {
    std::vector<Bytes> replies;
    if (!to_responder.empty()) {
      const Bytes msg = std::move(to_responder.front());
      to_responder.pop_front();
      bool ok = false;
      {
        StageTimer t(times, kReconResponder);
        ok = responder.OnMessage(msg, &replies).ok();
      }
      if (!ok) break;
      for (Bytes& r : replies) to_initiator.push_back(std::move(r));
      continue;
    }
    if (!to_initiator.empty()) {
      const Bytes msg = std::move(to_initiator.front());
      to_initiator.pop_front();
      if (!initiator_step(
              [&] { return initiator.OnMessage(msg, &replies).ok(); })) {
        break;
      }
      for (Bytes& r : replies) to_responder.push_back(std::move(r));
      continue;
    }
    break;
  }
  times->total_us += UsSince(t_total);
  *istats = initiator.stats();
  return initiator.state();
}

struct Setup {
  Fleet fleet;
  std::unique_ptr<node::Node> hub;
  Bytes hub_fingerprint;
};

// Builds the backlog and the neighbour that serves it.
Setup BuildSetup(const Options& opt, const Sizes& sz, Pools& pools,
                 Result* result) {
  Setup s;
  s.fleet = MakeFleet(opt.seed, kWriters, sz.backlog, &pools.wide);
  node::NodeConfig cfg;
  cfg.user_id = "hub";
  cfg.recon = SetDiff();
  cfg.exec_pool = &pools.wide;
  s.hub = std::make_unique<node::Node>(cfg, s.fleet.genesis,
                                       KeysFor(opt.seed, 1'000));
  s.hub->SetTime(s.fleet.max_timestamp_ms);
  bool ok = true;
  for (const chain::Block& b : s.fleet.base) {
    ok = ok && s.hub->OfferBlock(b) == chain::BlockVerdict::kValid;
  }
  std::vector<const chain::Block*> ptrs;
  for (const chain::Block& b : s.fleet.backlog) ptrs.push_back(&b);
  s.hub->PreverifyBlocks(ptrs);
  for (const chain::Block& b : s.fleet.backlog) {
    ok = ok && s.hub->OfferBlock(b) == chain::BlockVerdict::kValid;
  }
  result->Expect(ok && s.hub->dag().Size() == 1 + s.fleet.base.size() +
                                                 s.fleet.backlog.size(),
                "catchup setup: the neighbour holds the whole backlog");
  s.hub_fingerprint = s.hub->Fingerprint();
  return s;
}

// A rejoining member: it holds genesis and the base blocks (it was
// enrolled before it left), with a fresh durable log.
std::unique_ptr<node::Node> MakeRejoiner(const Options& opt, const Setup& s,
                                         exec::ThreadPool* pool,
                                         Result* result) {
  node::NodeConfig cfg;
  cfg.user_id = "rejoiner";
  cfg.recon = SetDiff();
  cfg.exec_pool = pool;
  auto n = std::make_unique<node::Node>(cfg, s.fleet.genesis,
                                        KeysFor(opt.seed, 1'001));
  n->SetTime(s.fleet.max_timestamp_ms);
  bool ok = true;
  for (const chain::Block& b : s.fleet.base) {
    ok = ok && n->OfferBlock(b) == chain::BlockVerdict::kValid;
  }
  result->Expect(ok, "catchup: rejoiner holds the base blocks");
  return n;
}


SessionCounts NodeCounts(const node::Node& n,
                         const storage::TieredStore& store) {
  telemetry::Telemetry* t = n.telemetry();
  SessionCounts c;
  c.admitted = CounterOf(t, "node.blocks_accepted");
  c.appends = CounterOf(t, "storage.appends");
  c.fsyncs = CounterOf(t, "storage.fsyncs");
  c.presig_hits = CounterOf(t, "exec.presig_hits");
  c.presig_misses = CounterOf(t, "exec.presig_misses");
  c.quarantined = CounterOf(t, "node.blocks_quarantined");
  c.log_bytes = store.GetStats().log_bytes;
  c.fingerprint = n.Fingerprint();
  return c;
}

struct SessionResult {
  double seconds = 0;
  // When each backlog block became durable, ms after the session began
  // (untraced sessions only).
  std::vector<double> durable_ms;
  SessionCounts counts;  // deltas over the session
  recon::SessionStats istats;
  std::uint64_t sketch_bytes = 0;
  std::uint64_t decodes = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t fallbacks = 0;
};

// One catch-up session, on the real Node (traced == nullptr) or on
// TracedHost, whose stage times are added to *traced.
SessionResult RunSession(const Options& opt, const Setup& s,
                         exec::ThreadPool* pool, int rep, StageTimes* traced,
                         Result* result) {
  SessionResult out;
  const std::string dir = FreshDir(opt, "catchup-" + std::to_string(rep));
  telemetry::Telemetry* hub_t = s.hub->telemetry();
  const std::uint64_t sketch0 = CounterOf(hub_t, "setdiff.sketch_bytes");
  std::unique_ptr<node::Node> n;
  std::unique_ptr<TracedHost> host;
  std::unique_ptr<storage::TieredStore> store;
  telemetry::Telemetry* init_t = nullptr;
  bool done = false;
  std::size_t held = 0;
  StageTimes bootstrap;
  if (traced == nullptr) {
    n = MakeRejoiner(opt, s, pool, result);
    init_t = n->telemetry();
    store = OpenDurable(dir, init_t);
    result->Expect(store != nullptr && n->AttachStorage(store.get()).ok(),
                  "catchup: durable store attaches");
  } else {
    host = std::make_unique<TracedHost>(s.fleet, pool,
                                        s.fleet.max_timestamp_ms, &bootstrap);
    bool ok = true;
    for (const chain::Block& b : s.fleet.base) {
      ok = ok && host->OfferBlock(b) == chain::BlockVerdict::kValid;
    }
    init_t = host->telemetry();
    store = OpenDurable(dir, init_t);
    result->Expect(ok && store != nullptr && host->Attach(store.get()),
                  "catchup: traced replica holds the base blocks");
  }
  if (store == nullptr) return out;
  const telemetry::Snapshot init0 = init_t->metrics.TakeSnapshot();

  if (n != nullptr) {
    const SessionCounts before = NodeCounts(*n, *store);
    DurableProbe probe(n.get(), &out.durable_ms);
    const auto t0 = Clock::now();
    probe.Start();
    done = recon::RunLocalSession(&probe, s.hub.get(), SetDiff(),
                                  &out.istats) == recon::SessionState::kDone;
    out.seconds = UsSince(t0) / 1e6;
    out.counts = NodeCounts(*n, *store).Since(before);
    held = n->dag().Size();
  } else {
    const SessionCounts before = host->Counts();
    StageTimes run;
    host->set_times(&run);
    done = TracedSession(host.get(), s.hub.get(), &run, &out.istats) ==
           recon::SessionState::kDone;
    host->set_times(&bootstrap);
    out.seconds = run.total_us / 1e6;
    run.blocks = static_cast<double>(s.fleet.backlog.size());
    traced->Add(run);
    out.counts = host->Counts().Since(before);
    held = host->dag().Size();
  }
  const auto delta = [&](const char* name) {
    const auto it = init0.counters.find(name);
    return CounterOf(init_t, name) -
           (it == init0.counters.end() ? 0 : it->second);
  };
  out.decode_failures = delta("setdiff.decode_failure");
  out.decodes = delta("setdiff.decode_success") + out.decode_failures;
  out.fallbacks = delta("setdiff.fallbacks");
  out.sketch_bytes = CounterOf(hub_t, "setdiff.sketch_bytes") - sketch0;

  const std::size_t want = 1 + s.fleet.base.size() + s.fleet.backlog.size();
  result->Expect(done, "catchup: session completes");
  result->Expect(held == want, "catchup: rejoiner holds every block");
  result->Expect(out.counts.fingerprint == s.hub_fingerprint,
                "catchup: rejoiner fingerprint equals the neighbour's");
  result->Expect(out.counts.admitted == s.fleet.backlog.size() &&
                    out.counts.appends == s.fleet.backlog.size(),
                "catchup: every backlog block admitted and logged once");
  n.reset();
  host.reset();
  store.reset();
  RemoveDir(dir);
  return out;
}

}  // namespace

Result RunCatchup(const Options& opt) {
  Pools pools;
  Result result("catchup");
  const Sizes sz = SizesFor(opt);

  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < sz.setups; ++i) {
    const auto t0 = Clock::now();
    s = BuildSetup(opt, sz, pools, &result);
    setup_s.push_back(UsSince(t0) / 1e6);
    result.EndOp();
  }
  const double backlog = static_cast<double>(s.fleet.backlog.size());

  std::array<std::vector<double>, 2> secs;
  std::vector<double> untraced_t1;
  std::vector<double> session_p50_ms;  // t1: each session's median block
  std::vector<double> durable_ms;      // t1: every block, pooled
  std::array<StageTimes, 2> traced{};
  std::optional<SessionResult> ref;
  int rep = 0;
  const auto record = [&](const SessionResult& r) {
    if (!ref.has_value()) ref = r;
    result.Expect(r.counts == ref->counts,
                 "catchup: counts and fingerprint repeat in every session, "
                 "traced or not, at either width");
    result.EndOp();
  };
  AlternateWidths(opt, sz.min_pairs, true, [&](int, int w, bool tr) {
    const auto wi = static_cast<std::size_t>(w);
    const SessionResult r = RunSession(opt, s, pools.at(w), rep++,
                                       tr ? &traced[wi] : nullptr, &result);
    record(r);
    if (opt.trace && !tr) {
      untraced_t1.push_back(r.seconds);
      return;
    }
    secs[wi].push_back(r.seconds);
    if (w == 0 && !tr) {
      session_p50_ms.push_back(Median(r.durable_ms));
      durable_ms.insert(durable_ms.end(), r.durable_ms.begin(),
                        r.durable_ms.end());
    }
  });
  if (!ref.has_value()) return result;
  std::vector<double> speedups;  // per pair: its width-1 over width-N time
  for (std::size_t i = 0; i < secs[1].size(); ++i) {
    speedups.push_back(secs[0][i] / secs[1][i]);
  }
  const SessionCounts& c = ref->counts;
  const std::size_t n1 = secs[0].size();
  const std::size_t nn = secs[1].size();

  result.Detail("setup_s", Wall(Median(setup_s), "s", false, setup_s.size()));
  const double recon_bytes =
      double(ref->istats.bytes_sent + ref->istats.bytes_received) / backlog;
  result.Detail("recon_bytes_per_block",
                Exact(recon_bytes, "B", Kind::kCount, false));
  result.Detail("storage_fsyncs_per_block",
                Exact(double(c.fsyncs) / backlog, "count", Kind::kCount,
                      false));
  result.Detail("presig_hit_ratio",
                Exact(double(c.presig_hits) /
                          double(std::max<std::uint64_t>(
                              1, c.presig_hits + c.presig_misses)),
                      "frac", Kind::kCount, true));
  if (!opt.trace) {
    EndToEnd e;
    e.setup_s = Median(setup_s);
    e.blocks_per_s = {backlog / Median(secs[0]), backlog / Median(secs[1])};
    e.latency_ms_p50 = Median(session_p50_ms);
    e.bytes_per_block = recon_bytes;
    result.SetEndToEnd(e);
    result.Detail("ingest_bps_t1", Wall(e.blocks_per_s[0], "1/s", true, n1));
    result.Detail("ingest_bps_tN", Wall(e.blocks_per_s[1], "1/s", true, nn));
    result.Detail("exec.speedup_tN",
                  Wall(Median(speedups), "x", true, speedups.size()));
    result.Detail("block_durable_ms_p50",
                  Wall(e.latency_ms_p50, "ms", false, session_p50_ms.size()));
    result.Detail("block_durable_ms_p99",
                  Wall(Percentile(durable_ms, 99), "ms", false,
                       durable_ms.size()));
    std::printf("catchup: %.0f-block backlog, %zu+%zu sessions (t1+tN)\n",
                backlog, n1, nn);
    std::printf("  ingest t1 %.0f blocks/s, tN(%u) %.0f blocks/s, "
                "speedup %.3fx\n",
                e.blocks_per_s[0], WideWidth(), e.blocks_per_s[1],
                Median(speedups));
    std::printf("  block durable p50 %.1f ms, recon %.1f B/block\n",
                e.latency_ms_p50, e.bytes_per_block);
  } else {
    LayerCounts lc;
    lc.storage_fsyncs_per_block = double(c.fsyncs) / backlog;
    lc.storage_write_bytes_per_block = double(c.log_bytes) / backlog;
    lc.recon_sessions_per_block = 1 / backlog;
    lc.recon_rounds_per_session = double(ref->istats.rounds);
    lc.recon_bytes_per_block = recon_bytes;
    lc.setdiff_sketch_bytes_per_block = double(ref->sketch_bytes) / backlog;
    lc.setdiff_decode_failure_ratio =
        ref->decodes > 0 ? double(ref->decode_failures) / double(ref->decodes)
                         : 0;
    lc.setdiff_fallbacks_per_session = double(ref->fallbacks);
    lc.exec_presig_hit_ratio =
        double(c.presig_hits) /
        double(std::max<std::uint64_t>(1, c.presig_hits + c.presig_misses));
    lc.node_quarantined_per_block = double(c.quarantined) / backlog;
    double untraced_sum = 0;
    for (const double v : untraced_t1) untraced_sum += v;
    const double untraced_us_per_block =
        1e6 * untraced_sum / (backlog * double(untraced_t1.size()));
    result.SetLayers(traced, untraced_us_per_block, lc);
    std::printf("catchup (traced): %.0f-block backlog, %zu+%zu traced "
                "sessions\n",
                backlog, n1, nn);
    result.PrintStageTable();
  }
  return result;
}

}  // namespace vegvisir::e2e

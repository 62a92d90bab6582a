// field: a simulated deployment. Nodes sit on a unit-disk topology
// and gossip with kSetDiff reconciliation over lossy links (5 ms base
// latency, 125 B/ms, 1% loss), RAM-only, at exec width 1 or N. The
// load runs in simulated time on a fixed schedule: every node appends
// one operation every 5 s; a 2-way partition cuts the field for 30 s
// in the middle of the load; afterwards every node adds a witness
// block every 5 s, and the run settles until every node converged.
//
// Gossip, reconciliation, setdiff and the simulator do most of the
// work here; the exec pool and storage do almost none. Simulated-time
// and byte metrics are a pure function of the seed; the wall-clock
// metric is the devices' CPU cost per committed block.
//
// A run simulates two scenarios, each at both widths: two fixed field
// layouts (connected unit-disk placements), with the load, gossip
// choices and link losses drawn from the seed. Fixing the layouts
// keeps the seed-to-seed spread of the simulated metrics down to
// what the traffic itself varies. Every width and every repeat of a
// scenario must reproduce its fingerprint and metrics exactly;
// repeats continue until --seconds have passed, for wall samples.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <queue>
#include <set>

#include "common.h"
#include "node/cluster.h"
#include "sim/topology.h"
#include "util/rng.h"

namespace vegvisir::e2e {
namespace {

using sim::TimeMs;

struct Scale {
  int nodes;
  double field_m;
  TimeMs warmup_ms;
  TimeMs load_ms;
  TimeMs partition_from_ms;  // after load start
  TimeMs partition_to_ms;
  TimeMs witness_ms;
  TimeMs settle_cap_ms;
  int scenarios;
};

Scale ScaleFor(const Options& opt) {
  if (opt.smoke) {
    return {6, 200, 15'000, 20'000, 5'000, 10'000, 10'000, 60'000, 1};
  }
  return {16, 424, 30'000, 100'000, 30'000, 60'000, 30'000, 120'000, 2};
}

constexpr TimeMs kOpPeriodMs = 5'000;
constexpr TimeMs kPollMs = 20;
constexpr std::size_t kWitnessK = 3;

struct Tracked {
  chain::BlockHash hash{};
  int creator = 0;
  TimeMs created = 0;
  bool load = false;        // a load op (not a witness block)
  bool partitioned = false; // created while the field was cut
  std::vector<int> missing; // honest nodes not holding it yet
  std::optional<TimeMs> everywhere_at;
  std::optional<TimeMs> persistent_at;
  std::size_t checked_at_size = 0;  // creator's DAG size at last check
};

struct SimOutcome {
  bool ok = false;
  double setup_s = 0;
  double cpu_s = 0;        // RunFor + AppendOp/AddWitnessBlock wall
  std::size_t committed = 0;
  std::vector<double> propagation_ms;
  std::vector<double> persistence_ms;
  double heal_ms = 0;
  telemetry::Snapshot snap;
  Bytes fingerprint;
  StageTimes stages;
};

sim::UnitDiskTopology::Params FieldParams(const Scale& sc) {
  sim::UnitDiskTopology::Params p;
  p.field_size = sc.field_m;
  p.radio_range = 250;
  return p;
}

// Unit-disk placements are random; a scenario's layout is the first one
// from its index whose radio graph is connected, so it can converge.
std::uint64_t ConnectedTopologySeed(const Scale& sc, int scenario) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    const std::uint64_t s = std::uint64_t(scenario) * 7'777ULL + attempt;
    const sim::UnitDiskTopology topo(sc.nodes, FieldParams(sc), s);
    std::set<int> seen = {0};
    std::vector<int> stack = {0};
    while (!stack.empty()) {
      const int n = stack.back();
      stack.pop_back();
      for (const int m : topo.NeighborsOf(n, 0)) {
        if (seen.insert(m).second) stack.push_back(m);
      }
    }
    if (static_cast<int>(seen.size()) == sc.nodes) return s;
  }
}

struct Event {
  TimeMs at;
  int node;
  bool witness;
  bool operator>(const Event& o) const {
    return at != o.at ? at > o.at : node > o.node;
  }
};

SimOutcome RunScenario(const Scale& sc, int scenario, std::uint64_t seed,
                       unsigned width) {
  SimOutcome out;
  StageTimes& st = out.stages;
  const auto t_setup = Clock::now();
  const sim::UnitDiskTopology base(sc.nodes, FieldParams(sc),
                                   ConnectedTopologySeed(sc, scenario));
  sim::PartitionedTopology topo(&base);
  const TimeMs load_start = sc.warmup_ms;
  topo.SplitEvenly(load_start + sc.partition_from_ms,
                   load_start + sc.partition_to_ms, 2);

  node::ClusterConfig cfg;
  cfg.node_count = sc.nodes;
  cfg.seed = seed;
  cfg.node_template.recon.mode = recon::ReconConfig::Mode::kSetDiff;
  cfg.link = sim::LinkParams{5, 125.0, 0.01};
  cfg.exec = exec::ExecConfig{width, 4096};
  node::Cluster cluster(cfg, &topo);
  const csm::AclPolicy open = csm::AclPolicy::AllowAll();
  node::Node& owner = cluster.node(0);
  bool ok = owner.CreateCrdt("g", crdt::CrdtType::kGSet,
                             crdt::ValueType::kStr, open).ok() &&
            owner.CreateCrdt("c", crdt::CrdtType::kPnCounter,
                             crdt::ValueType::kInt, open).ok() &&
            owner.CreateCrdt("m", crdt::CrdtType::kLwwMap,
                             crdt::ValueType::kStr, open).ok() &&
            owner.CreateCrdt("r", crdt::CrdtType::kRga,
                             crdt::ValueType::kStr, open).ok();
  cluster.RunFor(sc.warmup_ms);
  ok = ok && cluster.Converged();
  out.setup_s = UsSince(t_setup) / 1e6;
  if (!ok) return out;

  // The schedule: node i's k-th operation at load_start + i*5s/n + k*5s,
  // then witness blocks on the same stagger after the load.
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> due;
  for (int i = 0; i < sc.nodes; ++i) {
    const TimeMs offset = i * kOpPeriodMs / sc.nodes;
    for (TimeMs t = 0; t < sc.load_ms; t += kOpPeriodMs) {
      due.push({load_start + offset + t, i, false});
    }
    for (TimeMs t = 0; t < sc.witness_ms; t += kOpPeriodMs) {
      due.push({load_start + sc.load_ms + offset + t, i, true});
    }
  }
  const TimeMs heal_at = load_start + sc.partition_to_ms;
  const auto cut = [&](TimeMs t) {
    return t >= load_start + sc.partition_from_ms && t < heal_at;
  };

  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xF1E1DULL);
  std::vector<std::string> last_rga(static_cast<std::size_t>(sc.nodes));
  std::vector<int> op_count(static_cast<std::size_t>(sc.nodes), 0);
  std::vector<Tracked> tracked;
  const std::vector<int>& honest = cluster.honest();

  const auto t_loop = Clock::now();
  const auto submit = [&](const Event& ev) {
    node::Node& n = cluster.node(ev.node);
    StatusOr<chain::BlockHash> h = InternalError("unset");
    const auto i = static_cast<std::size_t>(ev.node);
    bool rga = false;
    {
      const auto t0 = Clock::now();
      if (ev.witness) {
        h = n.AddWitnessBlock();
      } else {
        switch ((ev.node + op_count[i]++) % 4) {
          case 0:
            h = n.AppendOp("g", "add",
                           {crdt::Value::OfStr(std::to_string(rng.NextU64()))});
            break;
          case 1:
            h = n.AppendOp("c", rng.NextBelow(3) == 0 ? "dec" : "inc",
                           {crdt::Value::OfInt(rng.NextInRange(1, 100))});
            break;
          case 2:
            h = n.AppendOp("m", "put",
                           {crdt::Value::OfStr(RandomKey(rng)),
                            crdt::Value::OfStr(std::to_string(rng.NextU64()))});
            break;
          default:
            rga = true;
            h = n.AppendOp("r", "insert",
                           {crdt::Value::OfStr(last_rga[i]),
                            crdt::Value::OfStr(std::to_string(rng.NextU64()))});
            break;
        }
      }
      const double us = UsSince(t0);
      st.us[kNodeAppendOp] += us;
      out.cpu_s += us / 1e6;
    }
    if (!h.ok()) {
      ok = false;
      return;
    }
    if (rga) last_rga[i] = chain::HashHex(*h) + ":0";
    Tracked t;
    t.hash = *h;
    t.creator = ev.node;
    t.created = cluster.simulator().now();
    t.load = !ev.witness;
    t.partitioned = cut(t.created);
    for (const int m : honest) {
      if (m != ev.node) t.missing.push_back(m);
    }
    tracked.push_back(std::move(t));
  };
  const auto run_for = [&](TimeMs d) {
    const auto t0 = Clock::now();
    cluster.RunFor(d);
    const double us = UsSince(t0);
    st.us[kSimRun] += us;
    out.cpu_s += us / 1e6;
  };
  // Propagation: first instant every honest node holds the block.
  // Persistence: first instant its creator sees k witnesses (checked
  // only when the creator's DAG has grown since the last check).
  std::size_t first_open = 0;
  const auto poll = [&] {
    const TimeMs now = cluster.simulator().now();
    for (std::size_t k = first_open; k < tracked.size(); ++k) {
      Tracked& t = tracked[k];
      if (!t.everywhere_at) {
        std::erase_if(t.missing, [&](int m) {
          return cluster.node(m).dag().Contains(t.hash);
        });
        if (t.missing.empty()) t.everywhere_at = now;
      }
      if (t.load && !t.persistent_at) {
        node::Node& creator = cluster.node(t.creator);
        const std::size_t size = creator.dag().Size();
        if (size != t.checked_at_size) {
          t.checked_at_size = size;
          const auto t0 = Clock::now();
          const bool persistent = creator.IsPersistent(t.hash, kWitnessK);
          st.us[kChainWitnessQuery] += UsSince(t0);
          if (persistent) t.persistent_at = now;
        }
      }
    }
    while (first_open < tracked.size() &&
           tracked[first_open].everywhere_at &&
           (!tracked[first_open].load || tracked[first_open].persistent_at)) {
      ++first_open;
    }
  };

  while (ok && !due.empty()) {
    while (!due.empty() && due.top().at <= cluster.simulator().now()) {
      submit(due.top());
      due.pop();
    }
    const TimeMs now = cluster.simulator().now();
    const TimeMs next = due.empty() ? now + kPollMs
                                    : std::min(now + kPollMs, due.top().at);
    run_for(next - now);
    poll();
  }
  const TimeMs settle_end = cluster.simulator().now() + sc.settle_cap_ms;
  while (ok && cluster.simulator().now() < settle_end &&
         (first_open < tracked.size() || !cluster.Converged())) {
    run_for(kPollMs * 50);
    poll();
  }
  st.total_us = UsSince(t_loop);

  out.committed = tracked.size();
  st.blocks = static_cast<double>(out.committed);
  for (const Tracked& t : tracked) {
    ok = ok && t.everywhere_at && (!t.load || t.persistent_at);
    if (!ok) break;
    if (t.partitioned) {
      out.heal_ms =
          std::max(out.heal_ms, double(*t.everywhere_at) - double(heal_at));
    } else if (t.load) {
      out.propagation_ms.push_back(double(*t.everywhere_at - t.created));
    }
    if (t.load) {
      out.persistence_ms.push_back(double(*t.persistent_at - t.created));
    }
  }
  ok = ok && cluster.Converged();
  out.fingerprint = cluster.node(0).Fingerprint();
  out.snap = cluster.AggregateSnapshot();
  out.ok = ok;
  return out;
}

// The counters a scenario must reproduce exactly: all of them except
// the pool's scheduling counter (tools/determinism_exclude.txt).
std::map<std::string, std::uint64_t> ScheduleFree(
    const telemetry::Snapshot& s) {
  std::map<std::string, std::uint64_t> out = s.counters;
  out.erase("exec.steals");
  return out;
}

double Counter(const telemetry::Snapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : double(it->second);
}

}  // namespace

Result RunField(const Options& opt) {
  Result result("field");
  const Scale sc = ScaleFor(opt);
  const unsigned widths[2] = {1, WideWidth()};

  std::vector<double> setup_s;
  // cpu[w][k]: the CPU seconds of every run of scenario k at width w.
  std::array<std::vector<std::vector<double>>, 2> cpu;
  for (auto& c : cpu) c.resize(static_cast<std::size_t>(sc.scenarios));
  std::array<std::size_t, 2> sims{};
  std::array<StageTimes, 2> traced{};
  std::vector<SimOutcome> ref(static_cast<std::size_t>(sc.scenarios));
  std::vector<bool> have(static_cast<std::size_t>(sc.scenarios), false);
  const auto record = [&](const SimOutcome& o, int scenario) {
    const auto k = static_cast<std::size_t>(scenario);
    setup_s.push_back(o.setup_s);
    result.Expect(o.ok, "field: every op succeeds, every block reaches every "
                       "node and is witnessed, replicas converge");
    if (!have[k]) {
      ref[k] = o;
      have[k] = true;
    }
    result.Expect(o.fingerprint == ref[k].fingerprint &&
                      o.propagation_ms == ref[k].propagation_ms &&
                      o.persistence_ms == ref[k].persistence_ms &&
                      ScheduleFree(o.snap) == ScheduleFree(ref[k].snap),
                  "field: a scenario repeats exactly at either width");
    result.EndOp();
  };
  AlternateWidths(opt, sc.scenarios, false, [&](int pair, int w, bool) {
    const auto wi = static_cast<std::size_t>(w);
    const int scenario = pair % sc.scenarios;
    const std::uint64_t seed = opt.seed * 1'000 + std::uint64_t(scenario);
    const SimOutcome o = RunScenario(sc, scenario, seed, widths[w]);
    record(o, scenario);
    cpu[wi][static_cast<std::size_t>(scenario)].push_back(o.cpu_s);
    ++sims[wi];
    traced[wi].Add(o.stages);
  });

  std::vector<double> propagation, persistence;
  double heal_ms = 0, committed = 0;
  telemetry::Snapshot total;
  for (const SimOutcome& o : ref) {
    propagation.insert(propagation.end(), o.propagation_ms.begin(),
                       o.propagation_ms.end());
    persistence.insert(persistence.end(), o.persistence_ms.begin(),
                       o.persistence_ms.end());
    heal_ms += o.heal_ms / double(ref.size());
    committed += double(o.committed);
    total.Merge(o.snap);
  }
  const double radio = Counter(total, "net.bytes_sent") / committed;
  // Committed blocks per CPU second: each scenario's median run, so a
  // slow repeat does not count and the two layouts weigh the same in
  // every run.
  std::array<double, 2> bps{};
  for (std::size_t w = 0; w < 2; ++w) {
    double seconds = 0;
    for (const auto& runs : cpu[w]) seconds += Median(runs);
    bps[w] = committed / seconds;
  }
  result.Detail("setup_s",
                Wall(Median(setup_s), "s", false, setup_s.size()));
  result.Detail("propagation_ms_p50",
                Exact(Median(propagation), "ms", Kind::kSim, false,
                      propagation.size()));
  result.Detail("propagation_ms_p99",
                Exact(Percentile(propagation, 99), "ms", Kind::kSim, false,
                      propagation.size()));
  result.Detail("persistence_ms_p50",
                Exact(Median(persistence), "ms", Kind::kSim, false,
                      persistence.size()));
  result.Detail("heal_ms", Exact(heal_ms, "ms", Kind::kSim, false, ref.size()));
  result.Detail("radio_bytes_per_block",
                Exact(radio, "B", Kind::kSim, false, ref.size()));
  if (!opt.trace) {
    EndToEnd e;
    e.setup_s = Median(setup_s);
    e.blocks_per_s = bps;
    e.latency_ms_p50 = Median(propagation);
    e.bytes_per_block = radio;
    result.SetEndToEnd(e);
    result.Detail("cpu_ms_per_block_t1",
                  Wall(1e3 / e.blocks_per_s[0], "ms", false, sims[0]));
    result.Detail("cpu_ms_per_block_tN",
                  Wall(1e3 / e.blocks_per_s[1], "ms", false, sims[1]));
    std::printf("field: %d nodes, %d scenarios, %zu+%zu simulations (t1+tN)\n",
                sc.nodes, sc.scenarios, sims[0], sims[1]);
    std::printf("  cpu %.3f ms/block (t1), %.3f (tN); propagation p50 %.0f ms, "
                "p99 %.0f ms; persistence p50 %.0f ms; heal %.0f ms; "
                "radio %.0f B/block\n",
                1e3 / e.blocks_per_s[0], 1e3 / e.blocks_per_s[1],
                e.latency_ms_p50, Percentile(propagation, 99),
                Median(persistence), heal_ms, radio);
  } else {
    LayerCounts lc;
    const double sessions = Counter(total, "recon.initiator.sessions_started");
    const double decodes = Counter(total, "setdiff.decode_success") +
                           Counter(total, "setdiff.decode_failure");
    lc.recon_sessions_per_block = sessions / committed;
    lc.recon_rounds_per_session =
        Counter(total, "recon.initiator.rounds") / std::max(1.0, sessions);
    lc.recon_bytes_per_block =
        (Counter(total, "recon.initiator.bytes_sent") +
         Counter(total, "recon.initiator.bytes_received")) /
        committed;
    lc.recon_failed_session_ratio =
        Counter(total, "recon.initiator.sessions_failed") /
        std::max(1.0, sessions);
    lc.setdiff_sketch_bytes_per_block =
        Counter(total, "setdiff.sketch_bytes") / committed;
    lc.setdiff_decode_failure_ratio =
        Counter(total, "setdiff.decode_failure") / std::max(1.0, decodes);
    lc.setdiff_fallbacks_per_session =
        Counter(total, "setdiff.fallbacks") / std::max(1.0, sessions);
    lc.exec_presig_hit_ratio =
        Counter(total, "exec.presig_hits") /
        std::max(1.0, Counter(total, "exec.presig_hits") +
                          Counter(total, "exec.presig_misses"));
    lc.gossip_sessions_timed_out = Counter(total, "gossip.sessions_timed_out");
    lc.net_messages_per_block = Counter(total, "net.messages_sent") / committed;
    lc.node_quarantined_per_block =
        Counter(total, "node.blocks_quarantined") / committed;
    // The stage timers are the ones the untraced run already keeps for
    // cpu_ms_per_block, so the traced run is the untraced one.
    result.SetLayers(traced, traced[0].TotalPerBlock(), lc);
    std::printf("field (traced): %d nodes, %zu+%zu traced simulations\n",
                sc.nodes, sims[0], sims[1]);
    result.PrintStageTable();
  }
  return result;
}

}  // namespace vegvisir::e2e

// E14 — scalability under sustained load ("more extensive
// simulations", paper §VI).
//
// A cluster sustains one transaction per node per 5 simulated seconds
// for two simulated minutes. We sweep node count and reconciliation
// mode and report: convergence (did every replica end identical),
// gossip bytes per node per committed transaction, DAG growth and
// radio energy — the numbers a deployment engineer would ask for.
#include <cstdio>

#include "bench_common.h"
#include "node/cluster.h"
#include "sim/topology.h"

using namespace vegvisir;

namespace {

struct Result {
  bool converged = false;
  int committed = 0;
  double bytes_per_node_tx = 0;
  double mj_per_node = 0;
  std::size_t blocks = 0;
  double wall_ms = 0;
};

Result Run(int n, recon::ReconConfig::Mode mode) {
  sim::UnitDiskTopology::Params p;
  p.field_size = 500;
  p.radio_range = 400;  // dense enough to stay connected at every n
  sim::UnitDiskTopology topo(n, p, 5);

  node::ClusterConfig cfg;
  cfg.node_count = n;
  cfg.seed = 9;
  cfg.node_template.recon.mode = mode;
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(30'000);
  (void)cluster.node(0).CreateCrdt("load", crdt::CrdtType::kGSet,
                                   crdt::ValueType::kStr,
                                   csm::AclPolicy::AllowAll());
  cluster.RunFor(15'000);

  Result result;
  for (int round = 0; round < 24; ++round) {
    for (int i = 0; i < n; ++i) {
      const std::string v =
          "r" + std::to_string(round) + "-n" + std::to_string(i);
      if (cluster.node(i).AppendOp("load", "add",
                                   {crdt::Value::OfStr(v)}).ok()) {
        ++result.committed;
      }
    }
    cluster.RunFor(5'000);
  }
  cluster.RunFor(180'000);  // settle

  result.converged = cluster.Converged();
  double bytes = 0, mj = 0;
  for (int i = 0; i < n; ++i) {
    const telemetry::MetricsRegistry& m = cluster.telemetry(i).metrics;
    bytes += static_cast<double>(
        m.CounterValue("recon.initiator.bytes_sent") +
        m.CounterValue("recon.initiator.bytes_received"));
    mj += cluster.meter(i).total_mj();
  }
  result.bytes_per_node_tx =
      result.committed == 0 ? 0 : bytes / n / result.committed;
  result.mj_per_node = mj / n;
  result.blocks = cluster.node(0).dag().Size();
  benchio::Collector().Merge(cluster.AggregateSnapshot());
  return result;
}

const char* ModeName(recon::ReconConfig::Mode mode) {
  switch (mode) {
    case recon::ReconConfig::Mode::kBlockPush: return "block-push";
    case recon::ReconConfig::Mode::kHashFirst: return "hash-first";
    case recon::ReconConfig::Mode::kSetDiff: return "setdiff";
  }
  return "?";
}

}  // namespace

int main() {
  std::printf("E14: sustained load (1 tx/node/5s for 120s, unit-disk)\n");
  std::printf("%-6s %-11s | %-6s %-9s | %14s | %10s | %8s\n", "n", "mode",
              "conv", "committed", "gossip B/node/tx", "mJ/node", "blocks");
  for (const int n : {4, 8, 16, 32}) {
    for (const auto mode : {recon::ReconConfig::Mode::kBlockPush,
                            recon::ReconConfig::Mode::kSetDiff}) {
      const Result r = Run(n, mode);
      std::printf("%-6d %-11s | %-6s %-9d | %14.0f | %10.1f | %8zu\n", n,
                  ModeName(mode), r.converged ? "yes" : "NO", r.committed,
                  r.bytes_per_node_tx, r.mj_per_node, r.blocks);
    }
  }
  std::printf(
      "\nExpected shape: convergence holds at every size; per-transaction\n"
      "gossip cost grows mildly with n (each block crosses more links);\n"
      "setdiff stays below block-push at every n: idle ticks end at the\n"
      "level-1 frontier digest, and a gap costs one delta-sized sketch.\n");
  benchio::WriteBench("scalability");
  return 0;
}

// E2 — gossip propagation (the paper's Transitivity property, §IV-A).
//
// One node appends a block; we measure the simulated time until every
// node holds it, sweeping cluster size on a clique (expected ~log n
// growth, classic epidemic behaviour) and radio range on a unit-disk
// field (sparse networks propagate through multi-hop gossip).
#include <cstdio>

#include "bench_common.h"
#include "node/cluster.h"
#include "sim/topology.h"

using namespace vegvisir;

namespace {

struct Result {
  double seconds;          // time to 100% propagation
  double session_bytes;    // mean gossip bytes per node over that time
  bool complete;
};

Result MeasurePropagation(node::Cluster* cluster, int n) {
  cluster->RunFor(30'000);  // enrolments settle
  const auto h = cluster->node(0).AddWitnessBlock();
  if (!h.ok()) return {0, 0, false};
  const sim::TimeMs start = cluster->simulator().now();
  const sim::TimeMs deadline = start + 600'000;
  while (cluster->CountHaving(*h) < n &&
         cluster->simulator().now() < deadline) {
    cluster->RunFor(500);
  }
  double bytes = 0;
  for (int i = 0; i < n; ++i) {
    bytes += static_cast<double>(cluster->telemetry(i).metrics.CounterValue(
        "recon.initiator.bytes_sent"));
  }
  benchio::Collector().Merge(cluster->AggregateSnapshot());
  return {(cluster->simulator().now() - start) / 1000.0, bytes / n,
          cluster->CountHaving(*h) == n};
}

}  // namespace

int main() {
  std::printf("E2a: clique size sweep (gossip period 1s)\n");
  std::printf("%-6s | %14s | %16s\n", "n", "time-to-all (s)",
              "bytes/node (tot)");
  for (const int n : {4, 8, 16, 32}) {
    sim::ExplicitTopology topo(n);
    topo.MakeClique();
    node::ClusterConfig cfg;
    cfg.node_count = n;
    cfg.seed = 42;
    node::Cluster cluster(cfg, &topo);
    const Result r = MeasurePropagation(&cluster, n);
    std::printf("%-6d | %14.1f | %16.0f%s\n", n, r.seconds, r.session_bytes,
                r.complete ? "" : "  (INCOMPLETE)");
  }

  std::printf("\nE2b: unit-disk density sweep (16 nodes, 500m field)\n");
  std::printf("%-12s | %14s\n", "range (m)", "time-to-all (s)");
  for (const double range : {450.0, 300.0, 220.0, 180.0}) {
    sim::UnitDiskTopology::Params p;
    p.field_size = 500;
    p.radio_range = range;
    sim::UnitDiskTopology topo(16, p, 7);
    node::ClusterConfig cfg;
    cfg.node_count = 16;
    cfg.seed = 42;
    node::Cluster cluster(cfg, &topo);
    const Result r = MeasurePropagation(&cluster, 16);
    std::printf("%-12.0f | %14.1f%s\n", range, r.seconds,
                r.complete ? "" : "  (did not reach all nodes)");
  }

  std::printf("\nE2c: message-loss sensitivity (8-node clique)\n");
  std::printf("%-12s | %14s\n", "loss", "time-to-all (s)");
  for (const double loss : {0.0, 0.1, 0.3, 0.5}) {
    sim::ExplicitTopology topo(8);
    topo.MakeClique();
    node::ClusterConfig cfg;
    cfg.node_count = 8;
    cfg.seed = 42;
    cfg.link.drop_probability = loss;
    node::Cluster cluster(cfg, &topo);
    const Result r = MeasurePropagation(&cluster, 8);
    std::printf("%-12.0f%% | %14.1f%s\n", loss * 100, r.seconds,
                r.complete ? "" : "  (INCOMPLETE)");
  }

  std::printf(
      "\nExpected shape: clique time grows roughly logarithmically with n;\n"
      "sparser unit-disk networks take longer (multi-hop); loss degrades\n"
      "latency gracefully — gossip retries every period, so even 50%%\n"
      "loss only slows convergence, never prevents it.\n");
  benchio::WriteBench("gossip_convergence");
  return 0;
}

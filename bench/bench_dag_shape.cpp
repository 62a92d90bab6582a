// E11 — DAG shape (paper Fig. 1) vs an IOTA-style tangle.
//
// Vegvisir's submit rule ("every known leaf becomes a parent") reins
// branches in: frontier width reflects *actual concurrency* (gossip
// lag, partitions), not a protocol choice. The tangle's tip count, by
// contrast, is a random process of its tip-selection rule. We sweep
// gossip period and partition count and report frontier width and
// mean parent count; then the tangle's tip behaviour for the same
// transaction count.
#include <cstdio>

#include "bench_common.h"
#include "baseline/tangle.h"
#include "node/cluster.h"
#include "sim/topology.h"

using namespace vegvisir;

namespace {

struct ShapeResult {
  double mean_frontier = 0;
  double max_frontier = 0;
  double mean_parents = 0;
  std::size_t blocks = 0;
};

ShapeResult RunVegvisir(int groups, sim::TimeMs gossip_period) {
  constexpr int kNodes = 8;
  sim::ExplicitTopology base(kNodes);
  base.MakeClique();
  sim::PartitionedTopology topo(&base);
  if (groups > 1) topo.SplitEvenly(40'000, 160'000, groups);

  node::ClusterConfig cfg;
  cfg.node_count = kNodes;
  cfg.seed = 31;
  cfg.gossip.period_ms = gossip_period;
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(30'000);

  ShapeResult result;
  int samples = 0;
  // Writes are staggered (one node every 625 ms) so that with fast
  // gossip each writer has already merged its predecessor's block —
  // frontier width then measures genuine concurrency (gossip lag or
  // partition isolation), not simultaneous submission.
  for (int round = 0; round < 24; ++round) {
    for (int i = 0; i < kNodes; ++i) {
      (void)cluster.node(i).AddWitnessBlock();
      cluster.RunFor(625);
    }
    const double width =
        static_cast<double>(cluster.node(0).dag().Frontier().size());
    result.mean_frontier += width;
    result.max_frontier = std::max(result.max_frontier, width);
    ++samples;
  }
  cluster.RunFor(240'000);  // heal + settle

  const auto& dag = cluster.node(0).dag();
  std::size_t parent_sum = 0;
  for (const auto& h : dag.Hashes()) {
    parent_sum += dag.ParentsOf(h).size();
  }
  result.mean_frontier /= samples;
  result.mean_parents =
      static_cast<double>(parent_sum) / static_cast<double>(dag.Size() - 1);
  result.blocks = dag.Size();
  benchio::Collector().Merge(cluster.AggregateSnapshot());
  return result;
}

}  // namespace

int main() {
  std::printf("E11a: Vegvisir DAG shape (8 nodes, 24 write rounds)\n");
  std::printf("%-8s %-12s | %14s %13s %13s %8s\n", "groups", "gossip (ms)",
              "mean frontier", "max frontier", "mean parents", "blocks");
  for (const int groups : {1, 2, 4}) {
    for (const sim::TimeMs period : {500ull, 1'000ull, 4'000ull}) {
      const ShapeResult r = RunVegvisir(groups, period);
      std::printf("%-8d %-12llu | %14.2f %13.0f %13.2f %8zu\n", groups,
                  static_cast<unsigned long long>(period), r.mean_frontier,
                  r.max_frontier, r.mean_parents, r.blocks);
    }
  }

  std::printf("\nE11b: IOTA-style tangle tips for the same tx count\n"
              "(8 concurrent arrivals per round — issuers select tips\n"
              "against a common snapshot, as network latency causes)\n");
  std::printf("%-22s | %10s | %18s\n", "tip selection", "final tips",
              "genesis cum. weight");
  for (const bool weighted : {false, true}) {
    baseline::TangleParams p;
    p.weighted_walk = weighted;
    baseline::Tangle tangle(p, 13);
    for (int round = 0; round < 24; ++round) {
      // All 8 issuers pick parents before any of this round attaches.
      std::vector<std::pair<baseline::Tangle::TxId,
                            baseline::Tangle::TxId>> picks;
      for (int i = 0; i < 8; ++i) {
        picks.emplace_back(tangle.SelectTip(), tangle.SelectTip());
      }
      for (const auto& [a, b] : picks) {
        tangle.AddTransactionApproving(a, b, BytesOf("tx"));
      }
    }
    std::printf("%-22s | %10zu | %18zu\n",
                weighted ? "weighted walk (MCMC)" : "uniform random",
                tangle.TipCount(), tangle.CumulativeWeight(0));
  }

  std::printf(
      "\nExpected shape: at fixed partitioning, slower gossip widens the\n"
      "observed frontier (more unmerged concurrency). More partition\n"
      "groups *narrow* the frontier observed at any one node — it only\n"
      "sees its own side's writers — and the hidden cross-side\n"
      "concurrency surfaces as merge blocks at heal (mean parents > 1).\n"
      "The tangle, by contrast, keeps a persistent tip population\n"
      "(~arrival concurrency) by design: tips are its throughput\n"
      "mechanism, not a partition symptom.\n");
  benchio::WriteBench("dag_shape");
  return 0;
}

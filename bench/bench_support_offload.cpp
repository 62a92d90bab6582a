// E6 — storage offload to the support blockchain (paper §IV-I, Fig. 4).
//
// A constrained device accumulates blocks under a continuous write
// load. Without offload its storage grows without bound; with a
// superpeer periodically archiving to the support chain and the
// device evicting its oldest archived bodies, storage stays at the
// configured budget — while the device still *knows* every block
// (stubs) and can re-fetch any body from the superpeer.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "node/cluster.h"
#include "sim/topology.h"
#include "support/superpeer.h"

using namespace vegvisir;

int main() {
  constexpr int kNodes = 4;  // 0: superpeer/gateway, 1..3: devices
  constexpr int kRounds = 30;

  struct Config {
    const char* label;
    bool offload;
    std::size_t budget;
  };
  const std::vector<Config> configs = {
      {"no offload", false, 0},
      {"budget 24 kB", true, 24'000},
      {"budget 12 kB", true, 12'000},
  };

  std::printf("E6: device storage under continuous load "
              "(%d write rounds, 3 writers)\n", kRounds);
  std::printf("%-8s", "round");
  for (const auto& c : configs) std::printf(" | %-16s", c.label);
  std::printf("\n");

  // One cluster per configuration, advanced in lockstep.
  struct Instance {
    Config config;
    std::unique_ptr<sim::ExplicitTopology> topo;
    std::unique_ptr<node::Cluster> cluster;
    std::unique_ptr<support::SupportChain> archive;
    std::unique_ptr<support::Superpeer> superpeer;
    std::unique_ptr<support::StorageManager> storage;
  };
  std::vector<Instance> instances;
  for (const auto& c : configs) {
    Instance inst;
    inst.config = c;
    inst.topo = std::make_unique<sim::ExplicitTopology>(kNodes);
    inst.topo->MakeClique();
    node::ClusterConfig cfg;
    cfg.node_count = kNodes;
    cfg.seed = 23;
    inst.cluster = std::make_unique<node::Cluster>(cfg, inst.topo.get());
    inst.cluster->RunFor(20'000);
    (void)inst.cluster->node(0).CreateCrdt("data", crdt::CrdtType::kGSet,
                                           crdt::ValueType::kStr,
                                           csm::AclPolicy::AllowAll());
    inst.cluster->RunFor(10'000);
    inst.archive = std::make_unique<support::SupportChain>(
        inst.cluster->node(0).dag().genesis_hash());
    inst.superpeer = std::make_unique<support::Superpeer>(
        &inst.cluster->node(0), inst.archive.get(), 16);
    inst.storage = std::make_unique<support::StorageManager>(
        &inst.cluster->node(1), c.budget);
    instances.push_back(std::move(inst));
  }

  for (int round = 0; round < kRounds; ++round) {
    std::printf("%-8d", round);
    for (auto& inst : instances) {
      // Three writers add data; gossip spreads it to the device.
      for (int w = 1; w < kNodes; ++w) {
        (void)inst.cluster->node(w).AppendOp(
            "data", "add",
            {crdt::Value::OfStr("r" + std::to_string(round) + "-w" +
                                std::to_string(w) + std::string(64, 'x'))});
      }
      inst.cluster->RunFor(8'000);
      if (inst.config.offload) {
        inst.superpeer->SyncToSupport(inst.cluster->simulator().now());
        inst.storage->Enforce(inst.archive.get());
      }
      std::printf(" | %10zu B    ",
                  inst.cluster->node(1).dag().StoredBytes());
    }
    std::printf("\n");
  }

  std::printf("\nfinal state:\n");
  for (auto& inst : instances) {
    const auto& dag = inst.cluster->node(1).dag();
    std::printf("  %-14s: stored %6zu B in %3zu bodies, knows %3zu blocks, "
                "evictions %llu\n",
                inst.config.label, dag.StoredBytes(), dag.StoredCount(),
                dag.Size(),
                static_cast<unsigned long long>(
                    inst.cluster->telemetry(1).metrics.CounterValue(
                        "support.evictions")));
  }
  for (auto& inst : instances) {
    benchio::Collector().Merge(inst.cluster->AggregateSnapshot());
  }
  std::printf(
      "\nExpected shape: without offload storage grows linearly with the\n"
      "load; with offload it plateaus at the budget while the block count\n"
      "('knows') keeps growing — history is preserved on the support chain.\n");
  benchio::WriteBench("support_offload");
  return 0;
}

// E12 — delivery under adversarial peers (paper §IV-B), plus a
// fault-plan sweep (E12b).
//
// Adversaries drop foreign blocks and never initiate gossip. The
// paper's assumption is that among each user's k closest neighbours
// at least one is honest; as long as the honest subgraph stays
// connected, every block still reaches every honest node. We sweep
// the adversary fraction on a clique (honest subgraph always
// connected → delivery stays 100%) and then on a ring (adversaries
// can cut the honest path → delivery collapses), measuring delivery
// rate and time.
//
// The fault sweep then replaces malicious peers with a malicious
// environment: seeded FaultPlans (sim/faults.h) — corruption, link
// flap, loss, crash/restart, and all of them at once — run against a
// clique for a 120 s storm window, measuring time to reconvergence
// after a mid-storm write. Plans that crash nodes run them on a
// durable data dir, so a restarted node keeps what its log fsync'd.
// Results land in BENCH_faults.json.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "node/cluster.h"
#include "sim/faults.h"
#include "sim/topology.h"

using namespace vegvisir;

namespace {

struct Result {
  double delivery = 0;  // fraction of honest nodes reached
  double seconds = -1;  // time to full honest delivery (-1: never)
};

Result Run(bool clique, int n, const std::vector<int>& adversaries) {
  sim::ExplicitTopology topo(n);
  if (clique) {
    topo.MakeClique();
  } else {
    topo.MakeRing();
  }
  node::ClusterConfig cfg;
  cfg.node_count = n;
  cfg.seed = 8;
  cfg.adversaries = adversaries;
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(40'000);

  const auto h = cluster.node(0).AddWitnessBlock();
  if (!h.ok()) {
    benchio::Collector().Merge(cluster.AggregateSnapshot());
    return {};
  }
  const sim::TimeMs start = cluster.simulator().now();
  const sim::TimeMs deadline = start + 300'000;

  const auto honest_reached = [&] {
    int reached = 0;
    for (int i : cluster.honest()) {
      if (cluster.node(i).dag().Contains(*h)) ++reached;
    }
    return reached;
  };

  Result result;
  const int honest_total = static_cast<int>(cluster.honest().size());
  while (cluster.simulator().now() < deadline) {
    if (honest_reached() == honest_total) {
      result.seconds = (cluster.simulator().now() - start) / 1000.0;
      break;
    }
    cluster.RunFor(1'000);
  }
  result.delivery =
      static_cast<double>(honest_reached()) / honest_total;
  benchio::Collector().Merge(cluster.AggregateSnapshot());
  return result;
}

std::vector<int> EverykTh(int n, int stride) {
  std::vector<int> out;
  for (int i = 1; i < n; i += stride) out.push_back(i);
  return out;
}

// One fault-plan storm: 9-node clique, faults active for the first
// 120 s, a write from node 0 at t=30 s. Returns seconds from the
// write until every node's fingerprint matches (-1: not within the
// 600 s budget) and merges the run's counters into `out`. A non-empty
// `data_dir` gives every node a durable store under it.
double RunFaultPlan(sim::FaultPlan plan, int nodes,
                    const std::string& data_dir, telemetry::Snapshot* out) {
  sim::ExplicitTopology topo(nodes);
  topo.MakeClique();
  node::ClusterConfig cfg;
  cfg.node_count = nodes;
  cfg.seed = 1'812;
  cfg.data_dir = data_dir;
  plan.active_until_ms = 120'000;
  cfg.faults = std::move(plan);
  node::Cluster cluster(cfg, &topo);

  cluster.RunFor(30'000);
  (void)cluster.node(0).AddWitnessBlock();
  const sim::TimeMs start = cluster.simulator().now();

  double seconds = -1;
  while (cluster.simulator().now() < 600'000) {
    if (cluster.Converged()) {
      seconds = static_cast<double>(cluster.simulator().now() - start) / 1000.0;
      break;
    }
    cluster.RunFor(1'000);
  }
  out->Merge(cluster.AggregateSnapshot());
  return seconds;
}

}  // namespace

int main() {
  constexpr int kNodes = 9;
  std::printf("E12: delivery under block-dropping adversaries (9 nodes)\n");
  std::printf("%-8s %-12s | %10s | %14s\n", "topo", "adversaries",
              "delivery", "time-to-all (s)");

  struct Case {
    const char* label;
    std::vector<int> adversaries;
  };
  const std::vector<Case> cases = {
      {"0", {}},
      {"2 (22%)", {3, 6}},
      {"4 (44%)", EverykTh(kNodes, 2)},
  };

  for (const bool clique : {true, false}) {
    for (const Case& c : cases) {
      const Result r = Run(clique, kNodes, c.adversaries);
      std::printf("%-8s %-12s | %9.0f%% | %14.1f\n",
                  clique ? "clique" : "ring", c.label, r.delivery * 100,
                  r.seconds);
    }
  }
  std::printf(
      "\nExpected shape: on the clique delivery stays 100%% at any\n"
      "adversary fraction (every honest pair is directly connected — the\n"
      "k-honest-neighbour assumption holds). On the ring, adversaries\n"
      "sever the honest path and delivery collapses — exactly the failure\n"
      "mode the paper's adversary model excludes.\n");
  benchio::WriteBench("adversary");

  std::printf("\nE12b: reconvergence under injected faults "
              "(9-node clique, 120 s storm)\n");
  std::printf("%-16s | %16s\n", "fault plan", "converge (s)");

  struct FaultCase {
    const char* label;
    sim::FaultPlan plan;
  };
  std::vector<FaultCase> fault_cases;
  fault_cases.push_back({"none", {}});
  fault_cases.push_back({"corrupt-5%", sim::FaultPlan::Corruption(0.05)});
  fault_cases.push_back({"flap-20%", sim::FaultPlan::LinkFlap(5'000, 0.2)});
  fault_cases.push_back({"loss-20%", sim::FaultPlan::Loss(0.2)});
  // Crashes land just after the t=30 s write, so reconvergence has to
  // ride through log recovery and the catch-up on what was missed.
  sim::FaultPlan crashes = sim::FaultPlan::CrashRestart(3, 32'000, 60'000);
  crashes.Merge(sim::FaultPlan::CrashRestart(6, 45'000, 75'000));
  fault_cases.push_back({"crash-x2", crashes});
  sim::FaultPlan combined = sim::FaultPlan::Corruption(0.05);
  combined.Merge(sim::FaultPlan::LinkFlap(5'000, 0.2));
  combined.Merge(sim::FaultPlan::Loss(0.2));
  combined.Merge(crashes);
  fault_cases.push_back({"combined", combined});

  telemetry::Snapshot fault_totals;
  std::vector<telemetry::BenchValue> fault_extras;
  for (const FaultCase& c : fault_cases) {
    std::string data_dir;
    if (!c.plan.crashes.empty()) {
      data_dir = (std::filesystem::temp_directory_path() /
                  ("vgv_bench_adversary_" + std::string(c.label)))
                     .string();
      std::filesystem::remove_all(data_dir);
      std::filesystem::create_directories(data_dir);
    }
    const double s = RunFaultPlan(c.plan, kNodes, data_dir, &fault_totals);
    if (!data_dir.empty()) std::filesystem::remove_all(data_dir);
    std::printf("%-16s | %16.1f\n", c.label, s);
    fault_extras.push_back(
        {std::string(c.label) + ".converge_seconds", s});
  }
  std::printf(
      "\nExpected shape: every plan reconverges (no -1). Corruption and\n"
      "loss cost retries, flapping costs waiting out down-windows, and\n"
      "crash-restarts add log recovery and catch-up — but the storm\n"
      "never costs correctness. The fault.*/gossip.* counters land in\n"
      "BENCH_faults.json.\n");
  std::printf("acked blocks lost across crash-restarts: %llu (must be 0)\n",
              static_cast<unsigned long long>(
                  fault_totals.counters["fault.acked_blocks_lost"]));
  (void)telemetry::WriteBenchJson("faults", fault_totals, fault_extras);
  return 0;
}

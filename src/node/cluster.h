// A ready-made simulated Vegvisir deployment.
//
// Wires N nodes (node 0 is the chain owner/CA, the rest are enrolled
// members), their gossip engines, energy meters and a shared
// simulated radio network over a caller-supplied topology. Tests,
// benchmarks and the examples all build scenarios on this.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/pool.h"
#include "node/gossip.h"
#include "node/node.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "storage/engine.h"
#include "telemetry/telemetry.h"

namespace vegvisir::node {

struct ClusterConfig {
  int node_count = 8;
  std::string chain_name = "cluster-chain";
  std::uint64_t seed = 42;
  std::string member_role = "member";
  NodeConfig node_template;       // recon mode, validation params, ...
  // Per-node reconciliation overrides (node index -> ReconConfig),
  // replacing the template's recon config wholesale for those nodes.
  // This is how fleets that mix modes are built: e.g. nodes 0-3 on
  // setdiff, node 4 on hash-first and node 5 on block-push.
  // Overrides survive crash/restart (ConfigFor applies them on every
  // incarnation).
  std::map<int, recon::ReconConfig> recon_overrides;
  GossipConfig gossip;
  sim::LinkParams link;
  sim::EnergyParams energy;
  // Indexes of adversarial nodes: they drop foreign blocks and do not
  // initiate gossip (paper §IV-B's malicious peers).
  std::vector<int> adversaries;
  // Fault-injection plan (sim/faults.h). Non-empty plans interpose a
  // FaultInjector on the network, skew node clocks, and schedule any
  // crash/restart events at construction time. Its fault.* counters
  // land in the network's telemetry bundle.
  sim::FaultPlan faults;
  // Execution width for the shared signature-verification pool
  // (DESIGN.md §12). Defaults to VEGVISIR_THREADS (serial when
  // unset); every observable result is identical for any setting.
  exec::ExecConfig exec = exec::ExecConfig::FromEnv();
  // Root of the durable storage tree (DESIGN.md §13). Non-empty gives
  // node i a TieredStore at `<data_dir>/node<i>`: blocks are
  // write-ahead logged before the DAG acks them, a crash keeps exactly
  // what the log fsync'd and a restart recovers it by log replay, and
  // the fault plan's io faults are injected into the log's writes.
  // Empty (the default) runs every node RAM-only: a crash then loses
  // the node's whole state and it rejoins from genesis. The directory
  // must exist.
  std::string data_dir;
};

class Cluster {
 public:
  // `topology` must outlive the cluster.
  Cluster(ClusterConfig config, const sim::Topology* topology);

  sim::Simulator& simulator() { return simulator_; }
  sim::Network& network() { return *network_; }
  // Undefined behaviour if node i is currently crashed (check alive()).
  Node& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }
  GossipEngine& gossip(int i) {
    return *gossips_[static_cast<std::size_t>(i)];
  }
  sim::EnergyMeter& meter(int i) {
    return *meters_[static_cast<std::size_t>(i)];
  }
  int size() const { return static_cast<int>(nodes_.size()); }
  const std::string& user_of(int i) const {
    return nodes_[static_cast<std::size_t>(i)]->user_id();
  }

  // Advances simulated time by `duration` (processing all events).
  void RunFor(sim::TimeMs duration);

  // ---- crash / restart ---------------------------------------------
  // Powers node i off mid-protocol: tears down its gossip engine
  // (in-flight sessions are aborted, responder state orphaned),
  // deregisters it from the network (in-flight messages toward it
  // become dead letters), destroys the Node and drops its store
  // without a farewell write. No-op if already crashed.
  void CrashNode(int i);
  // Brings node i back up the same way the constructor did (see
  // BringUp) and rejoins it to the network with a fresh gossip engine
  // (same telemetry bundle, so its counters continue across the
  // incarnation). Every block node i had acked at the crash but did
  // not recover counts in fault.acked_blocks_lost. No-op if the node
  // is up.
  void RestartNode(int i);
  bool alive(int i) const {
    return nodes_[static_cast<std::size_t>(i)] != nullptr;
  }

  // The fault injector wired into the network (null when
  // config.faults is empty). Deactivating it ends message mangling
  // and clock skew; scheduled crash events still fire.
  sim::FaultInjector* fault_injector() { return injector_.get(); }

  // Node i's durable store (null when data_dir is empty or node i is
  // currently crashed — a crash closes the store crash-equivalently).
  storage::TieredStore* store(int i) {
    return stores_[static_cast<std::size_t>(i)].get();
  }

  // How many nodes hold the given block (crashed nodes count as not
  // holding it).
  int CountHaving(const chain::BlockHash& h) const;

  // True iff every non-adversarial node is up and all of them hold the
  // same DAG (equal frontier digests) and the same CSM state: the
  // same answer as comparing their Fingerprint()s.
  bool Converged() const;

  // The honest nodes' indexes.
  const std::vector<int>& honest() const { return honest_; }

  // ---- telemetry ----------------------------------------------------
  // Per-node bundle (node i's node.*, csm.*, recon.*, gossip.* series
  // and its trace ring).
  telemetry::Telemetry& telemetry(int i) {
    return *telemetry_[static_cast<std::size_t>(i)];
  }
  // The shared network's bundle (net.* series).
  telemetry::Telemetry& network_telemetry() { return *net_telem_; }
  // The shared execution pool every node batches Ed25519 checks on
  // (its exec.tasks_executed/threads land in the network bundle).
  exec::ThreadPool& exec_pool() { return *exec_pool_; }
  // One snapshot summing every node's registry plus the network's —
  // the cluster-wide totals a bench dumps to BENCH_<name>.json.
  telemetry::Snapshot AggregateSnapshot() const;

 private:
  bool IsAdversary(int i) const;
  NodeConfig ConfigFor(int i) const;
  crypto::KeyPair NodeKeys(int i) const;
  // (Re)opens node i's TieredStore; recovery runs inside Open.
  StatusOr<std::unique_ptr<storage::TieredStore>> OpenStore(int i) const;
  // Builds node i (the constructor and RestartNode both come here):
  // with a data_dir, opens its store and rebuilds the node from the
  // log, or starts from genesis with the store attached when the log
  // holds no chain; RAM-only, starts from genesis.
  void BringUp(int i);
  void WireNode(Node* node, int i);  // clock (with fault skew) + meter
  std::unique_ptr<GossipEngine> BuildEngine(int i);

  ClusterConfig config_;
  sim::Simulator simulator_;
  // Bundles are created before the components that write into them.
  std::vector<std::unique_ptr<telemetry::Telemetry>> telemetry_;
  std::unique_ptr<telemetry::Telemetry> net_telem_;
  // Declared before nodes_: node destructors wait out their in-flight
  // verification jobs, so the pool must outlive every node.
  std::unique_ptr<exec::ThreadPool> exec_pool_;
  std::unique_ptr<sim::FaultInjector> injector_;
  std::unique_ptr<sim::Network> network_;
  crypto::KeyPair owner_keys_;
  chain::Block genesis_;  // every node that has no log starts here
  // Declared before nodes_: nodes hold raw pointers into their
  // stores, so the stores must be destroyed after them.
  std::vector<std::unique_ptr<storage::TieredStore>> stores_;
  std::vector<std::unique_ptr<Node>> nodes_;  // null while crashed
  std::vector<std::unique_ptr<GossipEngine>> gossips_;
  // Shut-down engines from crashed incarnations. Pending simulator
  // events still hold pointers into them, so they are retired here
  // instead of destroyed.
  std::vector<std::unique_ptr<GossipEngine>> retired_gossips_;
  std::vector<std::unique_ptr<sim::EnergyMeter>> meters_;
  // Per node: the DAG hashes a durable node had acked when it
  // crashed, checked against the recovered DAG at restart.
  std::vector<std::vector<chain::BlockHash>> acked_at_crash_;
  std::vector<std::uint32_t> generation_;      // restarts per node
  std::vector<int> honest_;
  telemetry::Counter c_crashes_;
  telemetry::Counter c_restarts_;
  telemetry::Counter c_acked_blocks_lost_;
};

}  // namespace vegvisir::node

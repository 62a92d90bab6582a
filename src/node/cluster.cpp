#include "node/cluster.h"

#include <algorithm>
#include <cstdint>

#include "crypto/drbg.h"
#include "node/checkpoint.h"

namespace vegvisir::node {
namespace {

crypto::KeyPair KeysFor(std::uint64_t cluster_seed, int index) {
  crypto::Drbg drbg(cluster_seed * 1'000'003ULL +
                    static_cast<std::uint64_t>(index));
  return crypto::KeyPair::Generate(drbg);
}

}  // namespace

bool Cluster::IsAdversary(int i) const {
  return std::find(config_.adversaries.begin(), config_.adversaries.end(),
                   i) != config_.adversaries.end();
}

NodeConfig Cluster::ConfigFor(int i) const {
  NodeConfig cfg = config_.node_template;
  if (const auto it = config_.recon_overrides.find(i);
      it != config_.recon_overrides.end()) {
    cfg.recon = it->second;
  }
  cfg.user_id = (i == 0) ? "owner" : "user-" + std::to_string(i);
  cfg.drop_foreign_blocks = IsAdversary(i);
  cfg.telemetry = telemetry_[static_cast<std::size_t>(i)].get();
  cfg.exec_pool = exec_pool_.get();
  return cfg;
}

crypto::KeyPair Cluster::NodeKeys(int i) const {
  return (i == 0) ? owner_keys_ : KeysFor(config_.seed, i);
}

StatusOr<std::unique_ptr<storage::TieredStore>> Cluster::OpenStore(
    int i) const {
  storage::TieredStoreOptions opts;
  opts.dir = config_.data_dir + "/node" + std::to_string(i);
  opts.io_faults = config_.faults.io;
  opts.io_seed = config_.seed * 31'337ULL + static_cast<std::uint64_t>(i);
  opts.telemetry = telemetry_[static_cast<std::size_t>(i)].get();
  return storage::TieredStore::Open(std::move(opts));
}

void Cluster::WireNode(Node* node, int i) {
  // All clocks follow simulated time, offset past the genesis
  // timestamp so submissions are always valid — plus whatever skew
  // the fault plan assigns this node (zero once faults deactivate).
  node->SetClock([this, i] {
    std::int64_t t = static_cast<std::int64_t>(simulator_.now()) + 1'000;
    if (injector_ != nullptr) {
      t += injector_->ClockSkewFor(i, simulator_.now());
    }
    return static_cast<std::uint64_t>(std::max<std::int64_t>(t, 0));
  });
  node->AttachEnergyMeter(meters_[static_cast<std::size_t>(i)].get());
}

std::unique_ptr<GossipEngine> Cluster::BuildEngine(int i) {
  GossipConfig gcfg = config_.gossip;
  if (IsAdversary(i)) gcfg.enabled = false;  // refuses to propagate
  // The engine seed mixes in the restart generation: a node's second
  // incarnation must not replay its first one's random choices (and
  // session ids must not collide with pre-crash traffic).
  const std::uint64_t gen =
      generation_[static_cast<std::size_t>(i)] * 104'729ULL;
  return std::make_unique<GossipEngine>(
      nodes_[static_cast<std::size_t>(i)].get(), &simulator_, network_.get(),
      i, gcfg, config_.seed * 7'919ULL + static_cast<std::uint64_t>(i) + gen);
}

Cluster::Cluster(ClusterConfig config, const sim::Topology* topology)
    : config_(std::move(config)), owner_keys_(KeysFor(config_.seed, 0)) {
  net_telem_ = std::make_unique<telemetry::Telemetry>();
  c_crashes_ = net_telem_->metrics.GetCounter("fault.crashes");
  c_restarts_ = net_telem_->metrics.GetCounter("fault.restarts");
  c_acked_blocks_lost_ =
      net_telem_->metrics.GetCounter("fault.acked_blocks_lost");
  // One pool for the whole cluster: signature batches from every node
  // share the workers, and its exec.* series lands in the network
  // bundle (the cluster-wide sink).
  exec_pool_ = std::make_unique<exec::ThreadPool>(config_.exec,
                                                  net_telem_.get());
  if (!config_.faults.Empty()) {
    injector_ = std::make_unique<sim::FaultInjector>(
        config_.faults, config_.seed ^ 0xFA171ULL, net_telem_.get());
  }
  network_ = std::make_unique<sim::Network>(&simulator_, topology,
                                            config_.link, config_.seed ^ 1,
                                            net_telem_.get());
  if (injector_ != nullptr) network_->SetFaultInjector(injector_.get());

  genesis_ = chain::GenesisBuilder(config_.chain_name)
                 .WithTimestamp(1)
                 .Build("owner", owner_keys_);

  generation_.resize(static_cast<std::size_t>(config_.node_count), 0);
  stores_.resize(static_cast<std::size_t>(config_.node_count));
  nodes_.resize(static_cast<std::size_t>(config_.node_count));
  acked_at_crash_.resize(static_cast<std::size_t>(config_.node_count));

  for (int i = 0; i < config_.node_count; ++i) {
    telemetry_.push_back(std::make_unique<telemetry::Telemetry>());
    meters_.push_back(std::make_unique<sim::EnergyMeter>(config_.energy));
    BringUp(i);
    if (!IsAdversary(i)) honest_.push_back(i);
  }

  // The owner enrols every member up front; the enrolment *blocks*
  // still have to reach the others through gossip.
  for (int i = 1; i < config_.node_count; ++i) {
    const chain::Certificate cert = chain::IssueCertificate(
        nodes_[static_cast<std::size_t>(i)]->user_id(),
        KeysFor(config_.seed, i).public_key(), config_.member_role,
        owner_keys_);
    nodes_[0]->EnrollUser(cert);
  }

  for (int i = 0; i < config_.node_count; ++i) {
    auto engine = BuildEngine(i);
    engine->Start(meters_[static_cast<std::size_t>(i)].get());
    gossips_.push_back(std::move(engine));
  }

  // Crash/restart events from the fault plan become simulator events.
  for (const sim::FaultPlan::CrashEvent& ev : config_.faults.crashes) {
    const int target = static_cast<int>(ev.node);
    if (target < 0 || target >= config_.node_count) continue;
    simulator_.ScheduleAt(ev.crash_at_ms, [this, target] {
      CrashNode(target);
    });
    if (ev.restart_at_ms > ev.crash_at_ms) {
      simulator_.ScheduleAt(ev.restart_at_ms, [this, target] {
        RestartNode(target);
      });
    }
  }
}

void Cluster::BringUp(int i) {
  const auto idx = static_cast<std::size_t>(i);
  std::unique_ptr<Node> node;
  if (!config_.data_dir.empty()) {
    // Reopening the store runs log recovery (a torn tail is
    // truncated); a log that holds a chain rebuilds the node by
    // replay, so it comes back with exactly what was fsync'd.
    if (auto store = OpenStore(i); store.ok()) {
      if (auto recovered =
              RecoverFromStorage(ConfigFor(i), NodeKeys(i), store->get());
          recovered.ok()) {
        node = std::move(*recovered);
        stores_[idx] = std::move(*store);
      } else {
        // Empty (first boot) or unusable log: start from genesis and
        // log the history from here on. A store that fails to attach
        // leaves the node RAM-only rather than aborting the cluster.
        node = std::make_unique<Node>(ConfigFor(i), genesis_, NodeKeys(i));
        if (node->AttachStorage(store->get()).ok()) {
          stores_[idx] = std::move(*store);
        }
      }
    }
  }
  // RAM-only (or a store that would not open): genesis, and gossip
  // re-fetches the history — the cold-start path.
  if (node == nullptr) {
    node = std::make_unique<Node>(ConfigFor(i), genesis_, NodeKeys(i));
  }
  WireNode(node.get(), i);
  nodes_[idx] = std::move(node);
}

void Cluster::CrashNode(int i) {
  const auto idx = static_cast<std::size_t>(i);
  if (nodes_[idx] == nullptr) return;  // already down
  // A power cut gets no farewell write: what survives is what the
  // store fsync'd. Under the write-ahead rule that is exactly the
  // DAG, so its hashes are the acked set the restart must recover.
  if (stores_[idx] != nullptr) {
    acked_at_crash_[idx] = nodes_[idx]->dag().Hashes();
  }
  gossips_[idx]->Shutdown();
  retired_gossips_.push_back(std::move(gossips_[idx]));
  network_->Deregister(i);
  nodes_[idx].reset();
  stores_[idx].reset();
  c_crashes_.Inc();
}

void Cluster::RestartNode(int i) {
  const auto idx = static_cast<std::size_t>(i);
  if (nodes_[idx] != nullptr) return;
  BringUp(i);
  std::uint64_t lost = 0;
  for (const chain::BlockHash& h : acked_at_crash_[idx]) {
    if (!nodes_[idx]->dag().Contains(h)) ++lost;
  }
  c_acked_blocks_lost_.Inc(lost);
  acked_at_crash_[idx].clear();
  generation_[idx] += 1;
  gossips_[idx] = BuildEngine(i);
  gossips_[idx]->Start(meters_[idx].get());
  c_restarts_.Inc();
}

telemetry::Snapshot Cluster::AggregateSnapshot() const {
  // Quiesce the pool first: a pre-verification job that nothing ever
  // Lookup()ed may still be in flight, and snapshotting past it would
  // make exec.tasks_executed depend on the schedule.
  exec_pool_->Wait();
  telemetry::Snapshot total = net_telem_->metrics.TakeSnapshot();
  for (const auto& t : telemetry_) {
    total.Merge(t->metrics.TakeSnapshot());
  }
  return total;
}

void Cluster::RunFor(sim::TimeMs duration) {
  simulator_.RunUntil(simulator_.now() + duration);
}

int Cluster::CountHaving(const chain::BlockHash& h) const {
  int count = 0;
  for (const auto& node : nodes_) {
    if (node != nullptr && node->dag().Contains(h)) ++count;
  }
  return count;
}

bool Cluster::Converged() const {
  if (honest_.empty()) return true;
  const Node* reference_node = nodes_[static_cast<std::size_t>(honest_[0])].get();
  if (reference_node == nullptr) return false;
  // Equal frontiers mean equal DAGs (paper §IV-G), so this is
  // Fingerprint() equality without sorting every node's DAG.
  const chain::BlockHash frontier = reference_node->dag().FrontierDigest();
  const Bytes state = reference_node->state().StateFingerprint();
  for (int i : honest_) {
    const Node* n = nodes_[static_cast<std::size_t>(i)].get();
    if (n == nullptr || n->dag().FrontierDigest() != frontier ||
        n->state().StateFingerprint() != state) {
      return false;
    }
  }
  return true;
}

}  // namespace vegvisir::node

// End-to-end integration and chaos tests: whole-system behaviour
// under randomized workloads, partitions, message loss and restarts.
#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>
#include <string>

#include "chain/audit.h"
#include "chain/store.h"
#include "crdt/counters.h"
#include "crdt/sets.h"
#include "node/checkpoint.h"
#include "node/cluster.h"
#include "sim/topology.h"
#include "support/superpeer.h"
#include "util/rng.h"

namespace vegvisir {
namespace recon {

// Names each ReconModeClusterTest case (gtest would otherwise print
// the enum as its raw bytes into the CTest name).
void PrintTo(ReconConfig::Mode mode, std::ostream* os) {
  switch (mode) {
    case ReconConfig::Mode::kBlockPush: *os << "BlockPush"; return;
    case ReconConfig::Mode::kHashFirst: *os << "HashFirst"; return;
    case ReconConfig::Mode::kSetDiff: *os << "SetDiff"; return;
  }
}

}  // namespace recon

namespace {

// Chaos soak: random writes from random nodes onto several CRDT
// types, under a partition schedule and 10% message loss. After
// settling, every honest replica must converge, audits must be clean,
// and no write may be lost.
struct ChaosCase {
  std::uint64_t seed;
  int groups;           // partition groups mid-run
  double loss;
};

// Names each case by its parameters (gtest would otherwise print the
// struct, padding included, as raw bytes into the CTest name).
void PrintTo(const ChaosCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_groups" << c.groups << "_loss"
      << static_cast<int>(c.loss * 100);
}

class ChaosTest : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosTest, RandomWorkloadConvergesCleanly) {
  const ChaosCase& param = GetParam();
  constexpr int kNodes = 6;

  sim::ExplicitTopology base(kNodes);
  base.MakeClique();
  sim::PartitionedTopology topo(&base);
  if (param.groups > 1) {
    topo.SplitEvenly(60'000, 140'000, param.groups);
  }

  node::ClusterConfig cfg;
  cfg.node_count = kNodes;
  cfg.seed = param.seed;
  cfg.link.drop_probability = param.loss;
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(30'000);

  // Three CRDTs of different types.
  ASSERT_TRUE(cluster.node(0).CreateCrdt("set", crdt::CrdtType::kGSet,
                                         crdt::ValueType::kStr,
                                         csm::AclPolicy::AllowAll()).ok());
  ASSERT_TRUE(cluster.node(0).CreateCrdt("count", crdt::CrdtType::kGCounter,
                                         crdt::ValueType::kInt,
                                         csm::AclPolicy::AllowAll()).ok());
  ASSERT_TRUE(cluster.node(0).CreateCrdt("kv", crdt::CrdtType::kLwwMap,
                                         crdt::ValueType::kStr,
                                         csm::AclPolicy::AllowAll()).ok());
  cluster.RunFor(20'000);

  Rng rng(param.seed * 31 + 7);
  int set_adds = 0;
  std::int64_t count_total = 0;
  for (int round = 0; round < 30; ++round) {
    const int writer = static_cast<int>(rng.NextBelow(kNodes));
    node::Node& node = cluster.node(writer);
    switch (rng.NextBelow(3)) {
      case 0: {
        const std::string v = "v" + std::to_string(round);
        if (node.AppendOp("set", "add", {crdt::Value::OfStr(v)}).ok()) {
          ++set_adds;
        }
        break;
      }
      case 1: {
        const std::int64_t amount =
            static_cast<std::int64_t>(rng.NextBelow(10));
        if (node.AppendOp("count", "inc",
                          {crdt::Value::OfInt(amount)}).ok()) {
          count_total += amount;
        }
        break;
      }
      case 2: {
        const std::string k = "k" + std::to_string(rng.NextBelow(5));
        if (!node.AppendOp("kv", "put",
                           {crdt::Value::OfStr(k),
                            crdt::Value::OfStr(std::to_string(round))})
                 .ok()) {
          // Writer may be partitioned away from the create: fine.
        }
        break;
      }
    }
    cluster.RunFor(5'000);
  }

  // Heal and settle generously (loss requires retries).
  cluster.RunFor(400'000);

  ASSERT_TRUE(cluster.Converged())
      << "replicas diverged (seed " << param.seed << ")";
  for (int i = 0; i < kNodes; ++i) {
    const node::Node& node = cluster.node(i);
    // Every accepted write is visible everywhere: nothing lost.
    const auto* set = node.state().FindCrdtAs<crdt::GSet>("set");
    ASSERT_NE(set, nullptr);
    EXPECT_EQ(set->Size(), static_cast<std::size_t>(set_adds)) << i;
    const auto* count = node.state().FindCrdtAs<crdt::GCounter>("count");
    EXPECT_EQ(count->Value(), count_total) << i;
    // Full first-principles audit passes on every replica.
    const chain::AuditReport report =
        chain::AuditDag(node.dag(), node.state().membership());
    EXPECT_TRUE(report.clean()) << "node " << i << ": "
                                << (report.issues.empty()
                                        ? ""
                                        : report.issues[0].what);
    // And no honest transaction was rejected by the CSM.
    EXPECT_EQ(node.telemetry()->metrics.CounterValue("csm.rejected_txns"), 0u)
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosTest,
    ::testing::Values(ChaosCase{1, 1, 0.0}, ChaosCase{2, 2, 0.0},
                      ChaosCase{3, 2, 0.1}, ChaosCase{4, 3, 0.1},
                      ChaosCase{5, 1, 0.2}),
    ::testing::PrintToStringParamName());

// Delivery-order independence at the node level: the same block set
// offered to fresh replicas in different orders (with a retry loop
// standing in for reconciliation) yields identical fingerprints.
TEST(IntegrationTest, NodeStateIndependentOfDeliveryOrder) {
  sim::ExplicitTopology topo(4);
  topo.MakeClique();
  node::ClusterConfig cfg;
  cfg.node_count = 4;
  cfg.seed = 99;
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);
  ASSERT_TRUE(cluster.node(0).CreateCrdt("s", crdt::CrdtType::kOrSet,
                                         crdt::ValueType::kStr,
                                         csm::AclPolicy::AllowAll()).ok());
  cluster.RunFor(10'000);
  for (int i = 0; i < 4; ++i) {
    (void)cluster.node(i).AppendOp("s", "add",
                                   {crdt::Value::OfStr(std::to_string(i))});
    cluster.RunFor(3'000);
  }
  cluster.RunFor(60'000);
  ASSERT_TRUE(cluster.Converged());

  // Collect all non-genesis blocks from node 0.
  const chain::Dag& source = cluster.node(0).dag();
  std::vector<chain::Block> blocks;
  for (const auto& h : source.TopologicalOrder()) {
    if (h == source.genesis_hash()) continue;
    blocks.push_back(*source.Find(h));
  }

  const chain::Block genesis = *source.Find(source.genesis_hash());
  Rng rng(1234);
  Bytes reference;
  for (int trial = 0; trial < 6; ++trial) {
    node::NodeConfig ncfg;
    ncfg.user_id = "observer";
    crypto::Drbg drbg(std::uint64_t{77});
    node::Node replica(ncfg, genesis, crypto::KeyPair::Generate(drbg));
    replica.SetTime(10'000'000);

    auto order = rng.Permutation(blocks.size());
    // Keep offering in this order until everything lands (parents may
    // be missing on the first pass; quarantine + retry emulates what
    // reconciliation escalation achieves).
    for (int pass = 0; pass < 64; ++pass) {
      for (std::size_t idx : order) {
        (void)replica.OfferBlock(blocks[idx]);
      }
      if (replica.dag().Size() == source.Size()) break;
    }
    ASSERT_EQ(replica.dag().Size(), source.Size()) << "trial " << trial;
    const Bytes fp = replica.state().StateFingerprint();
    if (trial == 0) {
      reference = fp;
    } else {
      EXPECT_EQ(fp, reference) << "delivery order changed the state";
    }
  }
}

// Reboot survival: a node saves its replica, "restarts" from the
// file, and rejoins gossip seamlessly.
TEST(IntegrationTest, RebootFromDiskAndRejoin) {
  sim::ExplicitTopology topo(3);
  topo.MakeClique();
  node::ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.seed = 55;
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);
  ASSERT_TRUE(cluster.node(0).CreateCrdt("data", crdt::CrdtType::kGSet,
                                         crdt::ValueType::kStr,
                                         csm::AclPolicy::AllowAll()).ok());
  ASSERT_TRUE(cluster.node(0).AppendOp("data", "add",
                                       {crdt::Value::OfStr("pre-reboot")})
                  .ok());
  cluster.RunFor(20'000);

  // Persist node 1's replica and rebuild a fresh node from it.
  const Bytes snapshot = chain::SerializeDag(cluster.node(1).dag());
  auto loaded = chain::DeserializeDag(snapshot);
  ASSERT_TRUE(loaded.ok());

  node::NodeConfig ncfg;
  ncfg.user_id = "rebooted";
  crypto::Drbg drbg(std::uint64_t{88});
  node::Node rebooted(ncfg,
                      *loaded->Find(loaded->genesis_hash()),
                      crypto::KeyPair::Generate(drbg));
  rebooted.SetTime(10'000'000);
  for (const auto& h : loaded->TopologicalOrder()) {
    if (h == loaded->genesis_hash()) continue;
    ASSERT_EQ(rebooted.OfferBlock(*loaded->Find(h)),
              chain::BlockVerdict::kValid);
  }
  EXPECT_EQ(rebooted.dag().Size(), cluster.node(1).dag().Size());
  EXPECT_EQ(rebooted.state().StateFingerprint(),
            cluster.node(1).state().StateFingerprint());

  // The rebooted node can keep syncing from the cluster.
  ASSERT_TRUE(cluster.node(0).AppendOp("data", "add",
                                       {crdt::Value::OfStr("post-reboot")})
                  .ok());
  recon::SessionStats stats;
  ASSERT_EQ(recon::RunLocalSession(&rebooted, &cluster.node(0),
                                   recon::ReconConfig{}, &stats),
            recon::SessionState::kDone);
  const auto* data = rebooted.state().FindCrdtAs<crdt::GSet>("data");
  EXPECT_TRUE(data->Contains(crdt::Value::OfStr("post-reboot")));
}

// Whole-node checkpointing: SaveCheckpoint/LoadCheckpoint restore an
// identical node, preferring the CSM snapshot over full replay.
TEST(IntegrationTest, CheckpointRoundTripUsesSnapshot) {
  sim::ExplicitTopology topo(3);
  topo.MakeClique();
  node::ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.seed = 61;
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);
  ASSERT_TRUE(cluster.node(0).CreateCrdt("d", crdt::CrdtType::kGSet,
                                         crdt::ValueType::kStr,
                                         csm::AclPolicy::AllowAll()).ok());
  ASSERT_TRUE(cluster.node(0).AppendOp("d", "add",
                                       {crdt::Value::OfStr("x")}).ok());
  cluster.RunFor(20'000);

  const std::string prefix =
      (std::filesystem::temp_directory_path() / "vegvisir_ckpt").string();
  ASSERT_TRUE(node::SaveCheckpoint(cluster.node(1), prefix).ok());

  node::NodeConfig ncfg;
  ncfg.user_id = "restored";
  crypto::Drbg drbg(std::uint64_t{5});
  bool used_snapshot = false;
  auto restored = node::LoadCheckpoint(ncfg, crypto::KeyPair::Generate(drbg),
                                       prefix, &used_snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(used_snapshot);
  EXPECT_EQ((*restored)->dag().Size(), cluster.node(1).dag().Size());
  EXPECT_EQ((*restored)->state().StateFingerprint(),
            cluster.node(1).state().StateFingerprint());
  std::remove((prefix + ".dag").c_str());
  std::remove((prefix + ".csm").c_str());
}

TEST(IntegrationTest, RestoreFallsBackToReplayWithoutSnapshot) {
  sim::ExplicitTopology topo(2);
  topo.MakeClique();
  node::ClusterConfig cfg;
  cfg.node_count = 2;
  cfg.seed = 62;
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);
  ASSERT_TRUE(cluster.node(0).AddWitnessBlock().ok());
  cluster.RunFor(10'000);

  auto dag = chain::DeserializeDag(chain::SerializeDag(cluster.node(0).dag()));
  ASSERT_TRUE(dag.ok());
  node::NodeConfig ncfg;
  ncfg.user_id = "replayed";
  crypto::Drbg drbg(std::uint64_t{6});
  bool used_snapshot = true;
  auto restored =
      node::Node::Restore(ncfg, crypto::KeyPair::Generate(drbg),
                          *std::move(dag), {}, &used_snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE(used_snapshot);
  EXPECT_EQ((*restored)->state().StateFingerprint(),
            cluster.node(0).state().StateFingerprint());
}

TEST(IntegrationTest, RestoreWithEvictedBodiesNeedsSnapshot) {
  sim::ExplicitTopology topo(2);
  topo.MakeClique();
  node::ClusterConfig cfg;
  cfg.node_count = 2;
  cfg.seed = 63;
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster.node(0).AddWitnessBlock().ok());
  }

  // Archive + evict a body on node 0.
  node::Node& device = cluster.node(0);
  support::SupportChain archive(device.dag().genesis_hash());
  support::Superpeer peer(&device, &archive);
  peer.SyncToSupport(1);
  support::StorageManager mgr(&device, 0);
  ASSERT_GT(mgr.Enforce(&archive), 0u);

  const Bytes snapshot = device.state().SaveSnapshot();
  auto dag_copy = chain::DeserializeDag(chain::SerializeDag(device.dag()));
  ASSERT_TRUE(dag_copy.ok());
  auto dag_copy2 = chain::DeserializeDag(chain::SerializeDag(device.dag()));
  ASSERT_TRUE(dag_copy2.ok());

  node::NodeConfig ncfg;
  ncfg.user_id = "flashy";
  crypto::Drbg drbg(std::uint64_t{7});
  const crypto::KeyPair keys = crypto::KeyPair::Generate(drbg);

  // Without a snapshot: replay impossible (bodies gone).
  EXPECT_FALSE(node::Node::Restore(ncfg, keys, *std::move(dag_copy), {})
                   .ok());
  // With the snapshot: restores fine.
  bool used_snapshot = false;
  auto restored = node::Node::Restore(ncfg, keys, *std::move(dag_copy2),
                                      snapshot, &used_snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(used_snapshot);
  EXPECT_EQ((*restored)->state().StateFingerprint(),
            device.state().SaveSnapshot().empty()
                ? Bytes{}
                : device.state().StateFingerprint());
}

// A device that evicted a body re-fetches it over the wire from a
// superpeer using the ordinary BlockRequest message.
TEST(IntegrationTest, NetworkRefetchOfEvictedBody) {
  sim::ExplicitTopology topo(2);
  topo.MakeClique();
  node::ClusterConfig cfg;
  cfg.node_count = 2;
  cfg.seed = 64;
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);
  const auto h1 = cluster.node(0).AddWitnessBlock();
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(cluster.node(0).AddWitnessBlock().ok());
  cluster.RunFor(20'000);
  ASSERT_TRUE(cluster.node(1).dag().Contains(*h1));

  // Node 0 (device) evicts the body after archiving; node 1 is the
  // "superpeer" that still has everything.
  support::SupportChain archive(cluster.node(0).dag().genesis_hash());
  support::Superpeer peer(&cluster.node(0), &archive);
  peer.SyncToSupport(1);
  ASSERT_TRUE(cluster.node(0).mutable_dag()->Evict(*h1).ok());
  ASSERT_EQ(cluster.node(0).dag().Find(*h1), nullptr);

  // Wire-level fetch: BlockRequest -> BlockResponse -> Restore.
  recon::BlockRequest req;
  req.hashes = {*h1};
  recon::ResponderSession superpeer_session(&cluster.node(1),
                                            recon::ReconConfig{});
  std::vector<Bytes> replies;
  ASSERT_TRUE(superpeer_session.OnMessage(recon::EncodeMessage(req),
                                          &replies).ok());
  ASSERT_EQ(replies.size(), 1u);
  recon::BlockResponse resp;
  ASSERT_TRUE(recon::DecodeMessage(replies[0], &resp).ok());
  ASSERT_EQ(resp.blocks.size(), 1u);
  auto body = chain::Block::Deserialize(resp.blocks[0]);
  ASSERT_TRUE(body.ok());
  ASSERT_TRUE(cluster.node(0).mutable_dag()->Restore(*body).ok());
  EXPECT_NE(cluster.node(0).dag().Find(*h1), nullptr);
}

// Every reconciliation mode drives a gossiping cluster to convergence
// (the gossip engine is mode-agnostic).
class ReconModeClusterTest
    : public ::testing::TestWithParam<recon::ReconConfig::Mode> {};

TEST_P(ReconModeClusterTest, ClusterConvergesUnderMode) {
  sim::ExplicitTopology topo(5);
  topo.MakeClique();
  node::ClusterConfig cfg;
  cfg.node_count = 5;
  cfg.seed = 77;
  cfg.node_template.recon.mode = GetParam();
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(30'000);
  const auto h = cluster.node(2).AddWitnessBlock();
  ASSERT_TRUE(h.ok());
  cluster.RunFor(60'000);
  EXPECT_EQ(cluster.CountHaving(*h), 5);
  EXPECT_TRUE(cluster.Converged());
}

INSTANTIATE_TEST_SUITE_P(Modes, ReconModeClusterTest,
                         ::testing::Values(recon::ReconConfig::Mode::kBlockPush,
                                           recon::ReconConfig::Mode::kHashFirst,
                                           recon::ReconConfig::Mode::kSetDiff),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace vegvisir

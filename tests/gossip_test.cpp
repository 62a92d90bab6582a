// End-to-end gossip over the simulated radio network.
#include <gtest/gtest.h>

#include "crdt/counters.h"
#include "crdt/sets.h"
#include "node/cluster.h"
#include "recon/messages.h"
#include "serial/codec.h"
#include "sim/topology.h"

namespace vegvisir::node {
namespace {

TEST(GossipTest, CliqueConvergesQuickly) {
  sim::ExplicitTopology topo(6);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 6;
  Cluster cluster(cfg, &topo);

  cluster.RunFor(30'000);
  ASSERT_TRUE(cluster.Converged());
  // Everyone knows every member.
  for (int i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.node(i).state().membership().LiveCount(), 6u) << i;
  }
}

TEST(GossipTest, BlockSpreadsToAllNodes) {
  sim::ExplicitTopology topo(8);
  topo.MakeRing();  // multi-hop topology
  ClusterConfig cfg;
  cfg.node_count = 8;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);  // let enrolments settle

  const auto h = cluster.node(3).AddWitnessBlock();
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(cluster.CountHaving(*h), 1);
  cluster.RunFor(60'000);
  EXPECT_EQ(cluster.CountHaving(*h), 8);
}

TEST(GossipTest, CrdtStateConvergesAcrossNodes) {
  sim::ExplicitTopology topo(5);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 5;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);

  ASSERT_TRUE(cluster.node(0)
                  .CreateCrdt("tally", crdt::CrdtType::kGCounter,
                              crdt::ValueType::kInt,
                              csm::AclPolicy::AllowAll())
                  .ok());
  cluster.RunFor(20'000);
  // Three different nodes increment concurrently.
  ASSERT_TRUE(cluster.node(1).AppendOp("tally", "inc",
                                       {crdt::Value::OfInt(1)}).ok());
  ASSERT_TRUE(cluster.node(2).AppendOp("tally", "inc",
                                       {crdt::Value::OfInt(2)}).ok());
  ASSERT_TRUE(cluster.node(3).AppendOp("tally", "inc",
                                       {crdt::Value::OfInt(3)}).ok());
  cluster.RunFor(60'000);

  ASSERT_TRUE(cluster.Converged());
  for (int i = 0; i < cluster.size(); ++i) {
    const auto* tally =
        cluster.node(i).state().FindCrdtAs<crdt::GCounter>("tally");
    ASSERT_NE(tally, nullptr) << i;
    EXPECT_EQ(tally->Value(), 6) << i;
  }
}

TEST(GossipTest, PartitionThenHealLosesNothing) {
  sim::ExplicitTopology base(6);
  base.MakeClique();
  sim::PartitionedTopology topo(&base);
  // Partition into {0,1,2} and {3,4,5} during [30s, 90s).
  topo.SplitEvenly(30'000, 90'000, 2);

  ClusterConfig cfg;
  cfg.node_count = 6;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(25'000);  // everyone enrolled pre-partition

  ASSERT_TRUE(cluster.node(0)
                  .CreateCrdt("log", crdt::CrdtType::kGSet,
                              crdt::ValueType::kStr,
                              csm::AclPolicy::AllowAll())
                  .ok());
  cluster.RunFor(4'000);  // the create reaches everyone pre-partition
  cluster.RunFor(5'000);  // now inside the partition window (t=34s)

  // Both sides keep writing during the partition.
  ASSERT_TRUE(cluster.node(1).AppendOp("log", "add",
                                       {crdt::Value::OfStr("side-A")}).ok());
  ASSERT_TRUE(cluster.node(4).AppendOp("log", "add",
                                       {crdt::Value::OfStr("side-B")}).ok());
  cluster.RunFor(30'000);  // still partitioned (t=69s)

  // Within each side, the write is visible; across sides it is not.
  const auto* log1 = cluster.node(2).state().FindCrdtAs<crdt::GSet>("log");
  ASSERT_NE(log1, nullptr);
  EXPECT_TRUE(log1->Contains(crdt::Value::OfStr("side-A")));
  EXPECT_FALSE(log1->Contains(crdt::Value::OfStr("side-B")));

  // Heal and converge: both writes survive on every node — no blocks
  // discarded (the partition-tolerance headline).
  cluster.RunFor(120'000);
  ASSERT_TRUE(cluster.Converged());
  for (int i = 0; i < cluster.size(); ++i) {
    const auto* log = cluster.node(i).state().FindCrdtAs<crdt::GSet>("log");
    ASSERT_NE(log, nullptr);
    EXPECT_TRUE(log->Contains(crdt::Value::OfStr("side-A"))) << i;
    EXPECT_TRUE(log->Contains(crdt::Value::OfStr("side-B"))) << i;
  }
}

// Converged() compares frontier digests and CSM state, not whole
// Fingerprint()s. Equal frontiers mean equal DAGs, so at every poll of
// a partition-and-heal run the answer is the same as comparing the
// honest nodes' Fingerprint()s.
TEST(ClusterTest, ConvergedMatchesFingerprintEquality) {
  sim::ExplicitTopology base(6);
  base.MakeClique();
  sim::PartitionedTopology topo(&base);
  topo.SplitEvenly(30'000, 90'000, 2);
  ClusterConfig cfg;
  cfg.node_count = 6;
  cfg.seed = 5;
  Cluster cluster(cfg, &topo);
  const auto fingerprints_agree = [&] {
    const Bytes reference = cluster.node(cluster.honest()[0]).Fingerprint();
    for (int i : cluster.honest()) {
      if (cluster.node(i).Fingerprint() != reference) return false;
    }
    return true;
  };

  int agreed = 0;
  int disagreed = 0;
  for (int second = 0; second < 210; ++second) {
    // Writes on both sides of the partition and after the heal.
    if (second % 7 == 0) {
      ASSERT_TRUE(cluster.node(second % 6).AddWitnessBlock().ok());
    }
    cluster.RunFor(1'000);
    const bool converged = cluster.Converged();
    ASSERT_EQ(converged, fingerprints_agree()) << "t=" << second + 1 << "s";
    (converged ? agreed : disagreed) += 1;
  }
  EXPECT_GT(disagreed, 0);
  EXPECT_GT(agreed, 0);
  EXPECT_TRUE(cluster.Converged());
}

TEST(GossipTest, LossyLinksStillConverge) {
  sim::ExplicitTopology topo(5);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 5;
  cfg.link.drop_probability = 0.2;  // 20% loss
  Cluster cluster(cfg, &topo);
  cluster.RunFor(120'000);
  EXPECT_TRUE(cluster.Converged());
}

TEST(GossipTest, DeepCatchUpSurvivesHeavyLoss) {
  // The hard case: one node must bridge a deep gap (a long history it
  // entirely missed) across 30% message loss. Naive Algorithm 1 is
  // all-or-nothing per session here (every escalation round must
  // survive in ONE session); the engine's session-resume plus the
  // quarantine-backed merge make progress accumulate instead.
  sim::ExplicitTopology topo(3);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.seed = 13;
  cfg.link.drop_probability = 0.3;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(240'000);
  EXPECT_TRUE(cluster.Converged());
  // All enrolments (deep chain written by node 0 at t=0) arrived.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.node(i).state().membership().LiveCount(), 3u) << i;
  }
}

TEST(GossipTest, AdversaryCannotStopDelivery) {
  // Line topology 0-1-2 with node 1 adversarial: it drops foreign
  // blocks and never initiates gossip. With k=1 honest... the paper's
  // model needs at least one honest path; give the line a bypass link
  // 0-2 so an honest neighbour exists.
  sim::ExplicitTopology topo(3);
  topo.MakeLine();
  topo.AddLink(0, 2);
  ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.adversaries = {1};
  Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);

  const auto h = cluster.node(0).AddWitnessBlock();
  ASSERT_TRUE(h.ok());
  cluster.RunFor(60'000);
  EXPECT_TRUE(cluster.node(2).dag().Contains(*h));
  // The adversary never stored it (it refuses foreign blocks and
  // never pulls, so it simply stays ignorant).
  EXPECT_FALSE(cluster.node(1).dag().Contains(*h));
}

TEST(GossipTest, AdversaryCutsDeliveryWithoutHonestPath) {
  // Same line, but no bypass: the adversary in the middle starves
  // node 2 (the paper's k-honest-neighbour assumption is violated).
  sim::ExplicitTopology topo(3);
  topo.MakeLine();
  ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.adversaries = {1};
  Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);

  const auto h = cluster.node(0).AddWitnessBlock();
  ASSERT_TRUE(h.ok());
  cluster.RunFor(60'000);
  EXPECT_FALSE(cluster.node(2).dag().Contains(*h));
}

TEST(GossipTest, UnitDiskTopologyConverges) {
  sim::UnitDiskTopology::Params p;
  p.field_size = 300;
  p.radio_range = 150;  // dense enough to be connected
  sim::UnitDiskTopology topo(8, p, 11);
  ClusterConfig cfg;
  cfg.node_count = 8;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(120'000);
  EXPECT_TRUE(cluster.Converged());
}

TEST(GossipTest, GossipCountersAreCollected) {
  sim::ExplicitTopology topo(4);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 4;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(30'000);
  const telemetry::MetricsRegistry& m = cluster.telemetry(0).metrics;
  EXPECT_GT(m.CounterValue("gossip.ticks"), 0u);
  EXPECT_GT(m.CounterValue("recon.initiator.sessions_started"), 0u);
  EXPECT_GT(m.CounterValue("recon.initiator.sessions_completed"), 0u);
  EXPECT_GT(m.CounterValue("recon.initiator.bytes_sent"), 0u);
  EXPECT_GT(cluster.network_telemetry().metrics.CounterValue(
                "net.messages_delivered"),
            0u);
}

TEST(GossipTest, IsolatedNodeCatchesUpWhenLinkReturns) {
  // Node 2 loses its only link mid-run (device out of range), misses
  // traffic, then reconnects and catches up — typical IoT churn.
  sim::ExplicitTopology topo(3);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 3;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);

  topo.RemoveLink(0, 2);
  topo.RemoveLink(1, 2);
  const auto h = cluster.node(0).AddWitnessBlock();
  ASSERT_TRUE(h.ok());
  cluster.RunFor(30'000);
  EXPECT_FALSE(cluster.node(2).dag().Contains(*h));  // offline: missed it

  topo.AddLink(0, 2);
  cluster.RunFor(30'000);
  EXPECT_TRUE(cluster.node(2).dag().Contains(*h));  // back: caught up
  EXPECT_TRUE(cluster.Converged());
}

TEST(GossipTest, TotalLossTimesOutSessionsWithoutLeaking) {
  sim::ExplicitTopology topo(2);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 2;
  cfg.link.drop_probability = 1.0;  // the air eats everything
  Cluster cluster(cfg, &topo);
  cluster.RunFor(120'000);
  const telemetry::MetricsRegistry& m = cluster.telemetry(0).metrics;
  EXPECT_GT(m.CounterValue("recon.initiator.sessions_started"), 0u);
  EXPECT_EQ(m.CounterValue("recon.initiator.sessions_completed"), 0u);
  EXPECT_GT(m.CounterValue("gossip.sessions_timed_out"), 0u);  // not leaked
}

TEST(GossipTest, StoppedEngineInitiatesNothingNew) {
  sim::ExplicitTopology topo(2);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 2;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(10'000);
  cluster.gossip(0).Stop();
  cluster.gossip(1).Stop();
  const telemetry::MetricsRegistry& m0 = cluster.telemetry(0).metrics;
  const telemetry::MetricsRegistry& m1 = cluster.telemetry(1).metrics;
  const std::uint64_t started_0 =
      m0.CounterValue("recon.initiator.sessions_started");
  const std::uint64_t started_1 =
      m1.CounterValue("recon.initiator.sessions_started");
  cluster.RunFor(30'000);
  EXPECT_EQ(m0.CounterValue("recon.initiator.sessions_started"), started_0);
  EXPECT_EQ(m1.CounterValue("recon.initiator.sessions_started"), started_1);
}

TEST(GossipTest, ClusterHonestListExcludesAdversaries) {
  sim::ExplicitTopology topo(4);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 4;
  cfg.adversaries = {2};
  Cluster cluster(cfg, &topo);
  EXPECT_EQ(cluster.honest(), (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(cluster.user_of(0), "owner");
  EXPECT_EQ(cluster.user_of(2), "user-2");
}

TEST(GossipTest, DeterministicAcrossRuns) {
  // Same seed, same topology, same schedule => byte-identical
  // fingerprints. The entire simulation is reproducible.
  auto run = [] {
    sim::ExplicitTopology topo(4);
    topo.MakeClique();
    ClusterConfig cfg;
    cfg.node_count = 4;
    cfg.seed = 2026;
    Cluster cluster(cfg, &topo);
    cluster.RunFor(25'000);
    (void)cluster.node(1).AddWitnessBlock();
    cluster.RunFor(25'000);
    return cluster.node(0).Fingerprint();
  };
  EXPECT_EQ(run(), run());
}

TEST(GossipTest, EnergyAccountedDuringGossip) {
  sim::ExplicitTopology topo(3);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 3;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(30'000);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(cluster.meter(i).radio_nj(), 0.0) << i;
    EXPECT_GT(cluster.meter(i).total_nj(), 0.0) << i;
  }
}

// ------------------------------------------- Failure recovery paths

TEST(GossipTest, UnreachablePeerEntersExponentialBackoff) {
  // The injector holds every link down (flap p=1): each session's
  // first send is refused, aborts immediately, and the peer goes on
  // an exponentially growing cooldown instead of being re-picked
  // every tick.
  sim::ExplicitTopology topo(2);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 2;
  cfg.seed = 5;
  cfg.faults = sim::FaultPlan::LinkFlap(1'000'000, 1.0);
  Cluster cluster(cfg, &topo);

  cluster.RunFor(10'000);
  const telemetry::MetricsRegistry& m = cluster.telemetry(0).metrics;
  EXPECT_GT(m.CounterValue("gossip.sessions_aborted"), 0u);
  EXPECT_GT(m.CounterValue("gossip.backoffs"), 0u);
  const auto& backoff = cluster.gossip(0).peer_backoff();
  ASSERT_EQ(backoff.count(1), 1u);
  const std::uint32_t failures_early = backoff.at(1).failures;
  EXPECT_GE(failures_early, 1u);

  cluster.RunFor(110'000);  // 120 s total
  EXPECT_GT(backoff.at(1).failures, failures_early);
  // A naive engine would have attempted ~120 sessions (one per tick);
  // exponential backoff (base 2 s, cap 60 s) caps the attempt budget.
  EXPECT_LT(m.CounterValue("recon.initiator.sessions_started"), 30u);
  EXPECT_EQ(m.CounterValue("recon.initiator.sessions_completed"), 0u);
  // Ticks kept firing, but selection skipped the cooled-down peer.
  EXPECT_GT(m.CounterValue("gossip.cooldown_skips"), 0u);
  EXPECT_GT(m.CounterValue("gossip.ticks"), 100u);
  // Nothing leaked: aborted sessions were torn down on the spot.
  EXPECT_EQ(cluster.gossip(0).ActiveSessionCount(), 0u);
}

TEST(GossipTest, TimeoutRetryCooldownLifecycleThenRecovery) {
  // Phase 1 (faults active): total message loss -> sessions time out,
  // peers go on cooldown, bounded fast retries fire after backoff.
  // Phase 2 (faults expire at 90 s): the next session completes and
  // clears the peer's backoff record entirely.
  sim::ExplicitTopology topo(2);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 2;
  cfg.seed = 17;
  cfg.faults = sim::FaultPlan::Loss(1.0);
  cfg.faults.active_until_ms = 90'000;
  Cluster cluster(cfg, &topo);

  cluster.RunFor(90'000);
  const telemetry::MetricsRegistry& m = cluster.telemetry(0).metrics;
  EXPECT_GT(m.CounterValue("recon.initiator.sessions_started"), 0u);
  EXPECT_EQ(m.CounterValue("recon.initiator.sessions_completed"), 0u);
  EXPECT_GT(m.CounterValue("gossip.sessions_timed_out"), 0u);  // not leaked
  EXPECT_GT(m.CounterValue("gossip.backoffs"), 0u);  // every timeout backed off
  EXPECT_GT(m.CounterValue("gossip.retries"), 0u);   // fast retries fired
  EXPECT_LE(m.CounterValue("gossip.retries"),
            std::uint64_t{cfg.gossip.max_fast_retries});

  cluster.RunFor(120'000);
  EXPECT_TRUE(cluster.Converged());
  EXPECT_GT(m.CounterValue("recon.initiator.sessions_completed"), 0u);
  // Success wipes the peer's failure history.
  EXPECT_TRUE(cluster.gossip(0).peer_backoff().empty());
}

TEST(GossipTest, MalformedEnvelopesAreCountedAndIgnored) {
  sim::ExplicitTopology topo(2);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 2;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(5'000);

  // Short header, unknown direction byte, unknown initiator session.
  ASSERT_TRUE(cluster.network().Send(1, 0, Bytes{0x01, 0x02}));
  ASSERT_TRUE(cluster.network().Send(1, 0, Bytes(32, 0x7F)));
  serial::Writer w;
  w.WriteU8(1);                            // kToInitiator
  w.WriteU64(0xDEADBEEFCAFEULL);           // no such session
  ASSERT_TRUE(cluster.network().Send(1, 0, w.Take()));
  cluster.RunFor(1'000);

  const telemetry::MetricsRegistry& m = cluster.telemetry(0).metrics;
  EXPECT_EQ(m.CounterValue("gossip.envelopes_rejected"), 3u);
  EXPECT_GT(m.CounterValue("gossip.envelope_bytes_rejected"), 0u);
  // The engine shrugged it off: gossip still converges.
  cluster.RunFor(30'000);
  EXPECT_TRUE(cluster.Converged());
}

TEST(GossipTest, OrphanedResponderStateIsReaped) {
  sim::ExplicitTopology topo(2);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 2;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(5'000);
  // Freeze node 1's initiator so it stops opening real responder
  // sessions on node 0 under our feet (it still responds).
  cluster.gossip(1).Stop();
  const std::size_t baseline = cluster.gossip(0).ResponderSessionCount();

  // A hand-rolled initiator opens a session toward node 0 and then
  // vanishes without ever following up.
  recon::FrontierRequest req;
  req.level = 1;
  req.hashes_only = true;
  req.genesis = cluster.node(0).dag().genesis_hash();
  req.frontier_digest.fill(0x31);  // mismatched: no fast path
  serial::Writer w;
  w.WriteU8(0);                              // kToResponder
  w.WriteU64((std::uint64_t{1} << 40) | 7);  // plausible foreign id
  Bytes env = w.Take();
  Append(&env, recon::EncodeMessage(req));
  ASSERT_TRUE(cluster.network().Send(1, 0, std::move(env)));
  cluster.RunFor(2'000);
  EXPECT_EQ(cluster.gossip(0).ResponderSessionCount(), baseline + 1);

  // One idle session-timeout later the state is gone and counted.
  cluster.RunFor(cfg.gossip.session_timeout_ms + 5'000);
  const telemetry::MetricsRegistry& m = cluster.telemetry(0).metrics;
  EXPECT_GT(m.CounterValue("recon.responder.sessions_orphaned"), 0u);
  // Steady state holds no responder entries older than the timeout.
  cluster.gossip(0).Stop();
  cluster.gossip(1).Stop();
  cluster.RunFor(cfg.gossip.session_timeout_ms + 5'000);
  EXPECT_EQ(cluster.gossip(0).ResponderSessionCount(), 0u);
  EXPECT_EQ(cluster.gossip(1).ResponderSessionCount(), 0u);
}

TEST(GossipTest, SessionAccountingIdentityHolds) {
  // started == completed + failed + timed_out + aborted once the
  // engines quiesce — no state can leave the books silently.
  sim::ExplicitTopology topo(3);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.seed = 23;
  cfg.link.drop_probability = 0.3;  // plenty of failures and timeouts
  Cluster cluster(cfg, &topo);
  cluster.RunFor(180'000);
  for (int i = 0; i < cluster.size(); ++i) cluster.gossip(i).Stop();
  cluster.RunFor(cfg.gossip.session_timeout_ms + 10'000);  // drain

  for (int i = 0; i < cluster.size(); ++i) {
    ASSERT_EQ(cluster.gossip(i).ActiveSessionCount(), 0u) << i;
    const telemetry::MetricsRegistry& m = cluster.telemetry(i).metrics;
    EXPECT_EQ(m.CounterValue("recon.initiator.sessions_started"),
              m.CounterValue("recon.initiator.sessions_completed") +
                  m.CounterValue("recon.initiator.sessions_failed") +
                  m.CounterValue("gossip.sessions_timed_out") +
                  m.CounterValue("gossip.sessions_aborted"))
        << i;
  }
}

// ---------------------------------------- Catch-up resume and setdiff

TEST(GossipTest, LevelCapHitIsSurfacedWhenCatchUpCannotBridge) {
  // Node 0's initiator is capped at frontier level 2; node 1 diverges
  // 40 blocks deep while the link is down. Every catch-up attempt
  // escalates into the cap, fails, and says so on the books — the
  // give-up is never silent.
  sim::ExplicitTopology topo(2);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 2;
  recon::ReconConfig capped;
  capped.mode = recon::ReconConfig::Mode::kHashFirst;
  capped.max_level = 2;
  cfg.recon_overrides[0] = capped;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);
  ASSERT_TRUE(cluster.Converged());

  topo.RemoveLink(0, 1);
  chain::BlockHash deep{};
  for (int i = 0; i < 40; ++i) {
    const auto h = cluster.node(1).AddWitnessBlock();
    ASSERT_TRUE(h.ok());
    deep = *h;
  }
  topo.AddLink(0, 1);
  cluster.RunFor(60'000);

  const telemetry::MetricsRegistry& m = cluster.telemetry(0).metrics;
  EXPECT_GT(m.CounterValue("recon.initiator.level_cap_hit"), 0u);
  EXPECT_GT(m.CounterValue("recon.initiator.sessions_failed"), 0u);
  // The failed catch-ups left their resume mark pinned at the cap...
  EXPECT_EQ(cluster.gossip(0).ResumeLevelFor(1), 2u);
  // ...and the gap genuinely stayed open: levels 1-2 only reach the
  // newest generations, whose ancestors sit in quarantine, uninserted.
  EXPECT_FALSE(cluster.node(0).dag().Contains(deep));
  EXPECT_FALSE(cluster.Converged());
}

TEST(GossipTest, ResumeLevelCarriesFailedCatchUpForward) {
  // A deep catch-up is interrupted mid-escalation (link drops out
  // from under the session). The engine must remember how far the
  // session got, resume the next one from there instead of level 1,
  // and clear the record once a session finally completes.
  sim::ExplicitTopology topo(2);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 2;
  cfg.seed = 7;
  // Slow rounds (~300 ms RTT) so the mid-catch-up window below is
  // wide enough to hit deterministically.
  cfg.link.base_latency_ms = 150;
  recon::ReconConfig hash_first;
  hash_first.mode = recon::ReconConfig::Mode::kHashFirst;
  cfg.recon_overrides[0] = hash_first;
  cfg.recon_overrides[1] = hash_first;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);
  ASSERT_TRUE(cluster.Converged());

  topo.RemoveLink(0, 1);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster.node(1).AddWitnessBlock().ok());
  }
  topo.AddLink(0, 1);
  // Let node 0 start a session and climb a few levels, then cut the
  // link mid-escalation: the next send fails and the session aborts.
  cluster.RunFor(4'000);
  topo.RemoveLink(0, 1);
  cluster.RunFor(cfg.gossip.session_timeout_ms + 4'000);  // drain

  const std::uint32_t resumed = cluster.gossip(0).ResumeLevelFor(1);
  EXPECT_GE(resumed, 2u) << "failed catch-up left no resume mark";

  topo.AddLink(0, 1);
  cluster.RunFor(120'000);
  EXPECT_TRUE(cluster.Converged());
  // Success wipes the resume record along with the backoff history.
  EXPECT_EQ(cluster.gossip(0).ResumeLevelFor(1), 0u);
  const telemetry::MetricsRegistry& m = cluster.telemetry(0).metrics;
  EXPECT_GT(m.CounterValue("recon.initiator.sessions_completed"), 0u);
  EXPECT_GT(m.CounterValue("recon.initiator.sessions_failed") +
                m.CounterValue("gossip.sessions_aborted") +
                m.CounterValue("gossip.sessions_timed_out"),
            0u);
}

TEST(GossipTest, MixedModeFleetConverges) {
  // Three-node clique: nodes 0 and 1 run setdiff, node 2 hash-first.
  // Every responder serves every message, so the setdiff nodes
  // negotiate setdiff with every peer, hash-first one included.
  sim::ExplicitTopology topo(3);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.node_template.recon.mode = recon::ReconConfig::Mode::kSetDiff;
  recon::ReconConfig hash_first;
  hash_first.mode = recon::ReconConfig::Mode::kHashFirst;
  cfg.recon_overrides[2] = hash_first;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(60'000);
  // Sessions open with the level-1 frontier round and probe only when
  // it leaves a gap, so each writer appends a chain deeper than level
  // 1: node 1's exercises setdiff between the setdiff nodes, and node
  // 2's makes them probe the hash-first node.
  for (int writer : {1, 2}) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(cluster.node(writer).AddWitnessBlock().ok());
    }
    cluster.RunFor(60'000);
  }

  EXPECT_TRUE(cluster.Converged());
  for (int i : {0, 1}) {
    const telemetry::MetricsRegistry& m = cluster.telemetry(i).metrics;
    EXPECT_GT(m.CounterValue("setdiff.probes"), 0u) << i;
    EXPECT_GT(m.CounterValue("setdiff.decode_success"), 0u) << i;
  }
  // The hash-first node never probes, yet serves the probes it gets.
  const telemetry::MetricsRegistry& m2 = cluster.telemetry(2).metrics;
  EXPECT_EQ(m2.CounterValue("setdiff.probes"), 0u);
  EXPECT_GT(m2.CounterValue("setdiff.sketches_sent"), 0u);
}

TEST(GossipTest, SessionLostAwaitingSketchDoesNotStopFutureProbes) {
  // A session whose probe or sketch the radio eats times out while
  // waiting for the sketch. That is a lost message, nothing more: the
  // next catch-up toward the same peer must negotiate setdiff again.
  sim::ExplicitTopology topo(2);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 2;
  cfg.node_template.recon.mode = recon::ReconConfig::Mode::kSetDiff;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);
  ASSERT_TRUE(cluster.Converged());
  const telemetry::MetricsRegistry& m = cluster.telemetry(0).metrics;
  ASSERT_EQ(m.CounterValue("setdiff.probes"), 0u);

  // A gap deeper than level 1, so node 0's catch-up probes.
  topo.RemoveLink(0, 1);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster.node(1).AddWitnessBlock().ok());
  }
  topo.AddLink(0, 1);
  while (m.CounterValue("setdiff.probes") < 1) {
    ASSERT_TRUE(cluster.simulator().Step());
  }
  // The probe is on the air; cut the link before the sketch lands.
  topo.RemoveLink(0, 1);
  cluster.RunFor(cfg.gossip.session_timeout_ms + 4'000);
  ASSERT_GT(m.CounterValue("gossip.sessions_timed_out"), 0u);
  topo.AddLink(0, 1);
  cluster.RunFor(60'000);
  ASSERT_TRUE(cluster.Converged());

  // A second gap: the catch-up must probe again.
  const std::uint64_t probes_before = m.CounterValue("setdiff.probes");
  topo.RemoveLink(0, 1);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster.node(1).AddWitnessBlock().ok());
  }
  topo.AddLink(0, 1);
  cluster.RunFor(60'000);
  EXPECT_TRUE(cluster.Converged());
  EXPECT_GT(m.CounterValue("setdiff.probes"), probes_before);
}

}  // namespace
}  // namespace vegvisir::node

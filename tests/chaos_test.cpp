// Chaos soaks: the fault injector (sim/faults.h) mangles, delays,
// duplicates and drops gossip traffic, flaps links, skews clocks and
// crash-restarts nodes mid-protocol — and the stack must shrug it
// off. The invariants checked after every storm:
//
//   1. Eventual convergence: once faults cease, every honest node
//      reaches an identical fingerprint within bounded sim-time.
//   2. No invalid block: every block in every DAG still verifies
//      against its creator's certificate (mangled bytes never pass
//      validation into storage).
//   3. No leaks: initiator sessions and responder-side state drain to
//      zero after quiescence, and the session books balance exactly
//      (started == completed + failed + timed_out + aborted).
//   4. Exact byte accounting: wire counters and session counters
//      reconcile to the byte even under corruption, truncation,
//      duplication and crash-induced dead letters.
//   5. No acked block lost: a durable node recovers, at its restart,
//      every block it had acked before the crash
//      (fault.acked_blocks_lost stays 0).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "crdt/sets.h"
#include "node/cluster.h"
#include "sim/faults.h"
#include "sim/topology.h"
#include "storage/format.h"

namespace vegvisir::node {
namespace {

// Re-verifies every stored block on every live honest node against
// that node's own membership view: chaos may delay or destroy
// messages, but it must never smuggle an invalid block into a DAG.
void ExpectAllBlocksValid(Cluster& cluster) {
  for (int i : cluster.honest()) {
    if (!cluster.alive(i)) continue;
    const Node& node = cluster.node(i);
    for (const chain::BlockHash& h : node.dag().TopologicalOrder()) {
      const chain::Block* block = node.dag().Find(h);
      ASSERT_NE(block, nullptr);
      const chain::Certificate* cert =
          node.state().membership().FindCertificate(block->header().user_id);
      ASSERT_NE(cert, nullptr)
          << "node " << i << " stored a block from an unknown creator";
      EXPECT_TRUE(block->VerifySignature(cert->public_key))
          << "node " << i << " stored a block with a bad signature";
    }
  }
}

// Advances the cluster until it converges or `deadline_ms` (absolute
// sim time) passes.
bool ConvergedBy(Cluster& cluster, sim::TimeMs deadline_ms) {
  while (!cluster.Converged() && cluster.simulator().now() < deadline_ms) {
    cluster.RunFor(10'000);
  }
  return cluster.Converged();
}

// Stops every engine and drains in-flight state, then asserts that no
// session or responder entry survived.
void ExpectNoLeakedSessions(Cluster& cluster, const GossipConfig& gcfg) {
  for (int i = 0; i < cluster.size(); ++i) cluster.gossip(i).Stop();
  cluster.RunFor(gcfg.session_timeout_ms + 10'000);
  for (int i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.gossip(i).ActiveSessionCount(), 0u) << i;
    EXPECT_EQ(cluster.gossip(i).ResponderSessionCount(), 0u) << i;
    EXPECT_EQ(cluster.node(i).QuarantineSize(), 0u) << i;
    const telemetry::MetricsRegistry& m = cluster.telemetry(i).metrics;
    // The session books balance: nothing left silently.
    EXPECT_EQ(m.CounterValue("recon.initiator.sessions_started"),
              m.CounterValue("recon.initiator.sessions_completed") +
                  m.CounterValue("recon.initiator.sessions_failed") +
                  m.CounterValue("gossip.sessions_timed_out") +
                  m.CounterValue("gossip.sessions_aborted"))
        << i;
  }
}

// Wire/session byte reconciliation. Every byte a session emitted is
// either on the wire (plus the 9-byte envelope header per message) or
// in the unsent ledger; every delivered byte is in some session's
// receive counter or in the rejected ledger. Exact, even under
// corruption/truncation/duplication — the network counts delivered
// bytes at post-mutation size.
void ExpectExactByteAccounting(const telemetry::Snapshot& agg) {
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = agg.counters.find(name);
    return it == agg.counters.end() ? 0 : it->second;
  };
  const std::uint64_t session_sent =
      counter("recon.initiator.bytes_sent") +
      counter("recon.responder.bytes_sent");
  const std::uint64_t session_received =
      counter("recon.initiator.bytes_received") +
      counter("recon.responder.bytes_received");
  // Send side (additive form, no underflow):
  //   session_sent = (net.bytes_sent - 9*messages_sent)
  //                + (envelope_bytes_unsent - 9*envelopes_unsent)
  EXPECT_EQ(session_sent + 9 * counter("net.messages_sent") +
                9 * counter("gossip.envelopes_unsent"),
            counter("net.bytes_sent") +
                counter("gossip.envelope_bytes_unsent"));
  // Delivery side: every delivered envelope was either rejected whole
  // or its payload was counted by exactly one session.
  //   net.bytes_delivered = session_received + envelope_bytes_rejected
  //                       + 9*(messages_delivered - envelopes_rejected)
  EXPECT_EQ(counter("net.bytes_delivered") +
                9 * counter("gossip.envelopes_rejected"),
            session_received + 9 * counter("net.messages_delivered") +
                counter("gossip.envelope_bytes_rejected"));
}

// A fresh, empty data root for a durable cluster.
std::string FreshDataDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("vgv_chaos_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Every block a durable node had acked at a crash came back at its
// restart (DESIGN.md §13.2's write-ahead rule, checked by Cluster).
void ExpectNoAckedBlockLost(const telemetry::Snapshot& agg) {
  EXPECT_EQ(agg.counters.at("fault.acked_blocks_lost"), 0u);
}

TEST(ChaosTest, CorruptionNeverInsertsInvalidBlocks) {
  sim::ExplicitTopology topo(4);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 4;
  cfg.seed = 101;
  cfg.faults = sim::FaultPlan::Corruption(0.2);
  cfg.faults.active_until_ms = 120'000;
  Cluster cluster(cfg, &topo);

  cluster.RunFor(30'000);
  ASSERT_TRUE(cluster.node(1).AddWitnessBlock().ok());
  ASSERT_TRUE(cluster.node(3).AddWitnessBlock().ok());

  EXPECT_TRUE(ConvergedBy(cluster, 400'000));
  ExpectAllBlocksValid(cluster);
  const telemetry::Snapshot agg = cluster.AggregateSnapshot();
  EXPECT_GT(agg.counters.at("fault.messages_corrupted"), 0u);
  ExpectExactByteAccounting(agg);
}

TEST(ChaosTest, TruncatedMessagesAreRejectedNotParsed) {
  sim::ExplicitTopology topo(3);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.seed = 31;
  cfg.faults = sim::FaultPlan::Truncation(0.3);
  cfg.faults.active_until_ms = 90'000;
  Cluster cluster(cfg, &topo);

  EXPECT_TRUE(ConvergedBy(cluster, 300'000));
  ExpectAllBlocksValid(cluster);
  const telemetry::Snapshot agg = cluster.AggregateSnapshot();
  EXPECT_GT(agg.counters.at("fault.messages_truncated"), 0u);
  // Each truncated envelope was either rejected at the envelope layer
  // (short header) or failed a session's message decode — never
  // partially parsed into state.
  EXPECT_GT(agg.CounterSumByPrefix("gossip.envelopes_rejected") +
                agg.CounterSumByPrefix("recon.initiator.sessions_failed"),
            0u);
  ExpectExactByteAccounting(agg);
}

TEST(ChaosTest, DuplicationAndReorderingAreIdempotent) {
  sim::ExplicitTopology topo(4);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 4;
  cfg.seed = 47;
  // Faults never cease: duplication and reordering alone must not
  // prevent convergence (block insertion is idempotent, sessions
  // tolerate stale replies).
  cfg.faults = sim::FaultPlan::Duplication(0.5);
  cfg.faults.Merge(sim::FaultPlan::Reorder(0.5, 300));
  Cluster cluster(cfg, &topo);

  cluster.RunFor(30'000);
  ASSERT_TRUE(cluster.node(2).AddWitnessBlock().ok());
  EXPECT_TRUE(ConvergedBy(cluster, 300'000));
  ExpectAllBlocksValid(cluster);
  const telemetry::Snapshot agg = cluster.AggregateSnapshot();
  EXPECT_GT(agg.counters.at("fault.messages_duplicated"), 0u);
  EXPECT_GT(agg.counters.at("fault.messages_delayed"), 0u);
  ExpectExactByteAccounting(agg);
}

TEST(ChaosTest, SkewedClockBlocksQuarantineThenDrain) {
  sim::ExplicitTopology topo(3);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.seed = 61;
  // Node 1's clock runs 7 s fast — 2 s beyond the 5 s validation
  // tolerance, so its blocks arrive "from the future" and must be
  // parked, not rejected, then admitted once receivers catch up.
  cfg.faults.clock_skew_ms[1] = 7'000;
  cfg.faults.active_until_ms = 60'000;
  Cluster cluster(cfg, &topo);

  cluster.RunFor(20'000);
  ASSERT_TRUE(cluster.node(1).AddWitnessBlock().ok());
  cluster.RunFor(3'000);

  EXPECT_TRUE(ConvergedBy(cluster, 300'000));
  const telemetry::Snapshot agg = cluster.AggregateSnapshot();
  EXPECT_GT(agg.counters.at("node.blocks_quarantined"), 0u);
  for (int i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.node(i).QuarantineSize(), 0u) << i;
  }
  ExpectAllBlocksValid(cluster);
}

TEST(ChaosTest, ManualCrashRestartRecoversFromLog) {
  sim::ExplicitTopology topo(3);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.seed = 19;
  cfg.data_dir = FreshDataDir("manual");
  Cluster cluster(cfg, &topo);
  cluster.RunFor(30'000);
  ASSERT_TRUE(cluster.Converged());
  const std::size_t blocks_before = cluster.node(1).dag().Size();

  cluster.CrashNode(1);
  EXPECT_FALSE(cluster.alive(1));
  cluster.CrashNode(1);  // idempotent
  cluster.RunFor(10'000);

  cluster.RestartNode(1);
  ASSERT_TRUE(cluster.alive(1));
  cluster.RestartNode(1);  // no-op while up
  // Log replay alone brought back every block, before any gossip.
  EXPECT_EQ(cluster.node(1).dag().Size(), blocks_before);
  cluster.RunFor(60'000);
  EXPECT_TRUE(cluster.Converged());
  const telemetry::Snapshot agg = cluster.AggregateSnapshot();
  EXPECT_EQ(agg.counters.at("fault.crashes"), 1u);
  EXPECT_EQ(agg.counters.at("fault.restarts"), 1u);
  ExpectNoAckedBlockLost(agg);
}

// Without a store a crash loses everything: the node restarts from
// genesis and gossip re-fetches its history.
TEST(ChaosTest, RamOnlyCrashRejoinsFromGenesis) {
  sim::ExplicitTopology topo(3);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.seed = 23;
  Cluster cluster(cfg, &topo);
  cluster.RunFor(30'000);
  ASSERT_TRUE(cluster.Converged());
  ASSERT_GT(cluster.node(1).dag().Size(), 1u);

  cluster.CrashNode(1);
  cluster.RunFor(10'000);
  cluster.RestartNode(1);
  ASSERT_TRUE(cluster.alive(1));
  EXPECT_EQ(cluster.node(1).dag().Size(), 1u);

  EXPECT_TRUE(ConvergedBy(cluster, 300'000));
  ExpectAllBlocksValid(cluster);
}

// The counter behind ExpectNoAckedBlockLost fires: a store wiped
// while its node is down loses every acked block but genesis.
TEST(ChaosTest, WipedStoreCountsAckedLoss) {
  sim::ExplicitTopology topo(3);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.seed = 29;
  cfg.data_dir = FreshDataDir("wiped");
  Cluster cluster(cfg, &topo);
  cluster.RunFor(30'000);
  ASSERT_TRUE(cluster.Converged());
  const std::size_t acked = cluster.node(1).dag().Size();
  ASSERT_GT(acked, 1u);

  cluster.CrashNode(1);
  const std::filesystem::path node_dir = cfg.data_dir + "/node1";
  for (const auto& entry : std::filesystem::directory_iterator(node_dir)) {
    std::filesystem::remove_all(entry.path());
  }
  cluster.RestartNode(1);
  ASSERT_TRUE(cluster.alive(1));
  EXPECT_EQ(cluster.node(1).dag().Size(), 1u);
  EXPECT_EQ(cluster.AggregateSnapshot().counters.at("fault.acked_blocks_lost"),
            acked - 1);
  EXPECT_TRUE(ConvergedBy(cluster, 300'000));
}

// The acceptance soak: an 8-node durable cluster under simultaneous
// corruption (p=0.05), 20% link flap and two crash-restarts, all
// seeded. After the storm window closes, the cluster must reconverge
// to identical frontiers within bounded sim-time with zero invalid
// blocks, zero leaked sessions and exact byte accounting.
TEST(ChaosTest, CombinedSoakReconvergesWithExactAccounting) {
  sim::ExplicitTopology topo(8);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 8;
  cfg.seed = 424'242;
  cfg.data_dir = FreshDataDir("combined");
  cfg.faults = sim::FaultPlan::Corruption(0.05);
  cfg.faults.Merge(sim::FaultPlan::LinkFlap(5'000, 0.2));
  cfg.faults.Merge(sim::FaultPlan::CrashRestart(2, 40'000, 80'000));
  cfg.faults.Merge(sim::FaultPlan::CrashRestart(5, 100'000, 140'000));
  cfg.faults.active_until_ms = 180'000;
  Cluster cluster(cfg, &topo);

  // Writes land throughout the storm, from nodes that are up at the
  // time (2 is down during [40s,80s), 5 during [100s,140s)).
  cluster.RunFor(30'000);
  ASSERT_TRUE(cluster.node(0)
                  .CreateCrdt("journal", crdt::CrdtType::kGSet,
                              crdt::ValueType::kStr,
                              csm::AclPolicy::AllowAll())
                  .ok());
  cluster.RunFor(30'000);  // t=60s: node 2 is down
  ASSERT_TRUE(cluster.node(1)
                  .AppendOp("journal", "add", {crdt::Value::OfStr("mid-storm")})
                  .ok());
  cluster.RunFor(60'000);  // t=120s: node 5 is down
  ASSERT_TRUE(cluster.node(3)
                  .AppendOp("journal", "add", {crdt::Value::OfStr("late-storm")})
                  .ok());

  // Faults cease at t=180s; require convergence within 10 sim-minutes
  // of the storm ending.
  EXPECT_TRUE(ConvergedBy(cluster, 780'000));

  // 1. Everyone is up and identical; both storm-time writes survived
  //    on every node, including the two that crashed.
  for (int i = 0; i < cluster.size(); ++i) {
    ASSERT_TRUE(cluster.alive(i)) << i;
    const auto* journal =
        cluster.node(i).state().FindCrdtAs<crdt::GSet>("journal");
    ASSERT_NE(journal, nullptr) << i;
    EXPECT_TRUE(journal->Contains(crdt::Value::OfStr("mid-storm"))) << i;
    EXPECT_TRUE(journal->Contains(crdt::Value::OfStr("late-storm"))) << i;
  }

  // 2. The storm actually happened, and was survived — not avoided.
  const telemetry::Snapshot agg = cluster.AggregateSnapshot();
  EXPECT_GT(agg.counters.at("fault.messages_corrupted"), 0u);
  EXPECT_GT(agg.counters.at("fault.sends_flap_blocked"), 0u);
  EXPECT_EQ(agg.counters.at("fault.crashes"), 2u);
  EXPECT_EQ(agg.counters.at("fault.restarts"), 2u);
  // Both crashed nodes recovered every block they had acked.
  ExpectNoAckedBlockLost(agg);

  // 3. No invalid block anywhere.
  ExpectAllBlocksValid(cluster);

  // 4. No leaked session/responder state, books balanced.
  ExpectNoLeakedSessions(cluster, cfg.gossip);

  // 5. Byte accounting is exact across corruption, truncated
  //    envelopes, flap-refused sends and crash dead-letters.
  ExpectExactByteAccounting(cluster.AggregateSnapshot());
}

// Mixed-mode soak: four setdiff nodes share the air with one
// hash-first node and one paper-mode block-push node under 5%
// corruption. Every responder serves every message, so the setdiff
// nodes negotiate setdiff with every peer, and the whole fleet still
// reconverges with exact byte accounting — corrupted sketches and
// all.
TEST(ChaosTest, MixedSetdiffFleetSurvivesCorruptionSoak) {
  sim::ExplicitTopology topo(6);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 6;
  cfg.seed = 90'210;
  cfg.node_template.recon.mode = recon::ReconConfig::Mode::kSetDiff;
  recon::ReconConfig hash_first;
  hash_first.mode = recon::ReconConfig::Mode::kHashFirst;
  cfg.recon_overrides[4] = hash_first;
  recon::ReconConfig block_push;  // the paper's Algorithm 1
  block_push.mode = recon::ReconConfig::Mode::kBlockPush;
  cfg.recon_overrides[5] = block_push;
  cfg.faults = sim::FaultPlan::Corruption(0.05);
  cfg.faults.active_until_ms = 120'000;
  Cluster cluster(cfg, &topo);

  // Writes land mid-storm from both sides of the mode split.
  cluster.RunFor(30'000);
  ASSERT_TRUE(cluster.node(1).AddWitnessBlock().ok());
  ASSERT_TRUE(cluster.node(4).AddWitnessBlock().ok());
  cluster.RunFor(60'000);
  ASSERT_TRUE(cluster.node(2).AddWitnessBlock().ok());

  EXPECT_TRUE(ConvergedBy(cluster, 600'000));
  ExpectAllBlocksValid(cluster);

  const telemetry::Snapshot agg = cluster.AggregateSnapshot();
  EXPECT_GT(agg.counters.at("fault.messages_corrupted"), 0u);
  // setdiff actually ran: probes went out and at least one sketch
  // peeled clean end-to-end.
  EXPECT_GT(agg.counters.at("setdiff.probes"), 0u);
  EXPECT_GT(agg.counters.at("setdiff.decode_success"), 0u);
  // Only setdiff initiators probe.
  EXPECT_EQ(cluster.telemetry(4).metrics.CounterValue("setdiff.probes"), 0u);
  EXPECT_EQ(cluster.telemetry(5).metrics.CounterValue("setdiff.probes"), 0u);

  ExpectNoLeakedSessions(cluster, cfg.gossip);
  ExpectExactByteAccounting(cluster.AggregateSnapshot());
}

// ---- durable storage under chaos (DESIGN.md §13) -------------------

// The crash-restart-mid-append scenario: a durable node is powered
// off while an append is in flight (a torn record lands after its
// fsync'd prefix), and the restart must recover by log replay —
// keeping every fsync'd block and truncating exactly the torn tail.
TEST(ChaosTest, DurableNodeRecoversByLogReplayAfterTornCrash) {
  sim::ExplicitTopology topo(3);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.seed = 83;
  cfg.data_dir = FreshDataDir("torn_crash");
  Cluster cluster(cfg, &topo);

  cluster.RunFor(30'000);
  ASSERT_TRUE(cluster.Converged());
  const std::size_t pre_crash_blocks = cluster.node(1).dag().Size();
  EXPECT_GT(pre_crash_blocks, 1u);
  EXPECT_EQ(cluster.store(1)->GetStats().log_records, pre_crash_blocks);

  cluster.CrashNode(1);
  EXPECT_FALSE(cluster.alive(1));
  // The append that was mid-flight at power-off: half a record header
  // beyond the fsync'd prefix of the active segment.
  {
    std::ofstream seg(cfg.data_dir + "/node1/" + storage::SegmentFileName(0),
                      std::ios::binary | std::ios::app);
    const char torn[] = {0x7F, 0x7F, 0x7F};
    seg.write(torn, sizeof(torn));
  }
  const auto written_while_down = cluster.node(0).AddWitnessBlock();
  ASSERT_TRUE(written_while_down.ok());
  cluster.RunFor(10'000);

  cluster.RestartNode(1);
  ASSERT_TRUE(cluster.alive(1));
  // History recovered from the local log, before any gossip ran.
  EXPECT_GE(cluster.node(1).dag().Size(), pre_crash_blocks);
  const telemetry::MetricsRegistry& m = cluster.telemetry(1).metrics;
  EXPECT_EQ(m.CounterValue("storage.recovery.records_truncated"), 1u);
  EXPECT_GT(m.CounterValue("storage.recovery.bytes_dropped"), 0u);
  EXPECT_GE(m.CounterValue("storage.recovery.records_replayed"),
            pre_crash_blocks);
  ExpectNoAckedBlockLost(cluster.AggregateSnapshot());

  // ...and it catches up on what it missed while down.
  EXPECT_TRUE(ConvergedBy(cluster, 300'000));
  EXPECT_TRUE(cluster.node(1).dag().Contains(*written_while_down));
  ExpectAllBlocksValid(cluster);
  // The write-ahead invariant held throughout: every node's DAG is
  // exactly its log.
  for (int i = 0; i < cluster.size(); ++i) {
    ASSERT_NE(cluster.store(i), nullptr) << i;
    EXPECT_EQ(cluster.store(i)->GetStats().log_records,
              cluster.node(i).dag().Size())
        << i;
  }
}

// Scheduled crash/restart events on a durable cluster: the restart
// goes through TieredStore::Open + log replay under ongoing gossip
// traffic, and the node then catches up on what it missed.
TEST(ChaosTest, DurableClusterSurvivesScheduledCrashes) {
  sim::ExplicitTopology topo(4);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 4;
  cfg.seed = 97;
  cfg.data_dir = FreshDataDir("scheduled");
  cfg.faults = sim::FaultPlan::CrashRestart(2, 40'000, 70'000);
  Cluster cluster(cfg, &topo);

  cluster.RunFor(35'000);
  const std::size_t pre_crash_blocks = cluster.node(2).dag().Size();
  EXPECT_GT(pre_crash_blocks, 1u);
  cluster.RunFor(15'000);  // t=50s: node 2 is down, its store closed
  EXPECT_FALSE(cluster.alive(2));
  EXPECT_EQ(cluster.store(2), nullptr);
  const auto h = cluster.node(0).AddWitnessBlock();
  ASSERT_TRUE(h.ok());

  cluster.RunFor(25'000);  // t=75s: recovered by log replay
  ASSERT_TRUE(cluster.alive(2));
  ASSERT_NE(cluster.store(2), nullptr);
  EXPECT_GE(cluster.node(2).dag().Size(), pre_crash_blocks);

  EXPECT_TRUE(ConvergedBy(cluster, 300'000));
  EXPECT_TRUE(cluster.node(2).dag().Contains(*h));
  const telemetry::Snapshot agg = cluster.AggregateSnapshot();
  EXPECT_EQ(agg.counters.at("fault.crashes"), 1u);
  EXPECT_EQ(agg.counters.at("fault.restarts"), 1u);
  // Two recovery runs on node 2 (initial open + post-crash reopen),
  // one on everyone else.
  EXPECT_GE(agg.counters.at("storage.recovery.runs"),
            static_cast<std::uint64_t>(cluster.size()) + 1);
  ExpectNoAckedBlockLost(agg);
  ExpectAllBlocksValid(cluster);
  ExpectExactByteAccounting(cluster.AggregateSnapshot());
}

// Injected disk faults inside the WAL: ENOSPC makes persists fail,
// which must park blocks (quarantine) rather than ack-then-lose them.
// Once the disk "frees up" (here: never, so the budget simply pins
// the acked set), nothing invalid or unlogged is ever in a DAG.
TEST(ChaosTest, EnospcParksBlocksInsteadOfLosingThem) {
  sim::ExplicitTopology topo(3);
  topo.MakeClique();
  ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.seed = 59;
  cfg.data_dir = FreshDataDir("enospc");
  // Every node's disk accepts ~2 KiB of records, then refuses.
  cfg.faults.io = sim::IoFaultPlan::Enospc(2 * 1024);
  Cluster cluster(cfg, &topo);

  // Write until every disk is full (failed submissions are expected —
  // a full disk refuses to ack the node's own blocks too).
  for (int k = 0; k < 40; ++k) {
    (void)cluster.node(k % 3).AddWitnessBlock();
    cluster.RunFor(3'000);
  }
  const telemetry::Snapshot agg = cluster.AggregateSnapshot();
  EXPECT_GT(agg.counters.at("storage.faults.enospc"), 0u);
  EXPECT_GT(agg.counters.at("storage.append_failures"), 0u);
  // The WAL invariant holds even with a full disk: acked == logged.
  for (int i = 0; i < cluster.size(); ++i) {
    ASSERT_NE(cluster.store(i), nullptr) << i;
    EXPECT_EQ(cluster.store(i)->GetStats().log_records,
              cluster.node(i).dag().Size())
        << i;
  }
  ExpectAllBlocksValid(cluster);
}

TEST(ChaosTest, SoakIsDeterministicAcrossRuns) {
  const auto run = [](const std::string& dir) {
    sim::ExplicitTopology topo(5);
    topo.MakeClique();
    ClusterConfig cfg;
    cfg.node_count = 5;
    cfg.seed = 2'027;
    cfg.data_dir = FreshDataDir(dir);
    cfg.faults = sim::FaultPlan::Corruption(0.1);
    cfg.faults.Merge(sim::FaultPlan::LinkFlap(4'000, 0.3));
    cfg.faults.Merge(sim::FaultPlan::CrashRestart(3, 20'000, 40'000));
    cfg.faults.active_until_ms = 60'000;
    Cluster cluster(cfg, &topo);
    cluster.RunFor(200'000);
    Bytes fp = cluster.node(0).Fingerprint();
    const telemetry::Snapshot agg = cluster.AggregateSnapshot();
    ExpectNoAckedBlockLost(agg);
    fp.push_back(static_cast<std::uint8_t>(
        agg.counters.at("fault.messages_corrupted") & 0xFF));
    fp.push_back(static_cast<std::uint8_t>(
        agg.counters.at("net.messages_delivered") & 0xFF));
    return fp;
  };
  EXPECT_EQ(run("determinism_a"), run("determinism_b"));
}

}  // namespace
}  // namespace vegvisir::node

#include <gtest/gtest.h>

#include <ostream>

#include "crypto/drbg.h"
#include "node/cluster.h"
#include "node/node.h"
#include "recon/messages.h"
#include "recon/session.h"
#include "sim/topology.h"
#include "util/rng.h"

namespace vegvisir::recon {
namespace {

using chain::Block;
using chain::BlockHash;

crypto::KeyPair TestKeys(std::uint64_t seed) {
  crypto::Drbg drbg(seed);
  return crypto::KeyPair::Generate(drbg);
}

// ---------------------------------------------------------------- Messages

TEST(MessagesTest, FrontierRequestRoundTrip) {
  FrontierRequest req;
  req.level = 7;
  req.hashes_only = true;
  req.genesis.fill(0x11);
  const Bytes raw = EncodeMessage(req);
  ASSERT_EQ(*PeekType(raw), MessageType::kFrontierRequest);
  FrontierRequest out;
  ASSERT_TRUE(DecodeMessage(raw, &out).ok());
  EXPECT_EQ(out.level, 7u);
  EXPECT_TRUE(out.hashes_only);
  EXPECT_EQ(out.genesis, req.genesis);
}

TEST(MessagesTest, FrontierResponseRoundTrip) {
  FrontierResponse resp;
  resp.level = 3;
  resp.genesis.fill(0x22);
  BlockHash h1{}, h2{};
  h1.fill(1);
  h2.fill(2);
  resp.hashes = {h1, h2};
  resp.blocks = {Bytes{9, 9, 9}, Bytes{}};
  const Bytes raw = EncodeMessage(resp);
  FrontierResponse out;
  ASSERT_TRUE(DecodeMessage(raw, &out).ok());
  EXPECT_EQ(out.hashes, resp.hashes);
  EXPECT_EQ(out.blocks, resp.blocks);
}

TEST(MessagesTest, BlockRequestResponseRoundTrip) {
  BlockRequest req;
  BlockHash h{};
  h.fill(5);
  req.hashes = {h};
  BlockRequest req_out;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(req), &req_out).ok());
  EXPECT_EQ(req_out.hashes, req.hashes);

  BlockResponse resp;
  resp.blocks = {Bytes{1}, Bytes{2, 3}};
  BlockResponse resp_out;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(resp), &resp_out).ok());
  EXPECT_EQ(resp_out.blocks, resp.blocks);
}

TEST(MessagesTest, PeekRejectsGarbage) {
  EXPECT_FALSE(PeekType(Bytes{}).ok());
  EXPECT_FALSE(PeekType(Bytes{0x00}).ok());
  EXPECT_FALSE(PeekType(Bytes{0xff}).ok());
}

TEST(MessagesTest, CrossTypeDecodeFails) {
  FrontierRequest req;
  req.genesis.fill(1);
  FrontierResponse out;
  EXPECT_FALSE(DecodeMessage(EncodeMessage(req), &out).ok());
}

// ---------------------------------------------------------------- Sessions

// Builds a small cluster of enrolled nodes sharing a genesis.
struct Cluster {
  crypto::KeyPair owner_keys = TestKeys(1);
  Block genesis = chain::GenesisBuilder("recon-chain")
                      .WithTimestamp(100)
                      .Build("owner", owner_keys);

  std::unique_ptr<node::Node> MakeNode(const std::string& user_id,
                                       std::uint64_t key_seed,
                                       node::NodeConfig cfg = {}) {
    cfg.user_id = user_id;
    auto n = std::make_unique<node::Node>(cfg, genesis,
                                          user_id == "owner"
                                              ? owner_keys
                                              : TestKeys(key_seed));
    n->SetTime(1'000'000);  // generous local clock
    return n;
  }

  // Enrolls `user` on `via` (usually the owner's node) and returns
  // the certificate.
  chain::Certificate Enroll(node::Node* via, const std::string& user,
                            std::uint64_t key_seed,
                            const std::string& role = "medic") {
    const auto cert = chain::IssueCertificate(
        user, TestKeys(key_seed).public_key(), role, owner_keys);
    EXPECT_TRUE(via->EnrollUser(cert).ok());
    return cert;
  }
};

TEST(SessionTest, IdenticalReplicasFinishInOneRound) {
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  auto b = c.MakeNode("owner", 1);
  SessionStats stats;
  const SessionState state =
      RunLocalSession(a.get(), b.get(), ReconConfig{}, &stats);
  EXPECT_EQ(state, SessionState::kDone);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.blocks_inserted, 0u);
}

TEST(SessionTest, FrontierDigestFastPathSkipsBodies) {
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  auto b = c.MakeNode("owner", 1);
  // Identical replicas with some history.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(b->AddWitnessBlock().ok());
    ASSERT_EQ(a->OfferBlock(*b->dag().Find(b->dag().Frontier()[0])),
              chain::BlockVerdict::kValid);
  }
  SessionStats stats;
  ASSERT_EQ(RunLocalSession(a.get(), b.get(), ReconConfig{}, &stats),
            SessionState::kDone);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.blocks_received, 0u);
  // Digest match: response carries frontier hashes only — an idle
  // gossip tick costs ~150 bytes instead of full block bodies.
  EXPECT_LT(stats.bytes_received, 150u);
}

TEST(SessionTest, InitiatorPullsMissingBlocks) {
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  auto b = c.MakeNode("owner", 1);
  // The responder (b) has three extra blocks.
  ASSERT_TRUE(b->AddWitnessBlock().ok());
  ASSERT_TRUE(b->AddWitnessBlock().ok());
  ASSERT_TRUE(b->AddWitnessBlock().ok());

  SessionStats stats;
  const SessionState state =
      RunLocalSession(a.get(), b.get(), ReconConfig{}, &stats);
  EXPECT_EQ(state, SessionState::kDone);
  EXPECT_EQ(a->dag().Size(), b->dag().Size());
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());
  EXPECT_GT(stats.blocks_inserted, 0u);
}

TEST(SessionTest, LevelEscalationBridgesDeepGaps) {
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  auto b = c.MakeNode("owner", 1);
  // b is 10 blocks ahead in a linear chain; level 1 frontier (the
  // newest block) has unknown parents for a, forcing escalation.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(b->AddWitnessBlock().ok());

  SessionStats stats;
  const SessionState state =
      RunLocalSession(a.get(), b.get(), ReconConfig{}, &stats);
  EXPECT_EQ(state, SessionState::kDone);
  EXPECT_GT(stats.rounds, 1u);  // escalated past level 1
  EXPECT_EQ(a->dag().Size(), b->dag().Size());
}

TEST(SessionTest, HashFirstModeTransfersLessOnDeepGaps) {
  // In block-push mode, every level escalation re-sends the whole
  // level-n set; hash-first re-sends only hashes and fetches each
  // body once. On a deep divergence hash-first must use less
  // bandwidth (the paper's future-work efficiency claim, E10).
  Cluster c;
  // Two pairs with the same divergence, one per mode.
  auto a1 = c.MakeNode("owner", 1);
  auto b1 = c.MakeNode("owner", 1);
  auto a2 = c.MakeNode("owner", 1);
  auto b2 = c.MakeNode("owner", 1);
  // b1/b2 run 12 blocks ahead of a1/a2.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(b1->AddWitnessBlock().ok());
    const Block* blk = b1->dag().Find(b1->dag().Frontier()[0]);
    ASSERT_NE(blk, nullptr);
    ASSERT_EQ(b2->OfferBlock(*blk), chain::BlockVerdict::kValid);
  }

  SessionStats block_mode, hash_mode;
  ReconConfig cfg_block;
  cfg_block.mode = ReconConfig::Mode::kBlockPush;
  ReconConfig cfg_hash;
  cfg_hash.mode = ReconConfig::Mode::kHashFirst;
  ASSERT_EQ(RunLocalSession(a1.get(), b1.get(), cfg_block, &block_mode),
            SessionState::kDone);
  ASSERT_EQ(RunLocalSession(a2.get(), b2.get(), cfg_hash, &hash_mode),
            SessionState::kDone);

  EXPECT_EQ(a1->dag().Size(), b1->dag().Size());
  EXPECT_EQ(a2->dag().Size(), b2->dag().Size());
  // Same sync, fewer bytes with hash-first.
  EXPECT_LT(hash_mode.bytes_received, block_mode.bytes_received);
}

TEST(SessionTest, StartLevelResumesDeepCatchUp) {
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  auto b = c.MakeNode("owner", 1);
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(b->AddWitnessBlock().ok());
  ReconConfig cfg;
  cfg.start_level = 16;  // as a gossip engine resume would set
  SessionStats stats;
  ASSERT_EQ(RunLocalSession(a.get(), b.get(), cfg, &stats),
            SessionState::kDone);
  EXPECT_EQ(a->dag().Size(), b->dag().Size());
  EXPECT_LE(stats.rounds, 2u);  // jumped straight to the needed depth
}

TEST(SessionTest, PartialProgressSurvivesViaQuarantine) {
  // A session that dies mid-escalation leaves its blocks in the
  // node's quarantine; a later session that fetches the deeper
  // ancestry drains them — no byte is re-paid for the lost blocks.
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  auto b = c.MakeNode("owner", 1);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(b->AddWitnessBlock().ok());

  // Manually run just the first round of a session, then abandon it.
  InitiatorSession first(a.get(), ReconConfig{});
  ResponderSession responder(b.get(), ReconConfig{});
  std::vector<Bytes> replies;
  ASSERT_TRUE(responder.OnMessage(first.Start(), &replies).ok());
  std::vector<Bytes> follow_ups;
  ASSERT_TRUE(first.OnMessage(replies[0], &follow_ups).ok());
  // The level-1 block could not attach (deep gap): quarantined.
  EXPECT_GT(a->QuarantineSize(), 0u);

  // A fresh session completes the catch-up and drains the quarantine.
  ASSERT_EQ(RunLocalSession(a.get(), b.get(), ReconConfig{}),
            SessionState::kDone);
  EXPECT_EQ(a->QuarantineSize(), 0u);
  EXPECT_EQ(a->dag().Size(), b->dag().Size());
}

// A host resolves each side's counter handles once; every later
// session copies that set, and the counts land in the same cells.
TEST(SessionTest, HostResolvesSessionMetricsOncePerSide) {
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  auto b = c.MakeNode("owner", 1);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(b->AddWitnessBlock().ok());
  const SessionMetrics* initiator =
      &a->session_metrics(SessionSide::kInitiator);
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(RunLocalSession(a.get(), b.get(), ReconConfig{}),
              SessionState::kDone);
  }
  EXPECT_EQ(&a->session_metrics(SessionSide::kInitiator), initiator);
  EXPECT_NE(&a->session_metrics(SessionSide::kResponder), initiator);
  const telemetry::MetricsRegistry& am = a->telemetry()->metrics;
  EXPECT_EQ(am.CounterValue("recon.initiator.sessions_started"), 2u);
  EXPECT_EQ(initiator->sessions_started.value(), 2u);
  EXPECT_EQ(b->telemetry()->metrics.CounterValue("recon.responder.rounds"),
            b->session_metrics(SessionSide::kResponder).rounds.value());
  EXPECT_GE(b->session_metrics(SessionSide::kResponder).rounds.value(), 2u);
  EXPECT_EQ(a->dag().Size(), b->dag().Size());
}

// Setdiff opens with Algorithm 1's level-1 request, whose frontier
// digest ends a session between identical replicas in one round,
// before any DiffProbe.
TEST(SessionTest, SetDiffIdenticalReplicasSkipTheProbe) {
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  auto b = c.MakeNode("owner", 1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(b->AddWitnessBlock().ok());
    ASSERT_EQ(a->OfferBlock(*b->dag().Find(b->dag().Frontier()[0])),
              chain::BlockVerdict::kValid);
  }
  ReconConfig cfg;
  cfg.mode = ReconConfig::Mode::kSetDiff;
  SessionStats stats;
  ASSERT_EQ(RunLocalSession(a.get(), b.get(), cfg, &stats),
            SessionState::kDone);
  EXPECT_EQ(stats.blocks_received, 0u);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(a->telemetry()->metrics.CounterValue("setdiff.probes"), 0u);
}

// A gap deeper than level 1 takes exactly one probe: the peel names
// every missing block and no level escalation follows.
TEST(SessionTest, SetDiffDeepGapTakesOneProbe) {
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  auto b = c.MakeNode("owner", 1);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(b->AddWitnessBlock().ok());
    const Block* blk = b->dag().Find(b->dag().Frontier()[0]);
    ASSERT_EQ(a->OfferBlock(*blk), chain::BlockVerdict::kValid);
  }
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(b->AddWitnessBlock().ok());

  ReconConfig cfg;
  cfg.mode = ReconConfig::Mode::kSetDiff;
  SessionStats stats;
  ASSERT_EQ(RunLocalSession(a.get(), b.get(), cfg, &stats),
            SessionState::kDone);
  EXPECT_EQ(a->dag().Size(), b->dag().Size());
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());
  EXPECT_EQ(stats.blocks_received, 10u);
  const telemetry::MetricsRegistry& m = a->telemetry()->metrics;
  EXPECT_EQ(m.CounterValue("setdiff.probes"), 1u);
  EXPECT_EQ(m.CounterValue("setdiff.decode_success"), 1u);
  EXPECT_EQ(m.CounterValue("setdiff.fallbacks"), 0u);
}

TEST(SessionTest, SetDiffCheaperThanBlockPushOnDeepGaps) {
  Cluster c;
  auto a1 = c.MakeNode("owner", 1);
  auto b1 = c.MakeNode("owner", 1);
  auto a2 = c.MakeNode("owner", 1);
  auto b2 = c.MakeNode("owner", 1);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(b1->AddWitnessBlock().ok());
    const Block* blk = b1->dag().Find(b1->dag().Frontier()[0]);
    ASSERT_EQ(b2->OfferBlock(*blk), chain::BlockVerdict::kValid);
  }
  SessionStats push_stats, setdiff_stats;
  ReconConfig push_cfg;
  ReconConfig setdiff_cfg;
  setdiff_cfg.mode = ReconConfig::Mode::kSetDiff;
  ASSERT_EQ(RunLocalSession(a1.get(), b1.get(), push_cfg, &push_stats),
            SessionState::kDone);
  ASSERT_EQ(RunLocalSession(a2.get(), b2.get(), setdiff_cfg, &setdiff_stats),
            SessionState::kDone);
  EXPECT_EQ(a2->dag().Size(), b2->dag().Size());
  EXPECT_LT(setdiff_stats.bytes_received + setdiff_stats.bytes_sent,
            push_stats.bytes_received + push_stats.bytes_sent);
}

TEST(SessionTest, PushBackUploadsInitiatorExtras) {
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  auto b = c.MakeNode("owner", 1);
  ASSERT_TRUE(a->AddWitnessBlock().ok());  // initiator is ahead
  ReconConfig cfg;
  cfg.push_back = true;
  SessionStats initiator_stats, responder_stats;
  const SessionState state = RunLocalSession(a.get(), b.get(), cfg,
                                             &initiator_stats,
                                             &responder_stats);
  EXPECT_EQ(state, SessionState::kDone);
  EXPECT_EQ(a->dag().Size(), b->dag().Size());
  EXPECT_GT(initiator_stats.blocks_pushed, 0u);
  EXPECT_GT(responder_stats.blocks_inserted, 0u);
}

TEST(SessionTest, WithoutPushBackResponderStaysBehind) {
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  auto b = c.MakeNode("owner", 1);
  ASSERT_TRUE(a->AddWitnessBlock().ok());
  SessionStats stats;
  ASSERT_EQ(RunLocalSession(a.get(), b.get(), ReconConfig{}, &stats),
            SessionState::kDone);
  // One-way pull (paper-faithful): the responder learned nothing.
  EXPECT_GT(a->dag().Size(), b->dag().Size());
}

TEST(SessionTest, DifferentChainsRefuseToSync) {
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  // A different genesis entirely.
  const crypto::KeyPair other_keys = TestKeys(50);
  const Block other_genesis = chain::GenesisBuilder("other-chain")
                                  .WithTimestamp(100)
                                  .Build("owner", other_keys);
  node::NodeConfig cfg;
  cfg.user_id = "owner";
  node::Node b(cfg, other_genesis, other_keys);
  b.SetTime(1'000'000);

  const SessionState state = RunLocalSession(a.get(), &b, ReconConfig{});
  EXPECT_NE(state, SessionState::kDone);
}

TEST(SessionTest, MergeSpreadsEnrollmentThenBlocks) {
  // The responder enrolled a new user and that user wrote a block;
  // the initiator must accept both in one session (the enrolment
  // block unblocks the user's block inside the merge fixpoint).
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  auto b = c.MakeNode("owner", 1);
  const auto cert = c.Enroll(b.get(), "alice", 7);
  node::NodeConfig alice_cfg;
  alice_cfg.user_id = "alice";
  node::Node alice(alice_cfg, c.genesis, TestKeys(7));
  alice.SetTime(1'000'000);
  // Alice catches up from b, then writes.
  ASSERT_EQ(RunLocalSession(&alice, b.get(), ReconConfig{}),
            SessionState::kDone);
  ASSERT_TRUE(alice.AddWitnessBlock().ok());
  // b pulls alice's block.
  ASSERT_EQ(RunLocalSession(b.get(), &alice, ReconConfig{}),
            SessionState::kDone);
  // Now a pulls everything from b.
  ASSERT_EQ(RunLocalSession(a.get(), b.get(), ReconConfig{}),
            SessionState::kDone);
  EXPECT_EQ(a->dag().Size(), b->dag().Size());
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());
  EXPECT_EQ(a->state().membership().RoleOf("alice"), "medic");
}

// Property: for randomly diverged replica pairs, every reconciliation
// mode reaches the same final state (full synchronization). Shapes
// are generated by interleaving shared, initiator-only and
// responder-only writes, including concurrent branches.
struct ModeEquivalenceCase {
  std::uint64_t seed;
};

// Names each case after its seed (gtest would otherwise print the
// struct as its raw bytes into the CTest name).
void PrintTo(const ModeEquivalenceCase& c, std::ostream* os) {
  *os << "seed" << c.seed;
}

class ReconModeEquivalenceTest
    : public ::testing::TestWithParam<ModeEquivalenceCase> {};

TEST_P(ReconModeEquivalenceTest, AllModesReachSameState) {
  const std::uint64_t seed = GetParam().seed;
  // Block-push, hash-first and setdiff.
  std::vector<ReconConfig> configs(3);
  configs[1].mode = ReconConfig::Mode::kHashFirst;
  configs[2].mode = ReconConfig::Mode::kSetDiff;
  Bytes reference_a, reference_b;
  for (std::size_t m = 0; m < configs.size(); ++m) {
    Cluster c;
    auto a = c.MakeNode("owner", 1);
    auto b = c.MakeNode("owner", 1);
    Rng rng(seed);
    for (int step = 0; step < 40; ++step) {
      switch (rng.NextBelow(3)) {
        case 0: {  // write on a, offered to b (may quarantine on b if
                   // its parents include a-only history — the session
                   // later drains it, which is part of the property)
          const auto h = a->AddWitnessBlock();
          ASSERT_TRUE(h.ok());
          (void)b->OfferBlock(*a->dag().Find(*h));
          break;
        }
        case 1:
          ASSERT_TRUE(a->AddWitnessBlock().ok());
          break;
        case 2:
          ASSERT_TRUE(b->AddWitnessBlock().ok());
          break;
      }
    }
    ReconConfig cfg = configs[m];
    cfg.push_back = true;  // symmetric: both end identical
    ASSERT_EQ(RunLocalSession(a.get(), b.get(), cfg), SessionState::kDone)
        << "mode " << m;
    EXPECT_EQ(a->Fingerprint(), b->Fingerprint()) << "mode " << m;
    if (m == 0) {
      reference_a = a->Fingerprint();
    } else {
      // The same workload reconciled under any mode gives the same
      // replicas (fingerprints include the full DAG + CSM state).
      EXPECT_EQ(a->Fingerprint(), reference_a) << "mode " << m;
    }
  }
  (void)reference_b;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ReconModeEquivalenceTest,
    ::testing::Values(ModeEquivalenceCase{101}, ModeEquivalenceCase{202},
                      ModeEquivalenceCase{303}, ModeEquivalenceCase{404}),
    ::testing::PrintToStringParamName());

TEST(SessionTest, InitiatorRejectsMalformedMessage) {
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  InitiatorSession session(a.get(), ReconConfig{});
  (void)session.Start();
  std::vector<Bytes> out;
  EXPECT_FALSE(session.OnMessage(Bytes{0xff, 0xfe}, &out).ok());
  EXPECT_EQ(session.state(), SessionState::kFailed);
}

TEST(SessionTest, ResponderServesFrontierLevels) {
  Cluster c;
  auto b = c.MakeNode("owner", 1);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(b->AddWitnessBlock().ok());

  ResponderSession responder(b.get(), ReconConfig{});
  FrontierRequest req;
  req.level = 2;
  req.genesis = b->dag().genesis_hash();
  std::vector<Bytes> out;
  ASSERT_TRUE(responder.OnMessage(EncodeMessage(req), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  FrontierResponse resp;
  ASSERT_TRUE(DecodeMessage(out[0], &resp).ok());
  EXPECT_EQ(resp.hashes.size(), 2u);  // level-2 of a linear chain
  EXPECT_EQ(resp.blocks.size(), 2u);
}

// ------------------------------------------------ network accounting

// Every byte the simulated radio carries must be attributable to a
// reconciliation session plus the 9-byte gossip envelope (u8
// direction + u64 session id). Because sessions and the network count
// into the same telemetry registries, this is an exact identity, not
// an approximation — any unaccounted traffic or double counting
// breaks the equality.
TEST(SessionTest, SessionBytesReconcileWithNetworkBytes) {
  sim::ExplicitTopology topo(2);
  topo.MakeClique();
  node::ClusterConfig cfg;
  cfg.node_count = 2;
  cfg.seed = 7;
  cfg.link.drop_probability = 0.0;  // lossless: delivered == sent
  // Node 0 is the only initiator, so it must push its enrollment
  // blocks to node 1 (pull alone would leave node 1 dark).
  cfg.node_template.recon.push_back = true;
  node::Cluster cluster(cfg, &topo);
  cluster.gossip(1).Stop();  // node 1 only responds

  // Let node 0's first sessions enroll node 1, then put node 1 eight
  // blocks ahead so the next session escalates through multiple
  // frontier levels before it finds the common ancestor.
  cluster.RunFor(10'000);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.node(1).AddWitnessBlock().ok());
  }
  cluster.RunFor(30'000);
  ASSERT_TRUE(cluster.Converged());

  const telemetry::MetricsRegistry& m0 = cluster.telemetry(0).metrics;
  const telemetry::MetricsRegistry& m1 = cluster.telemetry(1).metrics;

  // The deep gap forced at least one multi-round (escalating) session.
  EXPECT_GT(m0.CounterValue("recon.initiator.rounds"),
            m0.CounterValue("recon.initiator.sessions_started"));
  EXPECT_GT(m0.CounterValue("recon.initiator.sessions_completed"), 0u);
  // Node 1 never initiated; it only served.
  EXPECT_EQ(m1.CounterValue("recon.initiator.sessions_started"), 0u);
  EXPECT_GT(m1.CounterValue("recon.responder.rounds"), 0u);

  const std::uint64_t session_sent =
      m0.CounterValue("recon.initiator.bytes_sent") +
      m1.CounterValue("recon.initiator.bytes_sent") +
      m0.CounterValue("recon.responder.bytes_sent") +
      m1.CounterValue("recon.responder.bytes_sent");
  const std::uint64_t session_received =
      m0.CounterValue("recon.initiator.bytes_received") +
      m1.CounterValue("recon.initiator.bytes_received") +
      m0.CounterValue("recon.responder.bytes_received") +
      m1.CounterValue("recon.responder.bytes_received");

  const telemetry::MetricsRegistry& net = cluster.network_telemetry().metrics;
  EXPECT_EQ(net.CounterValue("net.messages_dropped"), 0u);
  EXPECT_EQ(net.CounterValue("net.messages_unreachable"), 0u);
  EXPECT_EQ(net.CounterValue("net.bytes_sent"),
            session_sent + 9 * net.CounterValue("net.messages_sent"));
  EXPECT_EQ(net.CounterValue("net.bytes_delivered"),
            session_received + 9 * net.CounterValue("net.messages_delivered"));
}

TEST(SessionTest, LevelCapFailsGracefully) {
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  auto b = c.MakeNode("owner", 1);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(b->AddWitnessBlock().ok());
  ReconConfig cfg;
  cfg.max_level = 2;  // too shallow for a 10-deep gap
  const SessionState state = RunLocalSession(a.get(), b.get(), cfg);
  EXPECT_EQ(state, SessionState::kFailed);
}

// ------------------------------------------------- Decoder hardening

TEST(MessagesTest, HugeHashCountRejectedWithoutAllocating) {
  // A corrupted varint near 2^64 must fail the bounds check, not wrap
  // the `count * sizeof(hash)` multiply and drive reserve() into an
  // allocation bomb.
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(MessageType::kBlockRequest));
  w.WriteVarint(0xFFFF'FFFF'FFFF'FFFFULL);
  BlockRequest out;
  EXPECT_FALSE(DecodeMessage(w.Take(), &out).ok());

  serial::Writer w2;
  w2.WriteU8(static_cast<std::uint8_t>(MessageType::kBlockRequest));
  // Big enough to pass a naive `count*32 > remaining` check only via
  // u64 wraparound (2^59 * 32 == 2^64 == 0).
  w2.WriteVarint(std::uint64_t{1} << 59);
  BlockRequest out2;
  EXPECT_FALSE(DecodeMessage(w2.Take(), &out2).ok());
}

TEST(MessagesTest, TruncatedEncodingsNeverDecode) {
  // Every strict prefix of a valid encoding must be rejected with a
  // Status — the fault injector produces exactly these bytes.
  std::vector<Bytes> messages;
  FrontierRequest freq;
  freq.level = 3;
  freq.genesis.fill(0x11);
  messages.push_back(EncodeMessage(freq));
  FrontierResponse fresp;
  fresp.level = 2;
  fresp.genesis.fill(0x22);
  BlockHash h{};
  h.fill(7);
  fresp.hashes = {h};
  fresp.blocks = {Bytes{1, 2, 3}};
  messages.push_back(EncodeMessage(fresp));
  BlockRequest breq;
  breq.hashes = {h};
  messages.push_back(EncodeMessage(breq));
  BlockResponse bresp;
  bresp.blocks = {Bytes{4, 5}};
  messages.push_back(EncodeMessage(bresp));
  PushBlocks push;
  push.blocks = {Bytes{6}};
  messages.push_back(EncodeMessage(push));

  for (const Bytes& full : messages) {
    for (std::size_t len = 0; len < full.size(); ++len) {
      const Bytes prefix(full.begin(),
                         full.begin() + static_cast<std::ptrdiff_t>(len));
      FrontierRequest a;
      FrontierResponse b;
      BlockRequest c;
      BlockResponse d;
      PushBlocks e;
      EXPECT_FALSE(DecodeMessage(prefix, &a).ok() ||
                   DecodeMessage(prefix, &b).ok() ||
                   DecodeMessage(prefix, &c).ok() ||
                   DecodeMessage(prefix, &d).ok() ||
                   DecodeMessage(prefix, &e).ok())
          << "prefix of length " << len << " decoded";
    }
  }
}

TEST(SessionTest, ResponderClampsAbsurdFrontierLevel) {
  Cluster c;
  auto a = c.MakeNode("owner", 1);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(a->AddWitnessBlock().ok());

  // A corrupted level (> INT_MAX) used to wrap negative through an
  // int cast; the responder must serve it clamped, not misbehave.
  FrontierRequest req;
  req.level = 0xFFFF'FFFFu;
  req.hashes_only = true;
  req.genesis = a->dag().genesis_hash();
  // Digest deliberately mismatched so the fast path is skipped.
  req.frontier_digest.fill(0x5C);

  ResponderSession responder(a.get(), a->recon_config());
  std::vector<Bytes> replies;
  ASSERT_TRUE(responder.OnMessage(EncodeMessage(req), &replies).ok());
  ASSERT_EQ(replies.size(), 1u);
  FrontierResponse resp;
  ASSERT_TRUE(DecodeMessage(replies[0], &resp).ok());
  // A level this deep covers the whole DAG: the response must carry
  // every block hash, genesis included.
  EXPECT_EQ(resp.hashes.size(), a->dag().Size());
}

}  // namespace
}  // namespace vegvisir::recon

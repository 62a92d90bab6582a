// Decode-rejection coverage for src/recon/messages.cpp: every
// early-return verdict class has a test asserting that feeding a
// session the matching malformed input bumps exactly the matching
// recon.<side>.reject.<suffix> counter, plus direct pins of the
// Status-message -> suffix mapping in DecodeRejectName.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chain/genesis.h"
#include "crypto/drbg.h"
#include "node/cluster.h"
#include "node/node.h"
#include "recon/messages.h"
#include "recon/session.h"
#include "sim/topology.h"
#include "telemetry/metric_names.h"
#include "serial/codec.h"

namespace vegvisir::recon {
namespace {

crypto::KeyPair TestKeys(std::uint64_t seed) {
  crypto::Drbg drbg(seed);
  return crypto::KeyPair::Generate(drbg);
}

// One enrolled node per test: its telemetry registry starts at zero,
// so each reject counter assertion is exact.
struct Rig {
  crypto::KeyPair owner_keys = TestKeys(1);
  chain::Block genesis = chain::GenesisBuilder("reject-chain")
                             .WithTimestamp(100)
                             .Build("owner", owner_keys);
  std::unique_ptr<node::Node> node = MakeNode();

  std::unique_ptr<node::Node> MakeNode() {
    node::NodeConfig cfg;
    cfg.user_id = "owner";
    auto n = std::make_unique<node::Node>(cfg, genesis, owner_keys);
    n->SetTime(1'000'000);
    return n;
  }

  std::uint64_t Reject(const char* side, const char* suffix) const {
    return node->telemetry()->metrics.CounterValue(
        std::string("recon.") + side + ".reject." + suffix);
  }

  // Runs a fresh initiator session (after its opening request) into
  // the malformed bytes; the session must fail.
  void FeedInitiator(const Bytes& data, ReconConfig cfg = ReconConfig{}) {
    InitiatorSession session(node.get(), cfg);
    (void)session.Start();
    std::vector<Bytes> out;
    EXPECT_FALSE(session.OnMessage(data, &out).ok());
    EXPECT_EQ(session.state(), SessionState::kFailed);
  }

  // A kSetDiff initiator right after its DiffProbe, waiting for a
  // sketch — the state the setdiff decode rejects live in. The session
  // gets there the honest way: a level-1 response advertising a hash
  // it does not hold, then an empty body response, leave a gap deeper
  // than level 1.
  void FeedSetdiffInitiator(const Bytes& data) {
    ReconConfig cfg;
    cfg.mode = ReconConfig::Mode::kSetDiff;
    InitiatorSession session(node.get(), cfg);
    (void)session.Start();
    FrontierResponse level1;
    level1.genesis = genesis.hash();
    level1.hashes.push_back(chain::BlockHash{});
    level1.hashes.back().fill(0xAB);  // unknown to this node
    std::vector<Bytes> out;
    ASSERT_TRUE(session.OnMessage(EncodeMessage(level1), &out).ok());
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(*PeekType(out[0]), MessageType::kBlockRequest);
    out.clear();
    ASSERT_TRUE(session.OnMessage(EncodeMessage(BlockResponse{}), &out).ok());
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(*PeekType(out[0]), MessageType::kDiffProbe);
    ASSERT_TRUE(session.AwaitingSetdiffHandshake());
    out.clear();
    EXPECT_FALSE(session.OnMessage(data, &out).ok());
    EXPECT_EQ(session.state(), SessionState::kFailed);
  }

  void FeedResponder(const Bytes& data, ReconConfig cfg = ReconConfig{}) {
    ResponderSession session(node.get(), cfg);
    std::vector<Bytes> out;
    EXPECT_FALSE(session.OnMessage(data, &out).ok());
  }
};

constexpr const char* kSuffixes[] = {
    "empty",     "unknown_type", "unexpected_type", "count_overflow",
    "truncated", "trailing",     "noncanonical",    "other",
};

void ExpectOnly(const Rig& rig, const char* side, const char* suffix) {
  for (const char* s : kSuffixes) {
    EXPECT_EQ(rig.Reject(side, s), s == std::string(suffix) ? 1u : 0u)
        << side << " reject." << s;
  }
}

// A structurally valid FrontierResponse prefix (tag, level, genesis)
// ready for a hand-mangled hash-count varint.
serial::Writer ResponsePrefix(const Rig& rig) {
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(MessageType::kFrontierResponse));
  w.WriteU32(1);
  w.WriteFixed(rig.genesis.hash());
  return w;
}

// ------------------------------------------------------- initiator side

TEST(ReconRejectTest, InitiatorEmptyMessage) {
  Rig rig;
  rig.FeedInitiator(Bytes{});
  ExpectOnly(rig, "initiator", "empty");
}

TEST(ReconRejectTest, InitiatorUnknownType) {
  Rig rig;
  rig.FeedInitiator(Bytes{0x00});
  ExpectOnly(rig, "initiator", "unknown_type");
}

TEST(ReconRejectTest, InitiatorUnexpectedType) {
  Rig rig;
  // A FrontierRequest is a valid message no initiator should receive.
  rig.FeedInitiator(EncodeMessage(FrontierRequest{}));
  ExpectOnly(rig, "initiator", "unexpected_type");
}

TEST(ReconRejectTest, InitiatorTruncated) {
  Rig rig;
  Bytes raw = EncodeMessage(FrontierResponse{});
  raw.pop_back();
  rig.FeedInitiator(raw);
  ExpectOnly(rig, "initiator", "truncated");
}

TEST(ReconRejectTest, InitiatorCountOverflow) {
  Rig rig;
  serial::Writer w = ResponsePrefix(rig);
  w.WriteVarint(0x0800000000000001ULL);  // wraps count * 32 to 32
  for (int i = 0; i < 40; ++i) w.WriteU8(0xAA);
  rig.FeedInitiator(w.Take());
  ExpectOnly(rig, "initiator", "count_overflow");
}

TEST(ReconRejectTest, InitiatorTrailingBytes) {
  Rig rig;
  Bytes raw = EncodeMessage(FrontierResponse{});
  raw.push_back(0x00);
  rig.FeedInitiator(raw);
  ExpectOnly(rig, "initiator", "trailing");
}

TEST(ReconRejectTest, InitiatorNonCanonicalVarint) {
  Rig rig;
  serial::Writer w = ResponsePrefix(rig);
  w.WriteU8(0x80);  // hash count 0 encoded in two bytes
  w.WriteU8(0x00);
  rig.FeedInitiator(w.Take());
  ExpectOnly(rig, "initiator", "noncanonical");
}

// ------------------------------------------- setdiff negotiation rejects

// A valid DiffSketch on a non-setdiff initiator is the wrong message
// for the session's mode, not a decode error.
TEST(ReconRejectTest, InitiatorSketchOutsideSetdiffMode) {
  Rig rig;
  DiffSketch sketch;
  sketch.genesis = rig.genesis.hash();
  rig.FeedInitiator(EncodeMessage(sketch));
  ExpectOnly(rig, "initiator", "unexpected_type");
}

TEST(ReconRejectTest, InitiatorTruncatedDiffSketch) {
  Rig rig;
  DiffSketch sketch;
  sketch.genesis = rig.genesis.hash();
  Bytes raw = EncodeMessage(sketch);
  raw.resize(10);  // cut mid-genesis: a fixed-field read comes up short
  rig.FeedSetdiffInitiator(raw);
  ExpectOnly(rig, "initiator", "truncated");
}

// Chopping the final IBLT cell leaves a cell count the remaining
// bytes cannot back — the cheap-bomb verdict, not "truncated".
TEST(ReconRejectTest, InitiatorSketchMissingLastCellIsCountOverflow) {
  Rig rig;
  DiffSketch sketch;
  sketch.genesis = rig.genesis.hash();
  Bytes raw = EncodeMessage(sketch);
  raw.pop_back();
  rig.FeedSetdiffInitiator(raw);
  ExpectOnly(rig, "initiator", "count_overflow");
}

TEST(ReconRejectTest, InitiatorIbltCellCountBomb) {
  Rig rig;
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(MessageType::kDiffSketch));
  w.WriteFixed(rig.genesis.hash());
  w.WriteU64(setdiff::SeedForCells(16));
  w.WriteVarint(1);  // set_size
  w.WriteVarint(1);  // estimated_delta
  w.WriteVarint(0);  // empty frontier
  w.WriteVarint(0x0800000000000001ULL);  // cell-count bomb
  for (int i = 0; i < 48; ++i) w.WriteU8(0xAA);
  rig.FeedSetdiffInitiator(w.Take());
  ExpectOnly(rig, "initiator", "count_overflow");
}

TEST(ReconRejectTest, ResponderTruncatedDiffProbe) {
  Rig rig;
  DiffProbe probe;
  probe.genesis = rig.genesis.hash();
  Bytes raw = EncodeMessage(probe);
  raw.resize(20);  // cut mid-genesis: a fixed-field read comes up short
  rig.FeedResponder(raw);
  ExpectOnly(rig, "responder", "truncated");
}

// A protocol-version-1 responder must answer a DiffProbe exactly like
// a pre-setdiff build that never heard of tag 6 — "unknown message
// type" — so a v2 initiator learns to downgrade the peer.
TEST(ReconRejectTest, LegacyResponderRejectsDiffProbeAsUnknown) {
  Rig rig;
  DiffProbe probe;
  probe.genesis = rig.genesis.hash();
  ReconConfig v1;
  v1.protocol_version = 1;
  rig.FeedResponder(EncodeMessage(probe), v1);
  ExpectOnly(rig, "responder", "unknown_type");
}

// ------------------------------------------------------- responder side

TEST(ReconRejectTest, ResponderEmptyMessage) {
  Rig rig;
  rig.FeedResponder(Bytes{});
  ExpectOnly(rig, "responder", "empty");
}

TEST(ReconRejectTest, ResponderUnknownType) {
  Rig rig;
  rig.FeedResponder(Bytes{0xEE});
  ExpectOnly(rig, "responder", "unknown_type");
}

TEST(ReconRejectTest, ResponderUnexpectedType) {
  Rig rig;
  rig.FeedResponder(EncodeMessage(FrontierResponse{}));
  ExpectOnly(rig, "responder", "unexpected_type");
}

TEST(ReconRejectTest, ResponderTruncated) {
  Rig rig;
  Bytes raw = EncodeMessage(FrontierRequest{});
  raw.pop_back();
  rig.FeedResponder(raw);
  ExpectOnly(rig, "responder", "truncated");
}

TEST(ReconRejectTest, ResponderCountOverflow) {
  Rig rig;
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(MessageType::kBlockRequest));
  w.WriteVarint(0x0800000000000001ULL);
  for (int i = 0; i < 40; ++i) w.WriteU8(0xAA);
  rig.FeedResponder(w.Take());
  ExpectOnly(rig, "responder", "count_overflow");
}

TEST(ReconRejectTest, ResponderTrailingBytes) {
  Rig rig;
  Bytes raw = EncodeMessage(PushBlocks{});
  raw.push_back(0x55);
  rig.FeedResponder(raw);
  ExpectOnly(rig, "responder", "trailing");
}

TEST(ReconRejectTest, ResponderNonCanonicalVarint) {
  Rig rig;
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(MessageType::kBlockRequest));
  w.WriteU8(0x80);
  w.WriteU8(0x00);
  rig.FeedResponder(w.Take());
  ExpectOnly(rig, "responder", "noncanonical");
}

// The catch-all bucket is only reachable through statuses no decoder
// currently produces, so drive CountDecodeReject directly.
TEST(ReconRejectTest, OtherBucketCatchesUnmappedStatuses) {
  Rig rig;
  SessionMetrics metrics =
      SessionMetrics::Resolve(rig.node->telemetry(), "initiator");
  metrics.CountDecodeReject(InvalidArgumentError("bad proof magic"));
  ExpectOnly(rig, "initiator", "other");
}

// ------------------------------------------- DecodeRejectName mapping

TEST(ReconRejectTest, DecodeRejectNamePinsEveryVerdict) {
  const auto name = [](const char* message) {
    return DecodeRejectName(InvalidArgumentError(message));
  };
  EXPECT_STREQ(name("empty message"), "empty");
  EXPECT_STREQ(name("unknown message type"), "unknown_type");
  EXPECT_STREQ(name("unexpected message type"), "unexpected_type");
  EXPECT_STREQ(name("unexpected message for initiator"), "unexpected_type");
  EXPECT_STREQ(name("unexpected message for responder"), "unexpected_type");
  EXPECT_STREQ(name("hash count exceeds input"), "count_overflow");
  EXPECT_STREQ(name("block count exceeds input"), "count_overflow");
  EXPECT_STREQ(name("parent count exceeds input"), "count_overflow");
  // The absolute-cap branch of serial::CheckWireCount (a plausible
  // count backed by real padding; see tests/limits_test.cpp).
  EXPECT_STREQ(name("hash count exceeds limit"), "count_overflow");
  EXPECT_STREQ(name("block count exceeds limit"), "count_overflow");
  // Setdiff wire counts (range digest, IBLT cells, diff-hash report).
  EXPECT_STREQ(name("range count exceeds input"), "count_overflow");
  EXPECT_STREQ(name("cell count exceeds input"), "count_overflow");
  EXPECT_STREQ(name("cell count exceeds limit"), "count_overflow");
  EXPECT_STREQ(name("diff hash count exceeds input"), "count_overflow");
  EXPECT_STREQ(name("truncated input"), "truncated");
  EXPECT_STREQ(name("trailing bytes after value"), "trailing");
  EXPECT_STREQ(name("non-minimal varint"), "noncanonical");
  EXPECT_STREQ(name("varint too long"), "noncanonical");
  EXPECT_STREQ(name("varint overflows 64 bits"), "noncanonical");
  EXPECT_STREQ(name("non-canonical bool"), "noncanonical");
  EXPECT_STREQ(name("bad proof magic"), "other");
}

// ------------------------------------------------- registry discipline

// The same invariant the custom linter enforces statically, checked
// dynamically: after a real cluster run every name that landed in a
// registry must be declared in src/telemetry/metric_names.h.
TEST(MetricNamesTest, ClusterRunEmitsOnlyDeclaredNames) {
  sim::ExplicitTopology topo(4);
  topo.MakeClique();
  node::ClusterConfig cfg;
  cfg.node_count = 4;
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(30'000);
  ASSERT_TRUE(cluster.node(1).AddWitnessBlock().ok());
  cluster.RunFor(30'000);
  ASSERT_TRUE(cluster.Converged());

  const std::vector<std::string> undeclared =
      telemetry::metric_names::UndeclaredNames(cluster.AggregateSnapshot());
  EXPECT_TRUE(undeclared.empty());
  for (const std::string& name : undeclared) {
    ADD_FAILURE() << "undeclared metric name: " << name;
  }
}

}  // namespace
}  // namespace vegvisir::recon

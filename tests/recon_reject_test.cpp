// Decode-rejection coverage for src/recon/messages.cpp: every
// early-return verdict class has a test asserting that feeding a
// session the matching malformed input bumps exactly the matching
// recon.<side>.reject.<suffix> counter, plus direct pins of the
// Status-message -> suffix mapping in DecodeRejectName.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chain/genesis.h"
#include "crypto/drbg.h"
#include "node/cluster.h"
#include "node/node.h"
#include "recon/messages.h"
#include "recon/session.h"
#include "setdiff/iblt.h"
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
    out.clear();
    EXPECT_FALSE(session.OnMessage(data, &out).ok());
    EXPECT_EQ(session.state(), SessionState::kFailed);
  }

  void FeedResponder(const Bytes& data) {
    ResponderSession session(node.get(), ReconConfig{});
    std::vector<Bytes> out;
    EXPECT_FALSE(session.OnMessage(data, &out).ok());
  }

  // A responder session past the opening FrontierRequest (which is
  // where genesis is checked), the state setdiff messages arrive in.
  void FeedResponderAfterFrontier(const Bytes& data) {
    ResponderSession session(node.get(), ReconConfig{});
    FrontierRequest open;
    open.genesis = genesis.hash();
    std::vector<Bytes> out;
    ASSERT_TRUE(session.OnMessage(EncodeMessage(open), &out).ok());
    out.clear();
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
  rig.FeedInitiator(EncodeMessage(DiffSketch{}));
  ExpectOnly(rig, "initiator", "unexpected_type");
}

TEST(ReconRejectTest, InitiatorTruncatedDiffSketch) {
  Rig rig;
  Bytes raw = EncodeMessage(DiffSketch{});
  raw.resize(5);  // cut mid-salt: a fixed-field read comes up short
  rig.FeedSetdiffInitiator(raw);
  ExpectOnly(rig, "initiator", "truncated");
}

// Chopping the final symbol leaves a symbol count the remaining
// bytes cannot back — the cheap-bomb verdict, not "truncated".
TEST(ReconRejectTest, InitiatorSketchMissingLastCellIsCountOverflow) {
  Rig rig;
  DiffSketch sketch;
  sketch.symbols.resize(1);
  Bytes raw = EncodeMessage(sketch);
  raw.pop_back();
  rig.FeedSetdiffInitiator(raw);
  ExpectOnly(rig, "initiator", "count_overflow");
}

TEST(ReconRejectTest, InitiatorIbltCellCountBomb) {
  Rig rig;
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(MessageType::kDiffSketch));
  w.WriteU64(0x5a17);  // salt
  w.WriteVarint(1);    // set_size
  w.WriteVarint(0);    // begin
  w.WriteVarint(0x0800000000000001ULL);  // symbol-count bomb
  for (int i = 0; i < 48; ++i) w.WriteU8(0xAA);
  rig.FeedSetdiffInitiator(w.Take());
  ExpectOnly(rig, "initiator", "count_overflow");
}

TEST(ReconRejectTest, ResponderTruncatedDiffProbe) {
  Rig rig;
  Bytes raw = EncodeMessage(DiffProbe{});
  raw.resize(3);  // cut before set_size: its varint read comes up short
  rig.FeedResponderAfterFrontier(raw);
  ExpectOnly(rig, "responder", "truncated");
}

// Genesis is checked once, by the session's opening FrontierRequest;
// a probe arriving before one is out of order, however well formed.
TEST(ReconRejectTest, ResponderRejectsDiffProbeBeforeFrontierRequest) {
  Rig rig;
  rig.FeedResponder(EncodeMessage(DiffProbe{}));
  ExpectOnly(rig, "responder", "unexpected_type");
}

// ------------------------------------------------------- hostile IDs

// Gives `ahead` a history `shared + delta` blocks long, of which
// `behind` holds the first `shared`.
void Diverge(node::Node* behind, node::Node* ahead, int shared, int delta) {
  for (int i = 0; i < shared; ++i) {
    const auto h = ahead->AddWitnessBlock();
    ASSERT_TRUE(h.ok());
    ASSERT_EQ(behind->OfferBlock(*ahead->dag().Find(*h)),
              chain::BlockVerdict::kValid);
  }
  for (int i = 0; i < delta; ++i) ASSERT_TRUE(ahead->AddWitnessBlock().ok());
}

bool SameBlocks(const node::Node& a, const node::Node& b) {
  const auto ha = a.dag().TopologicalOrder();
  const auto hb = b.dag().TopologicalOrder();
  return std::set<chain::BlockHash>(ha.begin(), ha.end()) ==
         std::set<chain::BlockHash>(hb.begin(), hb.end());
}

// A stream forged so that its peel yields an initiator-side ID naming
// none of the initiator's blocks: the initiator must not act on it.
// Every chunk is forged the same way, so the stream peels cleanly into
// the bogus ID; the decode fails once, the session falls back, and the
// level walk still converges the replicas.
TEST(ReconRejectTest, ForgedSketchWithUnresolvableIdFallsBackAndConverges) {
  Rig rig;
  auto ahead = rig.MakeNode();
  Diverge(rig.node.get(), ahead.get(), 12, 6);
  ReconConfig cfg;
  cfg.mode = ReconConfig::Mode::kSetDiff;
  InitiatorSession initiator(rig.node.get(), cfg);
  ResponderSession responder(ahead.get(), cfg);
  int forged = 0;
  std::vector<Bytes> to_responder = {initiator.Start()};
  while (!to_responder.empty()) {
    std::vector<Bytes> replies;
    for (const Bytes& m : to_responder) {
      ASSERT_TRUE(responder.OnMessage(m, &replies).ok());
    }
    to_responder.clear();
    for (Bytes& r : replies) {
      if (*PeekType(r) == MessageType::kDiffSketch) {
        DiffSketch sketch;
        ASSERT_TRUE(DecodeMessage(r, &sketch).ok());
        // The peer claims to lack a key it never had: after the
        // initiator subtracts, that key peels on the initiator's side.
        const std::vector<setdiff::CodedSymbol> bogus =
            setdiff::EncodeSymbols({0xF0F0F0F0F0F0F0F0ULL}, sketch.begin,
                                   sketch.symbols.size());
        for (std::size_t i = 0; i < bogus.size(); ++i) {
          sketch.symbols[i].count -= bogus[i].count;
          sketch.symbols[i].key_sum ^= bogus[i].key_sum;
          sketch.symbols[i].check_sum ^= bogus[i].check_sum;
        }
        r = EncodeMessage(sketch);
        ++forged;
      }
      ASSERT_TRUE(initiator.OnMessage(r, &to_responder).ok());
    }
  }
  EXPECT_EQ(initiator.state(), SessionState::kDone);
  EXPECT_TRUE(SameBlocks(*rig.node, *ahead));
  EXPECT_GE(forged, 1);
  const auto& metrics = rig.node->telemetry()->metrics;
  EXPECT_EQ(metrics.CounterValue("setdiff.decode_success"), 0u);
  EXPECT_EQ(metrics.CounterValue("setdiff.decode_failure"), 1u);
  EXPECT_EQ(metrics.CounterValue("setdiff.fallbacks"), 1u);
}

// A body nobody asked for (wire corruption rewrote a user ID, or a
// hostile peer) never reaches the host: parked, it would sit in
// quarantine for the full TTL, since its creator may simply be unknown
// yet. Here the peer advertises one block and answers with another.
TEST(ReconRejectTest, UnsolicitedBodyIsDroppedNotParked) {
  Rig rig;
  auto ahead = rig.MakeNode();
  const auto first = ahead->AddWitnessBlock();
  const auto second = ahead->AddWitnessBlock();
  ASSERT_TRUE(first.ok() && second.ok());
  ReconConfig cfg;
  cfg.mode = ReconConfig::Mode::kSetDiff;
  InitiatorSession session(rig.node.get(), cfg);
  (void)session.Start();
  FrontierResponse level1;
  level1.genesis = rig.genesis.hash();
  level1.hashes = {*second};
  std::vector<Bytes> out;
  ASSERT_TRUE(session.OnMessage(EncodeMessage(level1), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(*PeekType(out[0]), MessageType::kBlockRequest);
  BlockResponse resp;
  resp.blocks = {ahead->dag().Find(*first)->Serialize()};
  out.clear();
  ASSERT_TRUE(session.OnMessage(EncodeMessage(resp), &out).ok());
  EXPECT_EQ(session.stats().blocks_received, 1u);
  EXPECT_FALSE(rig.node->HasBlock(*first));
  EXPECT_EQ(rig.node->QuarantineSize(), 0u);
}

// The responder resolves a DiffResult's `want` under the salt of the
// stream it sent. IDs naming none of its blocks are skipped and
// counted; the reply carries exactly the resolvable bodies.
TEST(ReconRejectTest, WantWithUnknownIdsGetsOnlyResolvableBodies) {
  Rig rig;
  std::vector<chain::BlockHash> held;
  for (int i = 0; i < 3; ++i) {
    const auto h = rig.node->AddWitnessBlock();
    ASSERT_TRUE(h.ok());
    held.push_back(*h);
  }
  ResponderSession session(rig.node.get(), ReconConfig{});
  std::vector<Bytes> out;
  DiffResult early;
  early.want = {1};
  // No stream sent yet, so there is no salt to resolve under.
  EXPECT_FALSE(session.OnMessage(EncodeMessage(early), &out).ok());
  EXPECT_EQ(rig.Reject("responder", "unexpected_type"), 1u);

  FrontierRequest open;
  open.genesis = rig.genesis.hash();
  ASSERT_TRUE(session.OnMessage(EncodeMessage(open), &out).ok());
  out.clear();
  ASSERT_TRUE(session.OnMessage(EncodeMessage(DiffProbe{}), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  DiffSketch sketch;
  ASSERT_TRUE(DecodeMessage(out[0], &sketch).ok());
  out.clear();

  DiffResult result;
  result.want = {setdiff::ShortId(held[0], sketch.seed), 0xDEADBEEF,
                 setdiff::ShortId(held[2], sketch.seed), 0xFEEDFACE};
  ASSERT_TRUE(session.OnMessage(EncodeMessage(result), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  BlockResponse resp;
  ASSERT_TRUE(DecodeMessage(out[0], &resp).ok());
  std::set<chain::BlockHash> got;
  for (const Bytes& raw : resp.blocks) {
    auto block = chain::Block::Deserialize(raw);
    ASSERT_TRUE(block.ok());
    got.insert(block->hash());
  }
  EXPECT_EQ(got, (std::set<chain::BlockHash>{held[0], held[2]}));
  EXPECT_EQ(rig.node->telemetry()->metrics.CounterValue(
                "setdiff.want_unresolved"),
            2u);

  // An empty `want`, which initiators never send, gets no reply at
  // all.
  out.clear();
  ASSERT_TRUE(session.OnMessage(EncodeMessage(DiffResult{}), &out).ok());
  EXPECT_TRUE(out.empty());
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
  // Setdiff wire counts (stream symbols, DiffResult IDs).
  EXPECT_STREQ(name("symbol count exceeds input"), "count_overflow");
  EXPECT_STREQ(name("symbol count exceeds limit"), "count_overflow");
  EXPECT_STREQ(name("diff id count exceeds input"), "count_overflow");
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

// recon.bytes.<message> attributes every byte a session sends to its
// message type, so over a cluster run the eight counters add up to
// the two sides' bytes_sent exactly.
TEST(MetricNamesTest, PerMessageBytesSumToSessionBytes) {
  sim::ExplicitTopology topo(4);
  topo.MakeClique();
  node::ClusterConfig cfg;
  cfg.node_count = 4;
  cfg.node_template.recon.mode = ReconConfig::Mode::kSetDiff;
  cfg.node_template.recon.push_back = true;
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(30'000);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.node(1 + i % 3).AddWitnessBlock().ok());
  }
  cluster.RunFor(60'000);
  ASSERT_TRUE(cluster.Converged());

  const telemetry::Snapshot snap = cluster.AggregateSnapshot();
  const std::uint64_t sent = snap.counters.at("recon.initiator.bytes_sent") +
                             snap.counters.at("recon.responder.bytes_sent");
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(snap.CounterSumByPrefix("recon.bytes."), sent);
  EXPECT_GT(snap.counters.at("recon.bytes.frontier_request"), 0u);
  EXPECT_GT(snap.counters.at("recon.bytes.frontier_response"), 0u);
}

}  // namespace
}  // namespace vegvisir::recon

// Reconciliation v2 (DESIGN.md §16): the IBLT codec, the range-digest
// delta estimator, the three negotiation messages, and the kSetDiff
// session ladder end to end — including the decode-failure escalation
// and the level-escalation fallback, which must reconverge exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chain/genesis.h"
#include "crypto/drbg.h"
#include "node/node.h"
#include "recon/messages.h"
#include "recon/session.h"
#include "serial/codec.h"
#include "serial/limits.h"
#include "setdiff/digest.h"
#include "setdiff/iblt.h"
#include "util/rng.h"

namespace vegvisir::setdiff {
namespace {

using chain::BlockHash;

// Fixed table seeds for the codec tests; sessions derive theirs per
// sketch (the session salt).
constexpr std::uint64_t kSeed16 = 0x5eed0016;

BlockHash HashFromRng(Rng* rng) {
  BlockHash h;
  for (std::size_t i = 0; i < h.size(); i += 8) {
    const std::uint64_t v = rng->NextU64();
    for (std::size_t j = 0; j < 8; ++j) {
      h[i + j] = static_cast<std::uint8_t>(v >> (8 * j));
    }
  }
  return h;
}

// ------------------------------------------------------------- IBLT

TEST(IbltTest, InsertEraseCancelsToZero) {
  Rng rng(1);
  Iblt t(32, kSeed16);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 10; ++i) keys.push_back(rng.NextU64());
  for (const auto& k : keys) t.Insert(k);
  for (const auto& k : keys) t.Erase(k);
  for (const auto& cell : t.cells()) EXPECT_TRUE(cell.IsZero());
}

TEST(IbltTest, SubtractRequiresMatchingGeometry) {
  Iblt a(16, 1);
  Iblt wrong_cells(32, 1);
  Iblt wrong_seed(16, 2);
  EXPECT_FALSE(a.Subtract(wrong_cells).ok());
  EXPECT_FALSE(a.Subtract(wrong_seed).ok());
  Iblt ok(16, 1);
  EXPECT_TRUE(a.Subtract(ok).ok());
}

// The core property: random symmetric differences within the sizing
// margin peel back exactly — every differing key on the correct side,
// both outputs sorted, nothing invented.
TEST(IbltTest, RandomSymmetricDifferencesDecodeExactly) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t shared = rng.NextBelow(200);
    const std::size_t a_only_n = rng.NextBelow(20);
    const std::size_t b_only_n = rng.NextBelow(20);
    const std::size_t cells =
        CellsForDelta(a_only_n + b_only_n, serial::limits::kMaxIbltCells);
    const std::uint64_t seed = rng.NextU64();

    Iblt a(cells, seed);
    Iblt b(cells, seed);
    std::vector<std::uint64_t> a_only, b_only;
    for (std::size_t i = 0; i < shared; ++i) {
      const std::uint64_t k = rng.NextU64();
      a.Insert(k);
      b.Insert(k);
    }
    for (std::size_t i = 0; i < a_only_n; ++i) {
      a_only.push_back(rng.NextU64());
      a.Insert(a_only.back());
    }
    for (std::size_t i = 0; i < b_only_n; ++i) {
      b_only.push_back(rng.NextU64());
      b.Insert(b_only.back());
    }

    // Mirror the session ladder: peel at the estimated size, and on
    // the (rare, legitimate) failure retry once at the escalated
    // size under a fresh seed, which must always succeed for
    // in-margin deltas.
    std::vector<std::uint64_t> plus, minus;
    Iblt diff = a;
    ASSERT_TRUE(diff.Subtract(b).ok());
    if (!diff.Peel(&plus, &minus)) {
      const std::size_t big =
          EscalatedCells(cells, serial::limits::kMaxIbltCells);
      const std::uint64_t big_seed = rng.NextU64();
      // Rebuild at the escalated geometry. Shared keys cancel under
      // subtraction, so inserting only the difference is equivalent.
      Iblt a2(big, big_seed), b2(big, big_seed);
      for (const auto& k : a_only) a2.Insert(k);
      for (const auto& k : b_only) b2.Insert(k);
      ASSERT_TRUE(a2.Subtract(b2).ok());
      ASSERT_TRUE(a2.Peel(&plus, &minus))
          << "trial " << trial << ": delta " << (a_only_n + b_only_n)
          << " failed to peel even at " << big << " cells";
    }
    std::sort(a_only.begin(), a_only.end());
    std::sort(b_only.begin(), b_only.end());
    EXPECT_EQ(plus, a_only) << "trial " << trial;
    EXPECT_EQ(minus, b_only) << "trial " << trial;
    EXPECT_TRUE(std::is_sorted(plus.begin(), plus.end()));
    EXPECT_TRUE(std::is_sorted(minus.begin(), minus.end()));
  }
}

// Oversized deltas must fail loudly — Peel returns false with empty
// outputs — never silently return a subset.
TEST(IbltTest, OversizedDeltaFailsLoudly) {
  Rng rng(7);
  const std::size_t cells = 16;
  Iblt a(cells, kSeed16);
  Iblt b(cells, kSeed16);
  // 64 differing keys cannot fit a 16-cell table (threshold ~cells/1.3).
  for (int i = 0; i < 64; ++i) a.Insert(rng.NextU64());
  ASSERT_TRUE(a.Subtract(b).ok());
  std::vector<std::uint64_t> plus, minus;
  EXPECT_FALSE(a.Peel(&plus, &minus));
  EXPECT_TRUE(plus.empty());
  EXPECT_TRUE(minus.empty());
}

TEST(IbltTest, EncodeDecodeRoundTripsByteExactly) {
  Rng rng(9);
  Iblt t(24, kSeed16);
  for (int i = 0; i < 12; ++i) t.Insert(rng.NextU64());
  serial::Writer w;
  t.Encode(&w);
  const Bytes raw = w.Take();
  serial::Reader r(raw);
  auto back = Iblt::Decode(&r, t.seed());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->cell_count(), t.cell_count());
  EXPECT_TRUE(back->cells() == t.cells());
  serial::Writer w2;
  back->Encode(&w2);
  EXPECT_EQ(w2.Take(), raw);
}

TEST(IbltTest, SizingPolicy) {
  // 2x margin with a floor of 16, clamped to the cap.
  EXPECT_EQ(CellsForDelta(0, 1u << 16), 16u);
  EXPECT_EQ(CellsForDelta(4, 1u << 16), 16u);
  EXPECT_EQ(CellsForDelta(100, 1u << 16), 208u);
  EXPECT_EQ(CellsForDelta(1u << 20, 1u << 16), std::size_t{1} << 16);
  EXPECT_EQ(EscalatedCells(16, 1u << 16), 64u);
  EXPECT_EQ(EscalatedCells(100, 128), 128u);
  // A new salt (every escalation brings one) re-keys every ID.
  Rng rng(3);
  const BlockHash h = HashFromRng(&rng);
  EXPECT_NE(ShortId(h, 16), ShortId(h, 64));
}

// ShortId reads all four 8-byte lanes of the hash: hashes that agree
// on every lane but one still get distinct IDs, whichever lane it is.
TEST(IbltTest, ShortIdMixesEveryLane) {
  Rng rng(5);
  const BlockHash h = HashFromRng(&rng);
  const std::uint64_t salt = rng.NextU64();
  for (std::size_t lane = 0; lane < 4; ++lane) {
    for (std::size_t byte = 0; byte < 8; ++byte) {
      BlockHash flipped = h;
      flipped[lane * 8 + byte] ^= 0x01;
      EXPECT_NE(ShortId(flipped, salt), ShortId(h, salt))
          << "lane " << lane << " byte " << byte;
    }
  }
  EXPECT_EQ(ShortId(h, salt), ShortId(h, salt));
}

// A forged table in which two cells hand one key back and forth must
// fail the peel, not loop: a key at +1 in one of its cells and absent
// from the other two peels into -1 in those two, which peel it back.
TEST(IbltTest, ForgedPingPongTableFailsInsteadOfLooping) {
  const std::uint64_t key = 0x1234;
  // Find the key's cells by inserting it into an empty table.
  Iblt probe(16, kSeed16);
  probe.Insert(key);
  std::size_t first = 0;
  while (probe.cells()[first].IsZero()) ++first;
  serial::Writer w;
  w.WriteVarint(16);
  for (std::size_t i = 0; i < 16; ++i) {
    const IbltCell& c = probe.cells()[i];
    const bool keep = i == first;
    w.WriteI64(keep ? c.count : 0);
    w.WriteU64(keep ? c.key_sum : 0);
    w.WriteU64(keep ? c.check_sum : 0);
  }
  const Bytes raw = w.Take();
  serial::Reader r(raw);
  auto forged = Iblt::Decode(&r, kSeed16);
  ASSERT_TRUE(forged.ok());
  std::vector<std::uint64_t> plus, minus;
  EXPECT_FALSE(forged->Peel(&plus, &minus));
  EXPECT_TRUE(plus.empty());
  EXPECT_TRUE(minus.empty());
}

// Partitioned subtables: a key's three cells are always distinct
// (each position draws from its own third of the table). Without
// this, a key self-colliding on all three positions leaves a count-3
// cell no table size can peel. Pinned via the public surface: a
// single-key difference must peel at every table size.
TEST(IbltTest, SingleKeyAlwaysPeelsAtAnySize) {
  Rng rng(31);
  for (const std::size_t cells : {3u, 4u, 5u, 7u, 16u, 33u, 100u}) {
    for (int trial = 0; trial < 200; ++trial) {
      Iblt a(cells, kSeed16 + cells * 1000 + trial);
      const std::uint64_t h = rng.NextU64();
      a.Insert(h);
      Iblt b(cells, a.seed());
      ASSERT_TRUE(a.Subtract(b).ok());
      std::vector<std::uint64_t> plus, minus;
      ASSERT_TRUE(a.Peel(&plus, &minus))
          << cells << " cells, trial " << trial;
      ASSERT_EQ(plus.size(), 1u);
      EXPECT_EQ(plus[0], h);
      EXPECT_TRUE(minus.empty());
    }
  }
}

// ----------------------------------------------------- range digest

TEST(RangeDigestTest, IdenticalSetsEstimateZero) {
  Rng rng(11);
  RangeDigest a, b;
  for (int i = 0; i < 100; ++i) {
    const BlockHash h = HashFromRng(&rng);
    a.Insert(h);
    b.Insert(h);
  }
  auto est = RangeDigest::EstimateDelta(a, b);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(*est, 0u);
}

// The nested shape reconciliation actually sees (one side strictly
// ahead): per-range count mismatches sum to the exact delta.
TEST(RangeDigestTest, NestedSetsEstimateExactDelta) {
  Rng rng(13);
  RangeDigest behind, ahead;
  for (int i = 0; i < 128; ++i) {
    const BlockHash h = HashFromRng(&rng);
    behind.Insert(h);
    ahead.Insert(h);
  }
  for (int i = 0; i < 37; ++i) ahead.Insert(HashFromRng(&rng));
  auto est = RangeDigest::EstimateDelta(behind, ahead);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(*est, 37u);
}

TEST(RangeDigestTest, EqualCountsWithDifferentFoldsCountAsSwap) {
  // Force two different keys into the same range (same leading byte):
  // counts match, folds differ, so the estimate must report >= 2.
  // Same leading byte (same range), different bytes inside the fold
  // lane (bytes 8-15), so the folds must disagree.
  BlockHash x{}, y{};
  x.fill(0x00);
  y.fill(0x00);
  x[9] = 1;
  y[9] = 2;
  RangeDigest a, b;
  a.Insert(x);
  b.Insert(y);
  auto est = RangeDigest::EstimateDelta(a, b);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(*est, 2u);
}

TEST(RangeDigestTest, ShapeMismatchIsLoud) {
  // A digest with a non-standard range count can only arrive over the
  // wire (protocol evolution); estimating against it must error, not
  // fabricate a delta.
  serial::Writer w;
  w.WriteVarint(32);
  for (int i = 0; i < 32; ++i) {
    w.WriteVarint(0);
    w.WriteU64(0);
  }
  const Bytes raw = w.Take();
  serial::Reader r(raw);
  auto narrow = RangeDigest::Decode(&r);
  ASSERT_TRUE(narrow.ok());
  EXPECT_FALSE(RangeDigest::EstimateDelta(RangeDigest{}, *narrow).ok());
}

TEST(RangeDigestTest, EncodeDecodeRoundTripsByteExactly) {
  Rng rng(17);
  RangeDigest d;
  for (int i = 0; i < 40; ++i) d.Insert(HashFromRng(&rng));
  serial::Writer w;
  d.Encode(&w);
  const Bytes raw = w.Take();
  serial::Reader r(raw);
  auto back = RangeDigest::Decode(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == d);
  serial::Writer w2;
  back->Encode(&w2);
  EXPECT_EQ(w2.Take(), raw);
}

// ------------------------------------------------- wire messages

TEST(DiffMessagesTest, ProbeRoundTripsByteExactly) {
  Rng rng(19);
  recon::DiffProbe probe;
  probe.requested_cells = 256;
  for (int i = 0; i < 25; ++i) probe.digest.Insert(HashFromRng(&rng));
  const Bytes raw = recon::EncodeMessage(probe);
  ASSERT_EQ(*recon::PeekType(raw), recon::MessageType::kDiffProbe);
  recon::DiffProbe out;
  ASSERT_TRUE(recon::DecodeMessage(raw, &out).ok());
  EXPECT_EQ(out.requested_cells, 256u);
  EXPECT_TRUE(out.digest == probe.digest);
  EXPECT_EQ(recon::EncodeMessage(out), raw);
}

TEST(DiffMessagesTest, SketchRoundTripsByteExactly) {
  Rng rng(23);
  recon::DiffSketch sketch;
  sketch.seed = rng.NextU64();
  sketch.set_size = 9;
  sketch.estimated_delta = 3;
  sketch.sketch = Iblt(48, sketch.seed);
  for (int i = 0; i < 9; ++i) {
    sketch.sketch.Insert(ShortId(HashFromRng(&rng), sketch.seed));
  }
  const Bytes raw = recon::EncodeMessage(sketch);
  ASSERT_EQ(*recon::PeekType(raw), recon::MessageType::kDiffSketch);
  recon::DiffSketch out;
  ASSERT_TRUE(recon::DecodeMessage(raw, &out).ok());
  EXPECT_EQ(out.seed, sketch.seed);
  EXPECT_EQ(out.set_size, 9u);
  EXPECT_EQ(out.estimated_delta, 3u);
  EXPECT_TRUE(out.sketch.cells() == sketch.sketch.cells());
  EXPECT_EQ(recon::EncodeMessage(out), raw);
}

// The short-ID wire pin: with every cell count fitting one varint
// byte, an n-cell sketch costs 17 bytes per cell plus a small fixed
// header (type, salt, set size, estimate, cell count).
TEST(DiffMessagesTest, SketchCostsSeventeenBytesPerCell) {
  Rng rng(37);
  for (const std::size_t cells : {16u, 64u, 1000u, 16384u}) {
    recon::DiffSketch sketch;
    sketch.seed = rng.NextU64();
    sketch.set_size = 1u << 20;
    sketch.estimated_delta = cells / 2;
    sketch.sketch = Iblt(cells, sketch.seed);
    for (std::size_t i = 0; i < cells / 2; ++i) {
      sketch.sketch.Insert(rng.NextU64());
    }
    for (const IbltCell& c : sketch.sketch.cells()) {
      ASSERT_LT(c.count, 64);  // one zigzag varint byte
    }
    EXPECT_LE(recon::EncodeMessage(sketch).size(), 17 * cells + 32)
        << cells << " cells";
  }
}

TEST(DiffMessagesTest, ResultRoundTripsByteExactly) {
  Rng rng(29);
  recon::DiffResult result;
  result.decoded = true;
  result.peer_missing = {rng.NextU64(), rng.NextU64(), rng.NextU64()};
  result.want = {rng.NextU64(), rng.NextU64()};
  const Bytes raw = recon::EncodeMessage(result);
  ASSERT_EQ(*recon::PeekType(raw), recon::MessageType::kDiffResult);
  recon::DiffResult out;
  ASSERT_TRUE(recon::DecodeMessage(raw, &out).ok());
  EXPECT_TRUE(out.decoded);
  EXPECT_EQ(out.peer_missing, result.peer_missing);
  EXPECT_EQ(out.want, result.want);
  EXPECT_EQ(recon::EncodeMessage(out), raw);
}

// --------------------------------------------------- session ladder

crypto::KeyPair TestKeys(std::uint64_t seed) {
  crypto::Drbg drbg(seed);
  return crypto::KeyPair::Generate(drbg);
}

struct Rig {
  crypto::KeyPair owner_keys = TestKeys(1);
  chain::Block genesis = chain::GenesisBuilder("setdiff-chain")
                             .WithTimestamp(100)
                             .Build("owner", owner_keys);

  std::unique_ptr<node::Node> MakeNode() {
    node::NodeConfig cfg;
    cfg.user_id = "owner";
    auto n = std::make_unique<node::Node>(cfg, genesis, owner_keys);
    n->SetTime(1'000'000);
    return n;
  }

  // Gives `ahead` a history `shared + delta` blocks long, of which
  // `behind` holds the first `shared`.
  void Diverge(node::Node* behind, node::Node* ahead, int shared,
               int delta) {
    for (int i = 0; i < shared; ++i) {
      const auto h = ahead->AddWitnessBlock();
      ASSERT_TRUE(h.ok());
      ASSERT_EQ(behind->OfferBlock(*ahead->dag().Find(*h)),
                chain::BlockVerdict::kValid);
    }
    for (int i = 0; i < delta; ++i) {
      ASSERT_TRUE(ahead->AddWitnessBlock().ok());
    }
  }
};

bool SameBlocks(const node::Node& a, const node::Node& b) {
  const auto ha = a.dag().TopologicalOrder();
  const auto hb = b.dag().TopologicalOrder();
  return std::set<BlockHash>(ha.begin(), ha.end()) ==
         std::set<BlockHash>(hb.begin(), hb.end());
}

TEST(SetdiffSessionTest, DeepHistorySmallDeltaConverges) {
  Rig rig;
  auto behind = rig.MakeNode();
  auto ahead = rig.MakeNode();
  rig.Diverge(behind.get(), ahead.get(), 300, 5);
  recon::ReconConfig cfg;
  cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  recon::SessionStats stats;
  ASSERT_EQ(recon::RunLocalSession(behind.get(), ahead.get(), cfg, &stats),
            recon::SessionState::kDone);
  EXPECT_TRUE(SameBlocks(*behind, *ahead));
  EXPECT_EQ(stats.blocks_received, 5u);
  EXPECT_EQ(
      behind->telemetry()->metrics.CounterValue("setdiff.decode_success"), 1u);
}

TEST(SetdiffSessionTest, IdenticalReplicasFinishOnEmptySketch) {
  Rig rig;
  auto a = rig.MakeNode();
  auto b = rig.MakeNode();
  rig.Diverge(a.get(), b.get(), 20, 0);
  recon::ReconConfig cfg;
  cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  recon::SessionStats stats;
  ASSERT_EQ(recon::RunLocalSession(a.get(), b.get(), cfg, &stats),
            recon::SessionState::kDone);
  EXPECT_EQ(stats.blocks_received, 0u);
}

// The acceptance-shaped property: bytes scale with the delta, not the
// shared history. The same 8-block delta over a 16x deeper history
// must cost (nearly) the same bytes.
TEST(SetdiffSessionTest, BytesTrackDeltaNotDepth) {
  Rig rig;
  std::uint64_t bytes_at[2] = {0, 0};
  const int depths[2] = {32, 512};
  for (int i = 0; i < 2; ++i) {
    auto behind = rig.MakeNode();
    auto ahead = rig.MakeNode();
    rig.Diverge(behind.get(), ahead.get(), depths[i], 8);
    recon::ReconConfig cfg;
    cfg.mode = recon::ReconConfig::Mode::kSetDiff;
    recon::SessionStats stats;
    ASSERT_EQ(recon::RunLocalSession(behind.get(), ahead.get(), cfg, &stats),
              recon::SessionState::kDone);
    ASSERT_TRUE(SameBlocks(*behind, *ahead));
    bytes_at[i] = stats.bytes_received;
  }
  // Identical negotiation geometry at both depths: the probe, sketch
  // and bodies are delta-sized, so depth adds nothing but hash noise.
  EXPECT_LT(bytes_at[1], bytes_at[0] + bytes_at[0] / 2)
      << "bytes grew with depth: " << bytes_at[0] << " -> " << bytes_at[1];
}

// Force a peel failure (cell ceiling far below the delta) and check
// the declared ladder: one escalation, then fallback to level
// escalation, and the replicas still reconverge exactly.
TEST(SetdiffSessionTest, DecodeFailureFallsBackAndReconverges) {
  Rig rig;
  auto behind = rig.MakeNode();
  auto ahead = rig.MakeNode();
  rig.Diverge(behind.get(), ahead.get(), 16, 80);
  recon::ReconConfig cfg;
  cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  cfg.max_iblt_cells = 16;  // 80 differing keys cannot peel
  recon::SessionStats stats;
  ASSERT_EQ(recon::RunLocalSession(behind.get(), ahead.get(), cfg, &stats),
            recon::SessionState::kDone);
  EXPECT_TRUE(SameBlocks(*behind, *ahead));
  const auto& metrics = behind->telemetry()->metrics;
  EXPECT_GE(metrics.CounterValue("setdiff.decode_failure"), 1u);
  EXPECT_EQ(metrics.CounterValue("setdiff.escalations"), 1u);
  EXPECT_EQ(metrics.CounterValue("setdiff.fallbacks"), 1u);
}

// Runs one session over a lossless in-process wire, like
// RunLocalSession, and returns every responder reply in order.
std::vector<Bytes> RunRecordingReplies(node::Node* initiator_host,
                                       node::Node* responder_host,
                                       const recon::ReconConfig& cfg,
                                       recon::SessionState* final_state) {
  recon::InitiatorSession initiator(initiator_host, cfg);
  recon::ResponderSession responder(responder_host, cfg);
  std::vector<Bytes> replies_seen;
  std::vector<Bytes> to_responder = {initiator.Start()};
  while (!to_responder.empty()) {
    std::vector<Bytes> replies;
    for (const Bytes& m : to_responder) {
      if (!responder.OnMessage(m, &replies).ok()) break;
    }
    to_responder.clear();
    for (const Bytes& r : replies) {
      replies_seen.push_back(r);
      if (!initiator.OnMessage(r, &to_responder).ok()) break;
    }
  }
  *final_state = initiator.state();
  return replies_seen;
}

// Every sketch carries its own salt: the escalation retry must not
// rebuild the table that just failed, even when the cell ceiling
// keeps the cell count the same.
TEST(SetdiffSessionTest, EscalatedSketchHasAFreshSalt) {
  Rig rig;
  auto behind = rig.MakeNode();
  auto ahead = rig.MakeNode();
  rig.Diverge(behind.get(), ahead.get(), 16, 80);
  recon::ReconConfig cfg;
  cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  cfg.max_iblt_cells = 16;  // both sketches get 16 cells
  recon::SessionState state;
  std::vector<std::uint64_t> salts;
  for (const Bytes& reply :
       RunRecordingReplies(behind.get(), ahead.get(), cfg, &state)) {
    if (*recon::PeekType(reply) != recon::MessageType::kDiffSketch) continue;
    recon::DiffSketch sketch;
    ASSERT_TRUE(recon::DecodeMessage(reply, &sketch).ok());
    EXPECT_EQ(sketch.sketch.cell_count(), 16u);
    salts.push_back(sketch.seed);
  }
  EXPECT_EQ(state, recon::SessionState::kDone);
  ASSERT_EQ(salts.size(), 2u);
  EXPECT_NE(salts[0], salts[1]);
}

// The post-peel fetch rides in the DiffResult: a decoded sketch is
// answered by exactly one BlockResponse and no BlockRequest is sent.
TEST(SetdiffSessionTest, DecodedResultCarriesTheFetch) {
  Rig rig;
  auto behind = rig.MakeNode();
  auto ahead = rig.MakeNode();
  rig.Diverge(behind.get(), ahead.get(), 40, 6);
  recon::ReconConfig cfg;
  cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  recon::SessionState state;
  const std::vector<Bytes> replies =
      RunRecordingReplies(behind.get(), ahead.get(), cfg, &state);
  EXPECT_EQ(state, recon::SessionState::kDone);
  EXPECT_TRUE(SameBlocks(*behind, *ahead));
  // Level 1 (hashes, then the tip's body), the sketch, then the
  // bodies the DiffResult asked for.
  std::vector<recon::MessageType> types;
  for (const Bytes& r : replies) types.push_back(*recon::PeekType(r));
  EXPECT_EQ(types, (std::vector<recon::MessageType>{
                       recon::MessageType::kFrontierResponse,
                       recon::MessageType::kBlockResponse,
                       recon::MessageType::kDiffSketch,
                       recon::MessageType::kBlockResponse}));
  const auto& metrics = behind->telemetry()->metrics;
  EXPECT_EQ(metrics.CounterValue("recon.bytes.block_request"),
            recon::EncodeMessage(recon::BlockRequest{{BlockHash{}}}).size());
  EXPECT_EQ(metrics.CounterValue("setdiff.decode_success"), 1u);
}

// The responder answers a DiffResult from the set it sketched. Blocks
// its DAG gains between the sketch and the result are never served,
// even when the result's `want` names them, and the sketched bodies
// come parents first, in the responder's slot order.
TEST(SetdiffSessionTest, ResponderServesOnlyWhatItSketched) {
  Rig rig;
  auto behind = rig.MakeNode();
  auto ahead = rig.MakeNode();
  rig.Diverge(behind.get(), ahead.get(), 20, 6);
  recon::ReconConfig cfg;
  cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  recon::InitiatorSession initiator(behind.get(), cfg);
  recon::ResponderSession responder(ahead.get(), cfg);

  // Level 1, then the probe, until the responder sends its sketch.
  std::vector<Bytes> to_responder = {initiator.Start()};
  std::vector<Bytes> replies;
  for (;;) {
    ASSERT_EQ(to_responder.size(), 1u);
    replies.clear();
    ASSERT_TRUE(responder.OnMessage(to_responder[0], &replies).ok());
    ASSERT_EQ(replies.size(), 1u);
    if (*recon::PeekType(replies[0]) == recon::MessageType::kDiffSketch) break;
    to_responder.clear();
    ASSERT_TRUE(initiator.OnMessage(replies[0], &to_responder).ok());
  }
  recon::DiffSketch sketch;
  ASSERT_TRUE(recon::DecodeMessage(replies[0], &sketch).ok());
  const std::vector<BlockHash> sketched_order = ahead->dag().Hashes();

  // The responder's DAG grows before the result arrives.
  std::vector<BlockHash> later;
  for (int i = 0; i < 3; ++i) {
    const auto h = ahead->AddWitnessBlock();
    ASSERT_TRUE(h.ok());
    later.push_back(*h);
  }

  to_responder.clear();
  ASSERT_TRUE(initiator.OnMessage(replies[0], &to_responder).ok());
  ASSERT_EQ(to_responder.size(), 1u);
  recon::DiffResult result;
  ASSERT_TRUE(recon::DecodeMessage(to_responder[0], &result).ok());
  ASSERT_TRUE(result.decoded);
  const std::set<std::uint64_t> wanted(result.want.begin(), result.want.end());
  std::vector<BlockHash> expected;
  for (const BlockHash& h : sketched_order) {
    if (wanted.count(ShortId(h, sketch.seed)) > 0) expected.push_back(h);
  }
  // The six-block delta minus the tip, fetched at level 1.
  ASSERT_EQ(expected.size(), 5u);
  ASSERT_EQ(result.want.size(), expected.size());
  // Name the later blocks too: they were never sketched.
  for (const BlockHash& h : later) {
    result.want.push_back(ShortId(h, sketch.seed));
  }

  std::vector<Bytes> out;
  ASSERT_TRUE(responder.OnMessage(recon::EncodeMessage(result), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  recon::BlockResponse resp;
  ASSERT_TRUE(recon::DecodeMessage(out[0], &resp).ok());
  std::vector<BlockHash> served;
  for (const Bytes& raw : resp.blocks) {
    const auto block = chain::Block::Deserialize(raw);
    ASSERT_TRUE(block.ok());
    served.push_back(block->hash());
  }
  EXPECT_EQ(served, expected);
  EXPECT_EQ(
      ahead->telemetry()->metrics.CounterValue("setdiff.want_unresolved"),
      later.size());
}

// The gossip engine resumes a failed catch-up at the level it reached,
// so the opening frontier round may already be deeper than level 1.
// A failed negotiation must then walk on from below that level, not
// re-request it: the repeat would look saturated (no new hashes) and
// end the session with the gap still open.
TEST(SetdiffSessionTest, FallbackAfterResumedLevelWalksDeeper) {
  Rig rig;
  auto behind = rig.MakeNode();
  auto ahead = rig.MakeNode();
  rig.Diverge(behind.get(), ahead.get(), 16, 80);
  recon::ReconConfig cfg;
  cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  cfg.max_iblt_cells = 16;  // 80 differing keys cannot peel
  cfg.start_level = 3;
  ASSERT_EQ(recon::RunLocalSession(behind.get(), ahead.get(), cfg, nullptr),
            recon::SessionState::kDone);
  EXPECT_TRUE(SameBlocks(*behind, *ahead));
  EXPECT_EQ(behind->telemetry()->metrics.CounterValue("setdiff.fallbacks"),
            1u);
}

// A mutual-divergence shape: each side holds blocks the other lacks.
// The initiator pulls what it is missing, and with push_back on it
// also ships the responder the blocks the peel proved it lacks.
TEST(SetdiffSessionTest, MutualDivergenceWithPushBack) {
  Rig rig;
  auto a = rig.MakeNode();
  auto b = rig.MakeNode();
  rig.Diverge(a.get(), b.get(), 30, 6);
  // Distinct clock so a's fork blocks do not deterministically mint
  // the same hashes as b's (same keys + same timestamps would); b's
  // clock advances too so the pushed blocks clear its skew check.
  a->SetTime(2'000'000);
  b->SetTime(2'000'000);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(a->AddWitnessBlock().ok());
  recon::ReconConfig cfg;
  cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  cfg.push_back = true;
  recon::SessionStats stats;
  ASSERT_EQ(recon::RunLocalSession(a.get(), b.get(), cfg, &stats),
            recon::SessionState::kDone);
  EXPECT_TRUE(SameBlocks(*a, *b));
  EXPECT_EQ(stats.blocks_received, 6u);
  EXPECT_EQ(stats.blocks_pushed, 4u);
}

// A joiner catches up an eight-wide backlog. The DiffResult fetch
// serves the responder's blocks in its slot order and the push-back
// ships the joiner's own blocks in the joiner's slot order. Both are
// parents first, so the only blocks parked are the eight tips fetched
// at level 1, before the fetch brings their ancestry and drains them.
TEST(SetdiffSessionTest, WideBacklogCatchUpParksOnlyLevelOneTips) {
  Rig rig;
  auto joiner = rig.MakeNode();
  auto ahead = rig.MakeNode();
  rig.Diverge(joiner.get(), ahead.get(), 10, 0);
  // Eight writers fork from the shared history; `ahead` merges their
  // branches round by round, so its frontier is eight blocks wide.
  std::vector<std::unique_ptr<node::Node>> writers;
  for (int w = 0; w < 8; ++w) {
    auto writer = rig.MakeNode();
    for (const BlockHash& h : ahead->dag().Hashes()) {
      if (h == ahead->dag().genesis_hash()) continue;
      ASSERT_EQ(writer->OfferBlock(*ahead->dag().Find(h)),
                chain::BlockVerdict::kValid);
    }
    writer->SetTime(1'100'000 + static_cast<std::uint64_t>(w) * 1'000);
    writers.push_back(std::move(writer));
  }
  joiner->SetTime(2'000'000);
  ahead->SetTime(2'000'000);
  for (int round = 0; round < 5; ++round) {
    for (auto& writer : writers) {
      const auto h = writer->AddWitnessBlock();
      ASSERT_TRUE(h.ok());
      ASSERT_EQ(ahead->OfferBlock(*writer->dag().Find(*h)),
                chain::BlockVerdict::kValid);
    }
  }
  const std::size_t tips = ahead->dag().Frontier().size();
  ASSERT_EQ(tips, 8u);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(joiner->AddWitnessBlock().ok());

  recon::ReconConfig cfg;
  cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  cfg.push_back = true;
  recon::SessionStats stats;
  ASSERT_EQ(recon::RunLocalSession(joiner.get(), ahead.get(), cfg, &stats),
            recon::SessionState::kDone);
  EXPECT_TRUE(SameBlocks(*joiner, *ahead));
  EXPECT_EQ(stats.blocks_received, 40u);
  EXPECT_EQ(stats.blocks_pushed, 3u);
  EXPECT_EQ(
      joiner->telemetry()->metrics.CounterValue("setdiff.decode_success"), 1u);
  EXPECT_EQ(
      joiner->telemetry()->metrics.CounterValue("node.blocks_quarantined"),
      tips);
  EXPECT_EQ(
      ahead->telemetry()->metrics.CounterValue("node.blocks_quarantined"), 0u);
  for (const node::Node* n : {joiner.get(), ahead.get()}) {
    EXPECT_EQ(n->QuarantineSize(), 0u);
    EXPECT_EQ(n->telemetry()->metrics.CounterValue("node.quarantine_expired"),
              0u);
  }
}

// A hash-first initiator never emits a DiffProbe — it closes a gap
// deeper than level 1 by the level ladder — and still converges.
TEST(SetdiffSessionTest, HashFirstInitiatorNeverProbes) {
  Rig rig;
  auto behind = rig.MakeNode();
  auto ahead = rig.MakeNode();
  rig.Diverge(behind.get(), ahead.get(), 10, 3);
  recon::ReconConfig cfg;
  cfg.mode = recon::ReconConfig::Mode::kHashFirst;
  ASSERT_EQ(recon::RunLocalSession(behind.get(), ahead.get(), cfg, nullptr),
            recon::SessionState::kDone);
  EXPECT_TRUE(SameBlocks(*behind, *ahead));
  EXPECT_EQ(behind->telemetry()->metrics.CounterValue("setdiff.probes"), 0u);
}

// The mode only shapes what an initiator asks for: a block-push
// responder serves a setdiff probe like any other. The 3-block gap is
// deeper than level 1, so the opening frontier round leaves it open
// and the initiator probes; the sketch it gets back peels, and the
// session converges.
TEST(SetdiffSessionTest, BlockPushResponderAnswersDiffProbeWithSketch) {
  Rig rig;
  auto behind = rig.MakeNode();
  auto ahead = rig.MakeNode();
  rig.Diverge(behind.get(), ahead.get(), 10, 3);
  recon::ReconConfig setdiff_cfg;
  setdiff_cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  recon::InitiatorSession initiator(behind.get(), setdiff_cfg);
  recon::ReconConfig block_push;
  block_push.mode = recon::ReconConfig::Mode::kBlockPush;
  recon::ResponderSession responder(ahead.get(), block_push);

  // Level 1: the frontier hashes, then the tip's body.
  std::vector<Bytes> to_responder = {initiator.Start()};
  for (int round = 0; round < 2; ++round) {
    ASSERT_EQ(to_responder.size(), 1u);
    std::vector<Bytes> replies;
    ASSERT_TRUE(responder.OnMessage(to_responder[0], &replies).ok());
    ASSERT_EQ(replies.size(), 1u);
    to_responder.clear();
    ASSERT_TRUE(initiator.OnMessage(replies[0], &to_responder).ok());
  }
  ASSERT_EQ(to_responder.size(), 1u);
  ASSERT_EQ(*recon::PeekType(to_responder[0]), recon::MessageType::kDiffProbe);
  std::vector<Bytes> out;
  ASSERT_TRUE(responder.OnMessage(to_responder[0], &out).ok());
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(*recon::PeekType(out[0]), recon::MessageType::kDiffSketch);
  recon::DiffSketch sketch;
  ASSERT_TRUE(recon::DecodeMessage(out[0], &sketch).ok());

  // The rest of the session: DiffResult, then the wanted bodies.
  std::vector<Bytes> to_initiator = std::move(out);
  while (!to_initiator.empty()) {
    to_responder.clear();
    for (const Bytes& m : to_initiator) {
      ASSERT_TRUE(initiator.OnMessage(m, &to_responder).ok());
    }
    to_initiator.clear();
    for (const Bytes& m : to_responder) {
      ASSERT_TRUE(responder.OnMessage(m, &to_initiator).ok());
    }
  }
  EXPECT_EQ(initiator.state(), recon::SessionState::kDone);
  EXPECT_TRUE(SameBlocks(*behind, *ahead));
  EXPECT_EQ(
      behind->telemetry()->metrics.CounterValue("setdiff.decode_success"),
      1u);
}

}  // namespace
}  // namespace vegvisir::setdiff

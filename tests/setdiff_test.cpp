// Reconciliation v2 (DESIGN.md §16): the rateless symbol codec, the
// three negotiation messages, and the kSetDiff session end to end —
// including streams read over several chunks and the fallback to
// level escalation, which must reconverge exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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
#include "setdiff/iblt.h"
#include "util/rng.h"

namespace vegvisir::setdiff {
namespace {

using chain::BlockHash;

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

std::vector<std::uint64_t> RandomKeys(Rng* rng, std::size_t n) {
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rng->NextU64());
  return keys;
}

std::vector<std::uint64_t> Sorted(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Reads `remote`'s stream against `local` the way a session does:
// SymbolsFor(hint) first, then twice as far while stuck.
SymbolDecoder ReadStream(const std::vector<std::uint64_t>& remote,
                         const std::vector<std::uint64_t>& local,
                         std::uint64_t hint, int* chunks = nullptr) {
  SymbolDecoder decoder(local);
  std::uint64_t count = SymbolsFor(hint);
  int n = 0;
  while (!decoder.decoded() && !decoder.failed() &&
         decoder.received() < serial::limits::kMaxSymbols) {
    decoder.Add(EncodeSymbols(remote, decoder.received(), count));
    ++n;
    count = decoder.received();
  }
  if (chunks != nullptr) *chunks = n;
  return decoder;
}

// ------------------------------------------------------ symbol codec

// A set's stream is the sum of its keys' streams: erasing every key
// from it, one key's stream at a time, leaves nothing.
TEST(IbltTest, InsertEraseCancelsToZero) {
  Rng rng(1);
  const std::vector<std::uint64_t> keys = RandomKeys(&rng, 10);
  std::vector<CodedSymbol> stream = EncodeSymbols(keys, 0, 32);
  ASSERT_EQ(stream.size(), 32u);
  EXPECT_EQ(stream[0].count, 10);  // symbol 0 holds every key
  for (const std::uint64_t k : keys) {
    const std::vector<CodedSymbol> one = EncodeSymbols({k}, 0, 32);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      stream[i].count -= one[i].count;
      stream[i].key_sum ^= one[i].key_sum;
      stream[i].check_sum ^= one[i].check_sum;
    }
  }
  for (const auto& symbol : stream) EXPECT_TRUE(symbol.IsZero());
}

// A chunk is the stream's slice at its own position: chunks tile the
// stream exactly, and the decoder subtracts its set at the position
// the chunk was coded for. A chunk coded for another position never
// decodes to a difference.
TEST(IbltTest, SubtractRequiresMatchingGeometry) {
  Rng rng(2);
  const std::vector<std::uint64_t> keys = RandomKeys(&rng, 40);
  const std::vector<CodedSymbol> whole = EncodeSymbols(keys, 0, 50);
  std::vector<CodedSymbol> tiled = EncodeSymbols(keys, 0, 13);
  const std::vector<CodedSymbol> rest = EncodeSymbols(keys, 13, 37);
  tiled.insert(tiled.end(), rest.begin(), rest.end());
  EXPECT_EQ(tiled, whole);

  const std::vector<std::uint64_t> local(keys.begin(), keys.begin() + 35);
  SymbolDecoder shifted(local);
  shifted.Add(EncodeSymbols(keys, 7, 50));
  EXPECT_FALSE(shifted.decoded());
  EXPECT_TRUE(shifted.remote_only().empty());
  SymbolDecoder aligned(local);
  aligned.Add(whole);
  ASSERT_TRUE(aligned.decoded());
  EXPECT_EQ(aligned.remote_only(),
            Sorted(std::vector<std::uint64_t>(keys.begin() + 35, keys.end())));
}

// The index mapping: symbol i holds a key with probability
// 1/(1 + i/2), so its expected count over n keys is 2n/(i+2).
TEST(IbltTest, SymbolDensityFollowsTheRatelessMapping) {
  Rng rng(3);
  const std::size_t n = 20'000;
  const std::vector<CodedSymbol> stream =
      EncodeSymbols(RandomKeys(&rng, n), 0, 200);
  for (const std::size_t i : {0u, 1u, 2u, 6u, 20u, 64u, 199u}) {
    const double expected = 2.0 * n / static_cast<double>(i + 2);
    // Five binomial standard deviations.
    EXPECT_NEAR(static_cast<double>(stream[i].count), expected,
                5 * std::sqrt(expected) + 1)
        << "symbol " << i;
  }
}

// The core property: random symmetric differences peel back exactly —
// every differing key on the correct side, both outputs sorted,
// nothing invented.
TEST(IbltTest, RandomSymmetricDifferencesDecodeExactly) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t shared = rng.NextBelow(200);
    const std::vector<std::uint64_t> common = RandomKeys(&rng, shared);
    const std::vector<std::uint64_t> a_only =
        RandomKeys(&rng, rng.NextBelow(20));
    const std::vector<std::uint64_t> b_only =
        RandomKeys(&rng, rng.NextBelow(20));
    std::vector<std::uint64_t> a = common, b = common;
    a.insert(a.end(), a_only.begin(), a_only.end());
    b.insert(b.end(), b_only.begin(), b_only.end());

    // The peer (b) streams; this side (a) peels.
    const SymbolDecoder decoder = ReadStream(b, a, 1);
    ASSERT_TRUE(decoder.decoded()) << "trial " << trial;
    EXPECT_EQ(decoder.remote_only(), Sorted(b_only)) << "trial " << trial;
    EXPECT_EQ(decoder.local_only(), Sorted(a_only)) << "trial " << trial;
  }
}

// Streaming peel: a difference the first chunk cannot decode finishes
// after later chunks, with exactly the output one long chunk gives.
TEST(IbltTest, StreamingPeelMatchesOneChunk) {
  Rng rng(43);
  const std::vector<std::uint64_t> common = RandomKeys(&rng, 300);
  const std::vector<std::uint64_t> a_only = RandomKeys(&rng, 45);
  const std::vector<std::uint64_t> b_only = RandomKeys(&rng, 30);
  std::vector<std::uint64_t> a = common, b = common;
  a.insert(a.end(), a_only.begin(), a_only.end());
  b.insert(b.end(), b_only.begin(), b_only.end());

  SymbolDecoder first(a);
  first.Add(EncodeSymbols(b, 0, SymbolsFor(1)));
  EXPECT_FALSE(first.decoded());
  EXPECT_FALSE(first.failed());

  int chunks = 0;
  const SymbolDecoder streamed = ReadStream(b, a, 1, &chunks);
  ASSERT_TRUE(streamed.decoded());
  EXPECT_GE(chunks, 4);
  SymbolDecoder whole(a);
  whole.Add(EncodeSymbols(b, 0, streamed.received()));
  ASSERT_TRUE(whole.decoded());
  EXPECT_EQ(streamed.remote_only(), whole.remote_only());
  EXPECT_EQ(streamed.local_only(), whole.local_only());
  EXPECT_EQ(streamed.remote_only(), Sorted(b_only));
  EXPECT_EQ(streamed.local_only(), Sorted(a_only));
}

// A prefix too short for the difference fails loudly: no lists, never
// a silent subset, and the decoder asks for more rather than failing.
TEST(IbltTest, OversizedDeltaFailsLoudly) {
  Rng rng(7);
  const std::vector<std::uint64_t> keys = RandomKeys(&rng, 64);
  SymbolDecoder decoder({});
  decoder.Add(EncodeSymbols(keys, 0, 16));
  EXPECT_FALSE(decoder.decoded());
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(decoder.received(), 16u);
  EXPECT_TRUE(decoder.remote_only().empty());
  EXPECT_TRUE(decoder.local_only().empty());
}

TEST(IbltTest, EncodeDecodeRoundTripsByteExactly) {
  Rng rng(9);
  const std::vector<CodedSymbol> symbols =
      EncodeSymbols(RandomKeys(&rng, 12), 3, 24);
  serial::Writer w;
  WriteSymbols(&w, symbols);
  const Bytes raw = w.Take();
  serial::Reader r(raw);
  std::vector<CodedSymbol> back;
  ASSERT_TRUE(ReadSymbols(&r, &back).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back, symbols);
  serial::Writer w2;
  WriteSymbols(&w2, back);
  EXPECT_EQ(w2.Take(), raw);
}

TEST(IbltTest, SizingPolicy) {
  // 1.5d + 2 sqrt(d) + 1: a single key gets four symbols, and large
  // differences approach 1.5 symbols per key.
  EXPECT_EQ(SymbolsFor(0), 1u);
  EXPECT_EQ(SymbolsFor(1), 4u);
  EXPECT_EQ(SymbolsFor(2), 6u);
  EXPECT_EQ(SymbolsFor(64), 113u);
  EXPECT_EQ(SymbolsFor(2000), 3089u);
  // A new salt re-keys every ID.
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

// A forged stream in which symbols hand one key back and forth must
// fail the peel, not loop: a key left at +1 in symbol 0 and wiped from
// its other symbols peels into -1 in those, which peel it back.
TEST(IbltTest, ForgedPingPongTableFailsInsteadOfLooping) {
  const std::uint64_t key = 0x1234;
  std::vector<CodedSymbol> forged = EncodeSymbols({key}, 0, 16);
  std::size_t holders = 0;
  for (std::size_t i = 1; i < forged.size(); ++i) {
    holders += forged[i].IsZero() ? 0 : 1;
  }
  ASSERT_GT(holders, 0u);
  // Swap symbol 0 with the key's other symbols, so that every peel
  // of it re-creates the symbol the previous peel emptied.
  for (std::size_t i = 1; i < forged.size(); ++i) {
    if (!forged[i].IsZero()) forged[i] = CodedSymbol{};
  }
  SymbolDecoder decoder({});
  decoder.Add(forged);
  EXPECT_FALSE(decoder.decoded());
  EXPECT_TRUE(decoder.failed());
  EXPECT_TRUE(decoder.remote_only().empty());
  EXPECT_TRUE(decoder.local_only().empty());
}

// Symbol 0 holds every key, so a one-key difference peels from a
// prefix of any length, and the decoder stops right there.
TEST(IbltTest, SingleKeyAlwaysPeelsAtAnySize) {
  Rng rng(31);
  for (const std::uint64_t symbols : {1u, 2u, 3u, 7u, 16u, 33u, 100u}) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::vector<std::uint64_t> shared = RandomKeys(&rng, 5);
      std::vector<std::uint64_t> remote = shared;
      const std::uint64_t h = rng.NextU64();
      remote.push_back(h);
      SymbolDecoder decoder(shared);
      decoder.Add(EncodeSymbols(remote, 0, symbols));
      ASSERT_TRUE(decoder.decoded())
          << symbols << " symbols, trial " << trial;
      ASSERT_EQ(decoder.remote_only().size(), 1u);
      EXPECT_EQ(decoder.remote_only()[0], h);
      EXPECT_TRUE(decoder.local_only().empty());
    }
  }
}

// ------------------------------------------------- wire messages

TEST(DiffMessagesTest, ProbeRoundTripsByteExactly) {
  recon::DiffProbe probe;
  probe.begin = 113;
  probe.set_size = 2'000;
  probe.missing = 8;
  const Bytes raw = recon::EncodeMessage(probe);
  ASSERT_EQ(*recon::PeekType(raw), recon::MessageType::kDiffProbe);
  recon::DiffProbe out;
  ASSERT_TRUE(recon::DecodeMessage(raw, &out).ok());
  EXPECT_EQ(out.begin, 113u);
  EXPECT_EQ(out.set_size, 2'000u);
  EXPECT_EQ(out.missing, 8u);
  EXPECT_EQ(recon::EncodeMessage(out), raw);
}

TEST(DiffMessagesTest, SketchRoundTripsByteExactly) {
  Rng rng(23);
  recon::DiffSketch sketch;
  sketch.seed = rng.NextU64();
  sketch.set_size = 9;
  sketch.begin = 48;
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 9; ++i) {
    keys.push_back(ShortId(HashFromRng(&rng), sketch.seed));
  }
  sketch.symbols = EncodeSymbols(keys, sketch.begin, 48);
  const Bytes raw = recon::EncodeMessage(sketch);
  ASSERT_EQ(*recon::PeekType(raw), recon::MessageType::kDiffSketch);
  recon::DiffSketch out;
  ASSERT_TRUE(recon::DecodeMessage(raw, &out).ok());
  EXPECT_EQ(out.seed, sketch.seed);
  EXPECT_EQ(out.set_size, 9u);
  EXPECT_EQ(out.begin, 48u);
  EXPECT_EQ(out.symbols, sketch.symbols);
  EXPECT_EQ(recon::EncodeMessage(out), raw);
}

// The short-ID wire pin: with every symbol count fitting one varint
// byte, an n-symbol chunk costs 17 bytes per symbol plus a small fixed
// header (type, salt, set size, position, symbol count).
TEST(DiffMessagesTest, SketchCostsSeventeenBytesPerCell) {
  Rng rng(37);
  for (const std::uint64_t symbols : {16u, 64u, 1000u, 16384u}) {
    recon::DiffSketch sketch;
    sketch.seed = rng.NextU64();
    sketch.set_size = 1u << 20;
    sketch.begin = 30;  // past the symbols whose counts need two bytes
    sketch.symbols =
        EncodeSymbols(RandomKeys(&rng, 200), sketch.begin, symbols);
    for (const CodedSymbol& c : sketch.symbols) {
      ASSERT_LT(c.count, 64);  // one zigzag varint byte
    }
    EXPECT_LE(recon::EncodeMessage(sketch).size(), 17 * symbols + 32)
        << symbols << " symbols";
  }
}

TEST(DiffMessagesTest, ResultRoundTripsByteExactly) {
  Rng rng(29);
  recon::DiffResult result;
  result.want = {rng.NextU64(), rng.NextU64()};
  const Bytes raw = recon::EncodeMessage(result);
  ASSERT_EQ(*recon::PeekType(raw), recon::MessageType::kDiffResult);
  recon::DiffResult out;
  ASSERT_TRUE(recon::DecodeMessage(raw, &out).ok());
  EXPECT_EQ(out.want, result.want);
  // The type byte, the ID count, and eight bytes per ID: nothing else.
  EXPECT_EQ(raw.size(), 2 + 2 * sizeof(std::uint64_t));
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

// Force a peel failure (symbol cap far below the delta) and check the
// declared ladder: the stream stops at the cap, the session falls back
// to level escalation, and the replicas still reconverge exactly.
TEST(SetdiffSessionTest, DecodeFailureFallsBackAndReconverges) {
  Rig rig;
  auto behind = rig.MakeNode();
  auto ahead = rig.MakeNode();
  rig.Diverge(behind.get(), ahead.get(), 16, 80);
  recon::ReconConfig cfg;
  cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  cfg.max_symbols = 16;  // 80 differing keys cannot peel
  recon::SessionStats stats;
  ASSERT_EQ(recon::RunLocalSession(behind.get(), ahead.get(), cfg, &stats),
            recon::SessionState::kDone);
  EXPECT_TRUE(SameBlocks(*behind, *ahead));
  const auto& metrics = behind->telemetry()->metrics;
  EXPECT_EQ(metrics.CounterValue("setdiff.decode_failure"), 1u);
  EXPECT_EQ(metrics.CounterValue("setdiff.fallbacks"), 1u);
  // The fallback sends no DiffResult: the frontier requests that
  // follow tell the responder the stream is over.
  EXPECT_EQ(metrics.CounterValue("recon.bytes.diff_result"), 0u);
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

// A difference the first chunk cannot peel is read over several
// chunks of one stream: each picks up where the last ended, all carry
// the salt the first one fixed, and each is twice as long as the
// prefix before it. Here each side holds 20 blocks the other lacks:
// the set sizes match and the level-1 gap is one tip, so the bound
// the first chunk is sized from is a few keys, not the 39 that
// differ.
TEST(SetdiffSessionTest, StreamKeepsOneSaltAcrossChunks) {
  Rig rig;
  auto a = rig.MakeNode();
  auto b = rig.MakeNode();
  rig.Diverge(a.get(), b.get(), 16, 20);
  a->SetTime(2'000'000);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(a->AddWitnessBlock().ok());
  recon::ReconConfig cfg;
  cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  recon::SessionState state;
  std::vector<recon::DiffSketch> chunks;
  for (const Bytes& reply :
       RunRecordingReplies(a.get(), b.get(), cfg, &state)) {
    if (*recon::PeekType(reply) != recon::MessageType::kDiffSketch) continue;
    recon::DiffSketch sketch;
    ASSERT_TRUE(recon::DecodeMessage(reply, &sketch).ok());
    chunks.push_back(std::move(sketch));
  }
  EXPECT_EQ(state, recon::SessionState::kDone);
  for (const BlockHash& h : b->dag().Hashes()) {
    EXPECT_TRUE(a->dag().Contains(h));
  }
  ASSERT_GE(chunks.size(), 2u);
  std::uint64_t received = 0;
  for (const recon::DiffSketch& chunk : chunks) {
    EXPECT_EQ(chunk.seed, chunks[0].seed);
    EXPECT_EQ(chunk.begin, received);
    if (received > 0) {
      EXPECT_EQ(chunk.symbols.size(), received);
    }
    received += chunk.symbols.size();
  }
  EXPECT_EQ(a->telemetry()->metrics.CounterValue("setdiff.decode_success"),
            1u);
  EXPECT_EQ(a->telemetry()->metrics.CounterValue("setdiff.probes"),
            chunks.size());
}

// The post-peel fetch rides in the DiffResult: a decoded stream is
// answered by exactly one BlockResponse and no BlockRequest is sent
// after level 1's.
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
  // Level 1 (hashes, then the tip's body), one chunk of the stream,
  // then the bodies the DiffResult asked for.
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

  // Level 1, then the probe, until the responder sends its chunk.
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
  cfg.max_symbols = 16;  // 80 differing keys cannot peel
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

// A joiner catches up an eight-wide backlog. The eight tips fetched at
// level 1 wait in the session's stash, coded into the joiner's side of
// the stream, so the fetch leaves them out. The DiffResult fetch
// serves the responder's blocks in its slot order and the push-back
// ships the joiner's own blocks in the joiner's slot order. Both are
// parents first, so no block is ever parked.
TEST(SetdiffSessionTest, WideBacklogCatchUpParksNothing) {
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
      0u);
  EXPECT_EQ(
      ahead->telemetry()->metrics.CounterValue("node.blocks_quarantined"), 0u);
  for (const node::Node* n : {joiner.get(), ahead.get()}) {
    EXPECT_EQ(n->QuarantineSize(), 0u);
    EXPECT_EQ(n->telemetry()->metrics.CounterValue("node.quarantine_expired"),
              0u);
  }
}

// Total session bytes, both directions, for E1's chain shape
// (bench_reconciliation): one owner writes a 64-block shared history,
// then the responder runs `delta` blocks ahead. The owner's key seed
// picks every block hash, and with them the session salt.
std::uint64_t E1ChainSessionBytes(std::uint64_t owner_seed, int delta,
                                  recon::ReconConfig::Mode mode) {
  const crypto::KeyPair owner = TestKeys(owner_seed);
  const chain::Block genesis = chain::GenesisBuilder("recon-bench")
                                   .WithTimestamp(1)
                                   .Build("owner", owner);
  node::NodeConfig node_cfg;
  node_cfg.user_id = "owner";
  node::Node behind(node_cfg, genesis, owner);
  node::Node ahead(node_cfg, genesis, owner);
  behind.SetTime(1'000'000);
  ahead.SetTime(1'000'000);
  for (int i = 0; i < 64 + delta; ++i) {
    const auto h = ahead.AddWitnessBlock();
    EXPECT_TRUE(h.ok());
    if (i < 64) (void)behind.OfferBlock(*ahead.dag().Find(*h));
  }
  recon::ReconConfig cfg;
  cfg.mode = mode;
  recon::SessionStats stats;
  EXPECT_EQ(recon::RunLocalSession(&behind, &ahead, cfg, &stats),
            recon::SessionState::kDone);
  EXPECT_TRUE(SameBlocks(behind, ahead));
  return stats.bytes_sent + stats.bytes_received;
}

// E1 chain d=2: level 1 fetches the tip, and the one block behind it
// costs a few symbols where hash-first walks a second level. Nothing
// in the exchange is sized by anything but the gap, so setdiff costs
// no more than hash-first, whatever the hashes.
TEST(SetdiffSessionTest, TwoBlockChainGapCostsNoMoreThanHashFirst) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_LE(
        E1ChainSessionBytes(seed, 2, recon::ReconConfig::Mode::kSetDiff),
        E1ChainSessionBytes(seed, 2, recon::ReconConfig::Mode::kHashFirst))
        << "owner seed " << seed;
  }
}

// E1 chain d=64 under eight owner keys: each changes every hash and
// so the salt, which decides how many symbols the peel needs. A
// stream that grows while stuck keeps the session cost within 1.5x
// across them.
TEST(SetdiffSessionTest, ChainGapCostVariesLittleWithTheSalt) {
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::uint64_t bytes =
        E1ChainSessionBytes(seed, 64, recon::ReconConfig::Mode::kSetDiff);
    lo = std::min(lo, bytes);
    hi = std::max(hi, bytes);
  }
  EXPECT_LE(2 * hi, 3 * lo) << "min " << lo << " B, max " << hi << " B";
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
// and the initiator probes; the chunk it gets back peels, and the
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

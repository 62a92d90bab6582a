// Seed-corpus generator for the fuzz targets.
//
// Writes one directory per target under the given root (the layout
// committed at tests/corpus/): valid encodings produced by the real
// encoders, so every fuzz run starts from structurally deep inputs,
// plus `crash-*.bin` files reproducing historical decoder crashes.
// Those crash inputs double as regression tests: the standalone
// driver replays them on every ctest run and tests/corpus_test.cpp
// asserts they are rejected cleanly.
//
// Usage: gen_corpus <output-root>
// Regenerate with: ./gen_corpus ../tests/corpus (from the build dir).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/certificate.h"
#include "chain/genesis.h"
#include "crypto/ed25519.h"
#include "node/gossip.h"
#include "recon/messages.h"
#include "serial/codec.h"
#include "setdiff/iblt.h"
#include "util/bytes.h"

namespace {

using namespace vegvisir;

std::filesystem::path g_root;

void WriteSeed(const std::string& dir, const std::string& name,
               const Bytes& data) {
  const std::filesystem::path out = g_root / dir / name;
  std::filesystem::create_directories(out.parent_path());
  std::ofstream f(out, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out.string().c_str());
    std::exit(1);
  }
}

// The maximal-varint count that used to wrap `count * 32` past the
// bounds check (0x0800000000000001 * 32 == 2^64 + 32): the decoder
// saw "32 bytes needed, 32 available" and reserve() blew up instead.
void AppendCountBomb(serial::Writer* w) {
  w->WriteVarint(0x0800000000000001ULL);
  for (int i = 0; i < 40; ++i) w->WriteU8(0xAA);
}

crypto::KeyPair TestKeys(std::uint8_t fill) {
  std::array<std::uint8_t, crypto::kEd25519SeedSize> seed;
  seed.fill(fill);
  return crypto::KeyPair::FromSeed(seed);
}

void EmitBlockSeeds(const chain::Block& genesis, const chain::Block& child) {
  WriteSeed("block", "seed-genesis.bin", genesis.Serialize());
  WriteSeed("block", "seed-child.bin", child.Serialize());
  // Historical crasher: empty user id, no location, parent-count bomb.
  serial::Writer w;
  w.WriteString("");
  w.WriteU64(1);
  w.WriteBool(false);
  AppendCountBomb(&w);
  WriteSeed("block", "crash-parent-count-bomb.bin", w.Take());
}

void EmitTransactionSeeds(const chain::Block& child) {
  for (std::size_t i = 0; i < child.transactions().size(); ++i) {
    serial::Writer w;
    child.transactions()[i].Encode(&w);
    WriteSeed("transaction", "seed-tx" + std::to_string(i) + ".bin",
              w.Take());
  }
}

void EmitCertificateSeeds(const crypto::KeyPair& owner,
                          const crypto::KeyPair& member) {
  const chain::Certificate cert = chain::IssueCertificate(
      "alice", member.public_key(), "user", owner);
  WriteSeed("certificate", "seed-member.bin", cert.Serialize());
}

void EmitValueSeeds() {
  const std::vector<std::pair<std::string, crdt::Value>> values = {
      {"bool", crdt::Value::OfBool(true)},
      {"int", crdt::Value::OfInt(-123456789)},
      {"str", crdt::Value::OfStr("hello, vegvisir")},
      {"bytes", crdt::Value::OfBytes(Bytes{0xde, 0xad, 0xbe, 0xef})},
  };
  for (const auto& [name, v] : values) {
    serial::Writer w;
    v.Encode(&w);
    WriteSeed("crdt_value", "seed-" + name + ".bin", w.Take());
  }
}

void EmitReconSeeds(const chain::Block& genesis, const chain::Block& child) {
  recon::FrontierRequest freq;
  freq.level = 1;
  freq.genesis = genesis.hash();
  WriteSeed("recon_messages", "seed-frontier-request.bin",
            recon::EncodeMessage(freq));

  recon::FrontierResponse fresp;
  fresp.level = 1;
  fresp.genesis = genesis.hash();
  fresp.hashes = {child.hash()};
  fresp.blocks = {child.Serialize()};
  WriteSeed("recon_messages", "seed-frontier-response.bin",
            recon::EncodeMessage(fresp));

  recon::BlockRequest breq;
  breq.hashes = {child.hash(), genesis.hash()};
  WriteSeed("recon_messages", "seed-block-request.bin",
            recon::EncodeMessage(breq));

  recon::BlockResponse bresp;
  bresp.blocks = {genesis.Serialize(), child.Serialize()};
  WriteSeed("recon_messages", "seed-block-response.bin",
            recon::EncodeMessage(bresp));

  recon::PushBlocks push;
  push.blocks = {child.Serialize()};
  WriteSeed("recon_messages", "seed-push-blocks.bin",
            recon::EncodeMessage(push));

  // Hash-count bomb inside a BlockRequest (same wrap-the-check class
  // as the block parent-count crasher).
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(recon::MessageType::kBlockRequest));
  AppendCountBomb(&w);
  WriteSeed("recon_messages", "crash-hash-count-bomb.bin", w.Take());
}

void EmitSetdiffSeeds(const chain::Block& genesis, const chain::Block& child) {
  recon::DiffProbe probe;
  probe.set_size = 1;
  probe.missing = 1;
  WriteSeed("setdiff_messages", "seed-diff-probe.bin",
            recon::EncodeMessage(probe));

  recon::DiffProbe next = probe;
  next.begin = 16;
  WriteSeed("setdiff_messages", "seed-diff-probe-next-chunk.bin",
            recon::EncodeMessage(next));

  recon::DiffSketch sketch;
  sketch.seed = 0x5a175a175a175a17ULL;
  sketch.set_size = 2;
  sketch.symbols = setdiff::EncodeSymbols(
      {setdiff::ShortId(genesis.hash(), sketch.seed),
       setdiff::ShortId(child.hash(), sketch.seed)},
      0, 16);
  WriteSeed("setdiff_messages", "seed-diff-sketch.bin",
            recon::EncodeMessage(sketch));

  recon::DiffResult ok;
  ok.want = {setdiff::ShortId(child.hash(), sketch.seed)};
  WriteSeed("setdiff_messages", "seed-diff-result-decoded.bin",
            recon::EncodeMessage(ok));

  // Symbol-count bomb inside a DiffSketch: tag, salt, set_size,
  // position, then the wrap-the-check count.
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(recon::MessageType::kDiffSketch));
  w.WriteU64(sketch.seed);
  w.WriteVarint(2);
  w.WriteVarint(0);
  AppendCountBomb(&w);
  WriteSeed("setdiff_messages", "crash-symbol-count-bomb.bin", w.Take());
}

void EmitEnvelopeSeeds(const chain::Block& genesis) {
  recon::FrontierRequest freq;
  freq.genesis = genesis.hash();

  serial::Writer to_responder;
  to_responder.WriteU8(node::kEnvelopeToResponder);
  to_responder.WriteU64(7);
  const Bytes payload = recon::EncodeMessage(freq);
  for (std::uint8_t b : payload) to_responder.WriteU8(b);
  WriteSeed("gossip_envelope", "seed-to-responder.bin", to_responder.Take());

  recon::BlockResponse bresp;
  bresp.blocks = {genesis.Serialize()};
  serial::Writer to_initiator;
  to_initiator.WriteU8(node::kEnvelopeToInitiator);
  to_initiator.WriteU64(7);
  const Bytes reply = recon::EncodeMessage(bresp);
  for (std::uint8_t b : reply) to_initiator.WriteU8(b);
  WriteSeed("gossip_envelope", "seed-to-initiator.bin", to_initiator.Take());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: gen_corpus <output-root>\n");
    return 2;
  }
  g_root = argv[1];

  const crypto::KeyPair owner = TestKeys(0x07);
  const crypto::KeyPair member = TestKeys(0x09);
  const chain::Block genesis = chain::GenesisBuilder("fuzz-chain")
                                   .WithTimestamp(1'000)
                                   .Build("owner", owner);
  chain::BlockHeader header;
  header.user_id = "owner";
  header.timestamp_ms = 2'000;
  header.location = chain::GeoLocation{42.44, -76.48};
  header.parents = {genesis.hash()};
  std::vector<chain::Transaction> txns(2);
  txns[0].crdt_name = "sensors";
  txns[0].op = "add";
  txns[0].args = {crdt::Value::OfStr("t-1"), crdt::Value::OfInt(21)};
  txns[1].crdt_name = "flags";
  txns[1].op = "enable";
  txns[1].args = {crdt::Value::OfBool(true),
                  crdt::Value::OfBytes(Bytes{1, 2, 3})};
  const chain::Block child = chain::Block::Create(header, txns, owner);

  EmitBlockSeeds(genesis, child);
  EmitTransactionSeeds(child);
  EmitCertificateSeeds(owner, member);
  EmitValueSeeds();
  EmitReconSeeds(genesis, child);
  EmitSetdiffSeeds(genesis, child);
  EmitEnvelopeSeeds(genesis);

  std::printf("corpus written under %s\n", g_root.string().c_str());
  return 0;
}

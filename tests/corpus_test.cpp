// Replays the committed fuzz corpus (tests/corpus/) through the real
// decoders, and pins the historical decoder crashers as named
// regression tests.
//
// Layout contract with fuzz/: tests/corpus/<name>/ holds inputs for
// fuzz_<name>; `seed-*.bin` are valid encodings (must decode AND
// round-trip byte-identically), `crash-*.bin` are former crash inputs
// (must be rejected cleanly — never crash, never decode).
//
// The named *CountBomb* tests reconstruct each bomb from first
// principles rather than reading corpus files, so the guards stay
// pinned even if the corpus is regenerated: a varint count of
// 0x0800000000000001 makes `count * 32` wrap to 32, which slipped
// past multiply-style bounds checks and drove reserve()/insert loops
// into allocation bombs before the guards switched to division.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/certificate.h"
#include "chain/genesis.h"
#include "chain/store.h"
#include "chain/transaction.h"
#include "crdt/value.h"
#include "crypto/ed25519.h"
#include "crypto/sha256.h"
#include "csm/membership.h"
#include "csm/state_machine.h"
#include "node/gossip.h"
#include "recon/messages.h"
#include "serial/codec.h"
#include "util/bytes.h"

namespace vegvisir {
namespace {

constexpr std::uint64_t kBombCount = 0x0800000000000001ULL;

Bytes ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void AppendCountBomb(serial::Writer* w) {
  w->WriteVarint(kBombCount);
  for (int i = 0; i < 40; ++i) w->WriteU8(0xAA);
}

// Returns ok/err of decoding `input` as corpus directory `kind`, and
// (for successful decodes) checks the canonical round trip.
Status DecodeCorpusInput(const std::string& kind, const Bytes& input) {
  const ByteSpan span(input);
  if (kind == "block") {
    auto block = chain::Block::Deserialize(span);
    if (!block.ok()) return block.status();
    EXPECT_EQ(block->Serialize(), input);
    return Status::Ok();
  }
  if (kind == "transaction") {
    serial::Reader r(span);
    chain::Transaction tx;
    return chain::Transaction::Decode(&r, &tx);
  }
  if (kind == "certificate") {
    auto cert = chain::Certificate::Deserialize(span);
    if (!cert.ok()) return cert.status();
    EXPECT_EQ(cert->Serialize(), input);
    return Status::Ok();
  }
  if (kind == "crdt_value") {
    serial::Reader r(span);
    crdt::Value v;
    return crdt::Value::Decode(&r, &v);
  }
  if (kind == "recon_messages" || kind == "setdiff_messages" ||
      kind == "gossip_envelope") {
    ByteSpan payload = span;
    if (kind == "gossip_envelope") {
      node::GossipEnvelope env;
      if (Status s = node::ParseEnvelope(span, &env); !s.ok()) return s;
      payload = env.payload;
    }
    auto type = recon::PeekType(payload);
    if (!type.ok()) return type.status();
    switch (*type) {
      case recon::MessageType::kFrontierRequest: {
        recon::FrontierRequest m;
        return recon::DecodeMessage(payload, &m);
      }
      case recon::MessageType::kFrontierResponse: {
        recon::FrontierResponse m;
        return recon::DecodeMessage(payload, &m);
      }
      case recon::MessageType::kBlockRequest: {
        recon::BlockRequest m;
        return recon::DecodeMessage(payload, &m);
      }
      case recon::MessageType::kBlockResponse: {
        recon::BlockResponse m;
        return recon::DecodeMessage(payload, &m);
      }
      case recon::MessageType::kPushBlocks: {
        recon::PushBlocks m;
        return recon::DecodeMessage(payload, &m);
      }
      case recon::MessageType::kDiffProbe: {
        recon::DiffProbe m;
        if (Status s = recon::DecodeMessage(payload, &m); !s.ok()) return s;
        EXPECT_EQ(recon::EncodeMessage(m), Bytes(payload.begin(),
                                                 payload.end()));
        return Status::Ok();
      }
      case recon::MessageType::kDiffSketch: {
        recon::DiffSketch m;
        if (Status s = recon::DecodeMessage(payload, &m); !s.ok()) return s;
        EXPECT_EQ(recon::EncodeMessage(m), Bytes(payload.begin(),
                                                 payload.end()));
        return Status::Ok();
      }
      case recon::MessageType::kDiffResult: {
        recon::DiffResult m;
        if (Status s = recon::DecodeMessage(payload, &m); !s.ok()) return s;
        EXPECT_EQ(recon::EncodeMessage(m), Bytes(payload.begin(),
                                                 payload.end()));
        return Status::Ok();
      }
    }
    return InvalidArgumentError("unhandled message type");
  }
  ADD_FAILURE() << "corpus directory with no decoder mapping: " << kind;
  return InvalidArgumentError("unknown corpus kind");
}

TEST(CorpusTest, EveryCommittedInputDecodesOrFailsCleanly) {
  const std::filesystem::path root(VEGVISIR_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(root)) << root;
  std::size_t seeds = 0, crashes = 0;
  for (const auto& dir : std::filesystem::directory_iterator(root)) {
    if (!dir.is_directory()) continue;
    const std::string kind = dir.path().filename().string();
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      const Bytes input = ReadFile(entry.path());
      const Status status = DecodeCorpusInput(kind, input);
      if (name.rfind("seed-", 0) == 0) {
        EXPECT_TRUE(status.ok()) << kind << "/" << name << ": "
                                 << status.message();
        ++seeds;
      } else if (name.rfind("crash-", 0) == 0) {
        EXPECT_FALSE(status.ok())
            << kind << "/" << name << " decoded successfully but is a "
            << "pinned crash input";
        ++crashes;
      } else {
        ADD_FAILURE() << "corpus file " << kind << "/" << name
                      << " must be named seed-* or crash-*";
      }
    }
  }
  // The generator commits at least these; an empty corpus means the
  // replay silently tested nothing.
  EXPECT_GE(seeds, 16u);
  EXPECT_GE(crashes, 2u);
}

TEST(CorpusTest, BlockParentCountBombRejectedCleanly) {
  serial::Writer w;
  w.WriteString("");
  w.WriteU64(1);
  w.WriteBool(false);
  AppendCountBomb(&w);
  const Bytes bomb = w.Take();
  auto block = chain::Block::Deserialize(bomb);
  ASSERT_FALSE(block.ok());
  EXPECT_EQ(block.status().message(), "parent count exceeds input");
}

TEST(CorpusTest, ReconHashCountBombRejectedCleanly) {
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(recon::MessageType::kBlockRequest));
  AppendCountBomb(&w);
  const Bytes bomb = w.Take();
  recon::BlockRequest out;
  const Status status = recon::DecodeMessage(bomb, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "hash count exceeds input");
}

TEST(CorpusTest, SetdiffCellCountBombRejectedCleanly) {
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(recon::MessageType::kDiffSketch));
  w.WriteU64(0x5a17);  // salt
  w.WriteVarint(2);    // set_size
  w.WriteVarint(0);    // begin
  AppendCountBomb(&w);
  const Bytes bomb = w.Take();
  recon::DiffSketch out;
  const Status status = recon::DecodeMessage(bomb, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "symbol count exceeds input");
}

TEST(CorpusTest, MembershipRevocationCountBombRejectedCleanly) {
  serial::Writer w;
  w.WriteBool(false);  // no CA key
  w.WriteVarint(1);    // one member record
  w.WriteString("u");
  chain::Certificate cert;  // all-zero cert is structurally valid
  cert.Encode(&w);
  w.WriteBool(false);  // not revoked
  AppendCountBomb(&w);
  const Bytes bomb = w.Take();
  serial::Reader r(bomb);
  csm::Membership membership;
  const Status status = membership.DecodeState(&r);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "revocation count exceeds input");
}

TEST(CorpusTest, CsmAppliedBlockCountBombRejectedCleanly) {
  // Snapshot surgery: the applied-block section is the snapshot tail,
  // and the checksum is attacker-computable (integrity against
  // corruption, not a MAC) — so a hostile snapshot can legally reach
  // the count check.
  csm::StateMachine sm;
  Bytes payload = sm.SaveSnapshot();
  payload.resize(payload.size() - crypto::kSha256DigestSize);
  ASSERT_EQ(payload.back(), 0x00);  // applied-block count of fresh SM
  payload.pop_back();
  serial::Writer tail;
  AppendCountBomb(&tail);
  Append(&payload, tail.buffer());
  const crypto::Sha256Digest checksum = crypto::Sha256::Hash(payload);
  Append(&payload, ByteSpan(checksum.data(), checksum.size()));

  csm::StateMachine victim;
  const Status status = victim.LoadSnapshot(payload);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "applied-block count exceeds input");
}

TEST(CorpusTest, DagStubParentCountBombRejectedCleanly) {
  // Same surgery against the chain store: valid magic + checksum
  // around an evicted-stub record whose parent count is the bomb.
  const crypto::KeyPair keys = crypto::KeyPair::FromSeed([] {
    std::array<std::uint8_t, crypto::kEd25519SeedSize> s;
    s.fill(0x33);
    return s;
  }());
  const chain::Block genesis =
      chain::GenesisBuilder("bomb-chain").Build("owner", keys);
  serial::Writer w;
  w.WriteBytes(genesis.Serialize());
  w.WriteVarint(1);  // one non-genesis entry
  w.WriteU8(0);      // kTagEvicted
  chain::BlockHash stub;
  stub.fill(0x44);
  w.WriteFixed(stub);
  AppendCountBomb(&w);
  const Bytes payload = w.Take();
  Bytes file(8, 0);
  std::memcpy(file.data(), "VGVSDAG1", 8);
  Append(&file, payload);
  const crypto::Sha256Digest checksum = crypto::Sha256::Hash(payload);
  Append(&file, ByteSpan(checksum.data(), checksum.size()));

  auto dag = chain::DeserializeDag(file);
  ASSERT_FALSE(dag.ok());
  EXPECT_EQ(dag.status().message(), "parent count exceeds input");
}

}  // namespace
}  // namespace vegvisir

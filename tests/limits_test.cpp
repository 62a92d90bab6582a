// Pins every constant in serial/limits.h with a limit-bomb test: an
// input whose count is `kMax* + 1` backed by enough real padding to
// pass CheckWireCount's input-relative bound, so only the absolute
// protocol cap rejects it ("... count exceeds limit"). This is the
// expensive half of the bomb taxonomy — the attacker pays for the
// padding bytes — and complements tests/corpus_test.cpp, whose
// *CountBomb* tests pin the cheap half (short inputs, "... exceeds
// input").
//
// Contract with src/serial/limits.h: every kMax* constant there must
// be exercised by a test in this file; tools/analyzer/wire_taint.py
// enforces the decoder side (every wire count passes through a
// limits.h bound), this file enforces the test side.
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
#include "chain/proof.h"
#include "chain/store.h"
#include "chain/transaction.h"
#include "crdt/counters.h"
#include "crypto/ed25519.h"
#include "crypto/sha256.h"
#include "csm/membership.h"
#include "csm/state_machine.h"
#include "recon/messages.h"
#include "recon/session.h"
#include "serial/codec.h"
#include "serial/limits.h"
#include "storage/format.h"
#include "storage/log.h"
#include "telemetry/telemetry.h"
#include "util/bytes.h"

namespace vegvisir {
namespace {

namespace limits = serial::limits;

// Appends a count of `limit + 1` plus exactly enough zero padding
// that the input-relative check (count <= remaining / elem_bytes)
// passes and the absolute cap is what rejects.
Bytes WithLimitBomb(serial::Writer* w, std::uint64_t limit,
                    std::size_t elem_bytes) {
  w->WriteVarint(limit + 1);
  Bytes out = w->Take();
  out.insert(out.end(),
             static_cast<std::size_t>(limit + 1) * elem_bytes, 0);
  return out;
}

// ------------------------------------------------ recon wire messages

TEST(LimitsTest, FrontierHashLimitBombRejected) {
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(recon::MessageType::kBlockRequest));
  const Bytes bomb = WithLimitBomb(&w, limits::kMaxFrontierHashes,
                                   sizeof(chain::BlockHash));
  recon::BlockRequest out;
  const Status status = recon::DecodeMessage(bomb, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "hash count exceeds limit");
  EXPECT_STREQ(recon::DecodeRejectName(status), "count_overflow");
}

TEST(LimitsTest, WireBlockLimitBombRejected) {
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(recon::MessageType::kBlockResponse));
  const Bytes bomb = WithLimitBomb(&w, limits::kMaxWireBlocks, 1);
  recon::BlockResponse out;
  const Status status = recon::DecodeMessage(bomb, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "block count exceeds limit");
  EXPECT_STREQ(recon::DecodeRejectName(status), "count_overflow");
}

// ------------------------------------------- setdiff wire messages

TEST(LimitsTest, IbltCellLimitBombRejected) {
  // The expensive half (~1.1 MiB of padding) of the symbol-count bomb;
  // corpus_test pins the cheap "exceeds input" half.
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(recon::MessageType::kDiffSketch));
  w.WriteU64(7);     // salt
  w.WriteVarint(1);  // set_size
  w.WriteVarint(0);  // begin
  const Bytes bomb = WithLimitBomb(&w, limits::kMaxSymbols,
                                   setdiff::kSymbolWireBytes);
  recon::DiffSketch out;
  const Status status = recon::DecodeMessage(bomb, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "symbol count exceeds limit");
  EXPECT_STREQ(recon::DecodeRejectName(status), "count_overflow");
}

// A DiffResult's one ID list, `want`, is capped.
TEST(LimitsTest, DiffHashLimitBombRejected) {
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(recon::MessageType::kDiffResult));
  const Bytes bomb = WithLimitBomb(&w, limits::kMaxDiffIds,
                                   sizeof(std::uint64_t));
  recon::DiffResult out;
  const Status status = recon::DecodeMessage(bomb, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "diff id count exceeds limit");
  EXPECT_STREQ(recon::DecodeRejectName(status), "count_overflow");
}

TEST(LimitsTest, DiffProbeRequestedCellsAboveLimitRejected) {
  // A probe's or a sketch's stream position is not a wire count, but
  // it sizes the responder's reply chunk (or claims to extend a
  // stream past the cap) — so the decoders reject one above
  // kMaxSymbols outright.
  recon::DiffProbe probe;
  probe.begin = limits::kMaxSymbols + 1;
  recon::DiffProbe probe_out;
  Status status =
      recon::DecodeMessage(recon::EncodeMessage(probe), &probe_out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "symbol count exceeds limit");
  recon::DiffSketch sketch;
  sketch.begin = limits::kMaxSymbols + 1;
  recon::DiffSketch sketch_out;
  status = recon::DecodeMessage(recon::EncodeMessage(sketch), &sketch_out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "symbol count exceeds limit");
}

TEST(LimitsTest, FrontierLevelIsCappedByProtocolLimit) {
  // The level is not a count (no allocation), so the session clamps
  // rather than rejects: responders take min(request level, their
  // configured max_level, kMaxFrontierLevel). The default config must
  // sit at or below the protocol cap, or the clamp would widen it.
  EXPECT_LE(recon::ReconConfig{}.max_level, limits::kMaxFrontierLevel);
}

// ------------------------------------------------ block / transaction

TEST(LimitsTest, BlockParentLimitBombRejected) {
  serial::Writer w;
  w.WriteString("");     // user_id
  w.WriteU64(1);         // timestamp
  w.WriteBool(false);    // no location
  const Bytes bomb = WithLimitBomb(&w, limits::kMaxBlockParents,
                                   sizeof(chain::BlockHash));
  auto block = chain::Block::Deserialize(bomb);
  ASSERT_FALSE(block.ok());
  EXPECT_EQ(block.status().message(), "parent count exceeds limit");
}

TEST(LimitsTest, BlockTransactionLimitBombRejected) {
  serial::Writer w;
  w.WriteString("");     // user_id
  w.WriteU64(1);         // timestamp
  w.WriteBool(false);    // no location
  w.WriteVarint(0);      // no parents
  const Bytes bomb = WithLimitBomb(&w, limits::kMaxBlockTransactions, 1);
  auto block = chain::Block::Deserialize(bomb);
  ASSERT_FALSE(block.ok());
  EXPECT_EQ(block.status().message(), "transaction count exceeds limit");
}

TEST(LimitsTest, TransactionArgLimitBombRejected) {
  serial::Writer w;
  w.WriteString("crdt");
  w.WriteString("op");
  const Bytes bomb = WithLimitBomb(&w, limits::kMaxTransactionArgs, 1);
  serial::Reader r(bomb);
  chain::Transaction tx;
  const Status status = chain::Transaction::Decode(&r, &tx);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "transaction argument count exceeds limit");
}

// ------------------------------------------------------ witness proofs

void WriteProofPrefix(serial::Writer* w) {
  w->WriteString("vegvisir-witness-proof-v1");
  chain::BlockHash target;
  target.fill(0x11);
  w->WriteFixed(target);
}

TEST(LimitsTest, ProofPathLimitBombRejected) {
  serial::Writer w;
  WriteProofPrefix(&w);
  const Bytes bomb = WithLimitBomb(&w, limits::kMaxProofPaths, 1);
  auto proof = chain::WitnessProof::Deserialize(bomb);
  ASSERT_FALSE(proof.ok());
  EXPECT_EQ(proof.status().message(), "path count exceeds limit");
}

TEST(LimitsTest, ProofPathBlockLimitBombRejected) {
  serial::Writer w;
  WriteProofPrefix(&w);
  w.WriteVarint(1);  // one path...
  const Bytes bomb =  // ...whose block count is the bomb
      WithLimitBomb(&w, limits::kMaxProofPathBlocks, 1);
  auto proof = chain::WitnessProof::Deserialize(bomb);
  ASSERT_FALSE(proof.ok());
  EXPECT_EQ(proof.status().message(), "block count exceeds limit");
}

TEST(LimitsTest, ProofCertLimitBombRejected) {
  serial::Writer w;
  WriteProofPrefix(&w);
  w.WriteVarint(0);  // no paths
  const Bytes bomb = WithLimitBomb(&w, limits::kMaxProofCerts, 1);
  auto proof = chain::WitnessProof::Deserialize(bomb);
  ASSERT_FALSE(proof.ok());
  EXPECT_EQ(proof.status().message(), "cert count exceeds limit");
}

// ------------------------------------------------ persisted chain file

chain::Block TestGenesis() {
  const crypto::KeyPair keys = crypto::KeyPair::FromSeed([] {
    std::array<std::uint8_t, crypto::kEd25519SeedSize> s;
    s.fill(0x55);
    return s;
  }());
  return chain::GenesisBuilder("limit-chain").Build("owner", keys);
}

// Wraps a chain-store payload in the magic + trailing checksum frame.
Bytes FrameDagFile(const Bytes& payload) {
  Bytes file(8, 0);
  std::memcpy(file.data(), "VGVSDAG1", 8);
  Append(&file, payload);
  const crypto::Sha256Digest checksum = crypto::Sha256::Hash(payload);
  Append(&file, ByteSpan(checksum.data(), checksum.size()));
  return file;
}

TEST(LimitsTest, StoreBlockLimitBombRejected) {
  serial::Writer w;
  w.WriteBytes(TestGenesis().Serialize());
  const Bytes payload = WithLimitBomb(&w, limits::kMaxStoreBlocks, 1);
  auto dag = chain::DeserializeDag(FrameDagFile(payload));
  ASSERT_FALSE(dag.ok());
  EXPECT_EQ(dag.status().message(), "block count exceeds limit");
}

TEST(LimitsTest, StubEncodedSizeLimitRejected) {
  serial::Writer w;
  w.WriteBytes(TestGenesis().Serialize());
  w.WriteVarint(1);  // one non-genesis entry
  w.WriteU8(0);      // kTagEvicted
  chain::BlockHash stub;
  stub.fill(0x66);
  w.WriteFixed(stub);
  w.WriteVarint(0);   // no parents
  w.WriteString("");  // creator
  w.WriteU64(1);      // timestamp
  w.WriteVarint(limits::kMaxStubEncodedBytes + 1);  // claimed size
  auto dag = chain::DeserializeDag(FrameDagFile(w.Take()));
  ASSERT_FALSE(dag.ok());
  EXPECT_EQ(dag.status().message(), "stub encoded size exceeds limit");
}

// ---------------------------------------------- membership & snapshots

TEST(LimitsTest, MemberLimitBombRejected) {
  serial::Writer w;
  w.WriteBool(false);  // no CA key
  const Bytes bomb = WithLimitBomb(&w, limits::kMaxMembers, 1);
  serial::Reader r(bomb);
  csm::Membership membership;
  const Status status = membership.DecodeState(&r);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "member count exceeds limit");
}

TEST(LimitsTest, RevocationLimitBombRejected) {
  serial::Writer w;
  w.WriteBool(false);  // no CA key
  w.WriteVarint(1);    // one member record
  w.WriteString("u");
  chain::Certificate cert;  // all-zero cert is structurally valid
  cert.Encode(&w);
  w.WriteBool(false);  // not revoked
  const Bytes bomb = WithLimitBomb(&w, limits::kMaxRevocationBlocks,
                                   sizeof(chain::BlockHash));
  serial::Reader r(bomb);
  csm::Membership membership;
  const Status status = membership.DecodeState(&r);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "revocation count exceeds limit");
}

// A fresh StateMachine snapshot ends with three zero varints —
// instance count, op-log count, applied-block count — followed by the
// SHA-256 checksum. The checksum protects against corruption, not
// tampering (it is attacker-computable), so a hostile snapshot can
// replace the tail sections and legally reach each count check.
// `keep` says how many of the three zero counts to leave in place
// before appending `tail`.
Bytes SnapshotWithTail(int keep, const Bytes& tail) {
  csm::StateMachine sm;
  Bytes payload = sm.SaveSnapshot();
  payload.resize(payload.size() - crypto::kSha256DigestSize);
  for (int i = 0; i < 3 - keep; ++i) {
    EXPECT_EQ(payload.back(), 0x00);
    payload.pop_back();
  }
  Append(&payload, tail);
  const crypto::Sha256Digest checksum = crypto::Sha256::Hash(payload);
  Append(&payload, ByteSpan(checksum.data(), checksum.size()));
  return payload;
}

TEST(LimitsTest, CsmInstanceLimitBombRejected) {
  serial::Writer w;
  const Bytes tail = WithLimitBomb(&w, limits::kMaxCsmInstances, 1);
  csm::StateMachine victim;
  const Status status = victim.LoadSnapshot(SnapshotWithTail(0, tail));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "instance count exceeds limit");
}

TEST(LimitsTest, CsmOpLogLimitBombRejected) {
  serial::Writer w;
  const Bytes tail = WithLimitBomb(&w, limits::kMaxOpLogCrdts, 1);
  csm::StateMachine victim;
  const Status status = victim.LoadSnapshot(SnapshotWithTail(1, tail));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "op-log count exceeds limit");
}

TEST(LimitsTest, CsmOpRecordLimitBombRejected) {
  serial::Writer w;
  w.WriteVarint(1);          // one op-log crdt...
  w.WriteString("target");   // ...by this name...
  const Bytes tail =         // ...whose record count is the bomb
      WithLimitBomb(&w, limits::kMaxOpRecords, 1);
  csm::StateMachine victim;
  const Status status = victim.LoadSnapshot(SnapshotWithTail(1, tail));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "record count exceeds limit");
}

TEST(LimitsTest, CsmOpArgLimitBombRejected) {
  serial::Writer w;
  w.WriteVarint(1);         // one op-log crdt
  w.WriteString("target");
  w.WriteVarint(1);         // one record...
  w.WriteString("op");
  const Bytes tail =        // ...whose arg count is the bomb
      WithLimitBomb(&w, limits::kMaxOpArgs, 1);
  csm::StateMachine victim;
  const Status status = victim.LoadSnapshot(SnapshotWithTail(1, tail));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "arg count exceeds limit");
}

TEST(LimitsTest, CsmAppliedBlockLimitBombRejected) {
  // The big one: (2^18 + 1) x 32 bytes of padding (~8 MiB) — the
  // attacker pays for every byte, and the cap still holds.
  serial::Writer w;
  const Bytes tail = WithLimitBomb(&w, limits::kMaxAppliedBlocks,
                                   sizeof(chain::BlockHash));
  csm::StateMachine victim;
  const Status status = victim.LoadSnapshot(SnapshotWithTail(2, tail));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "applied-block count exceeds limit");
}

// --------------------------------------------------------- CRDT state

TEST(LimitsTest, CrdtElementLimitBombRejected) {
  serial::Writer w;
  w.WriteI64(0);  // total
  const Bytes bomb = WithLimitBomb(&w, limits::kMaxCrdtElements, 1);
  serial::Reader r(bomb);
  crdt::GCounter counter(crdt::ValueType::kInt);
  const Status status = counter.DecodeState(&r);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "per-user count exceeds limit");
}

// ------------------------------------------- durable block log (storage/)

TEST(LimitsTest, LogRecordLengthAboveLimitRejected) {
  // A record header claiming kMaxLogRecordBytes + 1: the parse must
  // reject on the length field alone, before any caller allocates.
  const Bytes header = storage::EncodeRecordHeader(
      static_cast<std::uint32_t>(limits::kMaxLogRecordBytes + 1), 0);
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  const Status status =
      storage::ParseRecordHeader(header, &length, &crc);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "log record length exceeds limit");
  // The cap itself is fine.
  const Bytes max_header = storage::EncodeRecordHeader(
      static_cast<std::uint32_t>(limits::kMaxLogRecordBytes), 0);
  EXPECT_TRUE(storage::ParseRecordHeader(max_header, &length, &crc).ok());
}

TEST(LimitsTest, SegmentRecordCountAboveLimitTruncatedAtCap) {
  // A segment file claiming kMaxSegmentRecords + 1 records (possible
  // only via corruption — the appender rolls long before the cap):
  // recovery keeps exactly the cap and truncates the excess instead
  // of looping without bound.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "vgv_limits_segcap").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream seg(dir + "/" + storage::SegmentFileName(0),
                      std::ios::binary);
    const Bytes head = storage::EncodeSegmentHeader(0);
    seg.write(reinterpret_cast<const char*>(head.data()),
              static_cast<std::streamsize>(head.size()));
    // One-byte records: 9 bytes each, ~590 KiB total for cap + 1.
    const Bytes byte_payload(1, 0x5A);
    const Bytes rec_head = storage::EncodeRecordHeader(
        1, storage::Crc32(byte_payload));
    Bytes record = rec_head;
    Append(&record, byte_payload);
    for (std::uint64_t i = 0; i < limits::kMaxSegmentRecords + 1; ++i) {
      seg.write(reinterpret_cast<const char*>(record.data()),
                static_cast<std::streamsize>(record.size()));
    }
  }
  telemetry::Telemetry telem;
  storage::BlockLog::Options opts;
  opts.dir = dir;
  opts.telemetry = &telem;
  auto log = storage::BlockLog::Open(std::move(opts));
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->record_count(), limits::kMaxSegmentRecords);
  EXPECT_EQ((*log)->recovery().records_truncated, 1u);
}

TEST(LimitsTest, SegmentFileAboveSizeLimitFailsOpen) {
  // Recovery reads a whole segment into one buffer sized from the
  // file length, so a file longer than Append can ever write
  // (possible only via corruption) must fail Open before that buffer
  // exists. A sparse file keeps the test cheap.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "vgv_limits_segsize").string();
  const std::string path = dir + "/" + storage::SegmentFileName(0);
  const auto open_with_size = [&](std::uint64_t size) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
      std::ofstream seg(path, std::ios::binary);
      const Bytes head = storage::EncodeSegmentHeader(0);
      seg.write(reinterpret_cast<const char*>(head.data()),
                static_cast<std::streamsize>(head.size()));
    }
    std::filesystem::resize_file(path, size);
    telemetry::Telemetry telem;
    storage::BlockLog::Options opts;
    opts.dir = dir;
    opts.telemetry = &telem;
    return storage::BlockLog::Open(std::move(opts)).status();
  };
  const Status over = open_with_size(storage::kMaxSegmentBytes + 1);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.message().find("segment size exceeds limit"),
            std::string::npos)
      << over.ToString();
  // At the limit the file is read; its zero tail is a torn record.
  EXPECT_TRUE(open_with_size(storage::kMaxSegmentBytes).ok());
  EXPECT_EQ(std::filesystem::file_size(path), storage::kSegmentHeaderBytes);
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- CheckWireCount

TEST(LimitsTest, CheckWireCountOrdersInputBoundBeforeCap) {
  // Short bombs keep the historical "exceeds input" verdict (pinned
  // by corpus_test); only fully-paid-for counts reach the cap.
  const Status short_bomb =
      serial::CheckWireCount(1u << 20, 1u << 10, /*remaining=*/64,
                             /*min_elem_bytes=*/32, "thing");
  EXPECT_EQ(short_bomb.message(), "thing count exceeds input");
  const Status paid_bomb =
      serial::CheckWireCount(1u << 11, 1u << 10, /*remaining=*/1u << 18,
                             /*min_elem_bytes=*/32, "thing");
  EXPECT_EQ(paid_bomb.message(), "thing count exceeds limit");
  EXPECT_TRUE(serial::CheckWireCount(8, 1u << 10, 256, 32, "thing").ok());
  // min_elem_bytes == 0 disables the input-relative bound (for
  // variable-size elements whose minimum encoding is zero bytes).
  EXPECT_TRUE(serial::CheckWireCount(8, 1u << 10, 0, 0, "thing").ok());
}

}  // namespace
}  // namespace vegvisir

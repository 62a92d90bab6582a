#include "recon/messages.h"

#include "serial/limits.h"

namespace vegvisir::recon {
namespace {

void WriteHashes(serial::Writer* w, const std::vector<chain::BlockHash>& hs) {
  w->WriteVarint(hs.size());
  for (const chain::BlockHash& h : hs) w->WriteFixed(h);
}

Status ReadHashes(serial::Reader* r, std::vector<chain::BlockHash>* out) {
  std::uint64_t count;
  VEGVISIR_RETURN_IF_ERROR(r->ReadVarint(&count));
  VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
      count, serial::limits::kMaxFrontierHashes, r->remaining(),
      sizeof(chain::BlockHash), "hash"));
  out->clear();
  out->reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    chain::BlockHash h;
    VEGVISIR_RETURN_IF_ERROR(r->ReadFixed(&h));
    out->push_back(h);
  }
  return Status::Ok();
}

void WriteIds(serial::Writer* w, const std::vector<std::uint64_t>& ids) {
  w->WriteVarint(ids.size());
  for (const std::uint64_t id : ids) w->WriteU64(id);
}

Status ReadIds(serial::Reader* r, std::vector<std::uint64_t>* out) {
  std::uint64_t count;
  VEGVISIR_RETURN_IF_ERROR(r->ReadVarint(&count));
  VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
      count, serial::limits::kMaxDiffIds, r->remaining(),
      sizeof(std::uint64_t), "diff id"));
  out->assign(static_cast<std::size_t>(count), 0);
  for (std::uint64_t& id : *out) VEGVISIR_RETURN_IF_ERROR(r->ReadU64(&id));
  return Status::Ok();
}

void WriteBlockList(serial::Writer* w, const std::vector<Bytes>& blocks) {
  w->WriteVarint(blocks.size());
  for (const Bytes& b : blocks) w->WriteBytes(b);
}

Status ReadBlockList(serial::Reader* r, std::vector<Bytes>* out) {
  std::uint64_t count;
  VEGVISIR_RETURN_IF_ERROR(r->ReadVarint(&count));
  VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
      count, serial::limits::kMaxWireBlocks, r->remaining(), 1, "block"));
  out->clear();
  out->reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Bytes b;
    VEGVISIR_RETURN_IF_ERROR(r->ReadBytes(&b));
    out->push_back(std::move(b));
  }
  return Status::Ok();
}

Status ExpectType(serial::Reader* r, MessageType expected) {
  std::uint8_t tag;
  VEGVISIR_RETURN_IF_ERROR(r->ReadU8(&tag));
  if (tag != static_cast<std::uint8_t>(expected)) {
    return InvalidArgumentError("unexpected message type");
  }
  return Status::Ok();
}

}  // namespace

Bytes EncodeMessage(const FrontierRequest& m) {
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(MessageType::kFrontierRequest));
  w.WriteU32(m.level);
  w.WriteBool(m.hashes_only);
  w.WriteFixed(m.genesis);
  w.WriteFixed(m.frontier_digest);
  return w.Take();
}

Bytes EncodeMessage(const FrontierResponse& m) {
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(MessageType::kFrontierResponse));
  w.WriteU32(m.level);
  w.WriteFixed(m.genesis);
  WriteHashes(&w, m.hashes);
  WriteBlockList(&w, m.blocks);
  return w.Take();
}

Bytes EncodeMessage(const BlockRequest& m) {
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(MessageType::kBlockRequest));
  WriteHashes(&w, m.hashes);
  return w.Take();
}

Bytes EncodeMessage(const BlockResponse& m) {
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(MessageType::kBlockResponse));
  WriteBlockList(&w, m.blocks);
  return w.Take();
}

Bytes EncodeMessage(const PushBlocks& m) {
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(MessageType::kPushBlocks));
  WriteBlockList(&w, m.blocks);
  return w.Take();
}

Bytes EncodeMessage(const DiffProbe& m) {
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(MessageType::kDiffProbe));
  w.WriteVarint(m.begin);
  w.WriteVarint(m.set_size);
  w.WriteVarint(m.missing);
  return w.Take();
}

Bytes EncodeMessage(const DiffSketch& m) {
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(MessageType::kDiffSketch));
  w.WriteU64(m.seed);
  w.WriteVarint(m.set_size);
  w.WriteVarint(m.begin);
  setdiff::WriteSymbols(&w, m.symbols);
  return w.Take();
}

Bytes EncodeMessage(const DiffResult& m) {
  serial::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(MessageType::kDiffResult));
  WriteIds(&w, m.want);
  return w.Take();
}

StatusOr<MessageType> PeekType(ByteSpan data) {
  if (data.empty()) return InvalidArgumentError("empty message");
  const std::uint8_t tag = data[0];
  if (tag < static_cast<std::uint8_t>(MessageType::kFrontierRequest) ||
      tag > static_cast<std::uint8_t>(MessageType::kDiffResult)) {
    return InvalidArgumentError("unknown message type");
  }
  return static_cast<MessageType>(tag);
}

Status DecodeMessage(ByteSpan data, FrontierRequest* out) {
  serial::Reader r(data);
  VEGVISIR_RETURN_IF_ERROR(ExpectType(&r, MessageType::kFrontierRequest));
  VEGVISIR_RETURN_IF_ERROR(r.ReadU32(&out->level));
  VEGVISIR_RETURN_IF_ERROR(r.ReadBool(&out->hashes_only));
  VEGVISIR_RETURN_IF_ERROR(r.ReadFixed(&out->genesis));
  VEGVISIR_RETURN_IF_ERROR(r.ReadFixed(&out->frontier_digest));
  return r.ExpectEnd();
}

Status DecodeMessage(ByteSpan data, FrontierResponse* out) {
  serial::Reader r(data);
  VEGVISIR_RETURN_IF_ERROR(ExpectType(&r, MessageType::kFrontierResponse));
  VEGVISIR_RETURN_IF_ERROR(r.ReadU32(&out->level));
  VEGVISIR_RETURN_IF_ERROR(r.ReadFixed(&out->genesis));
  VEGVISIR_RETURN_IF_ERROR(ReadHashes(&r, &out->hashes));
  VEGVISIR_RETURN_IF_ERROR(ReadBlockList(&r, &out->blocks));
  return r.ExpectEnd();
}

Status DecodeMessage(ByteSpan data, BlockRequest* out) {
  serial::Reader r(data);
  VEGVISIR_RETURN_IF_ERROR(ExpectType(&r, MessageType::kBlockRequest));
  VEGVISIR_RETURN_IF_ERROR(ReadHashes(&r, &out->hashes));
  return r.ExpectEnd();
}

Status DecodeMessage(ByteSpan data, BlockResponse* out) {
  serial::Reader r(data);
  VEGVISIR_RETURN_IF_ERROR(ExpectType(&r, MessageType::kBlockResponse));
  VEGVISIR_RETURN_IF_ERROR(ReadBlockList(&r, &out->blocks));
  return r.ExpectEnd();
}

Status DecodeMessage(ByteSpan data, PushBlocks* out) {
  serial::Reader r(data);
  VEGVISIR_RETURN_IF_ERROR(ExpectType(&r, MessageType::kPushBlocks));
  VEGVISIR_RETURN_IF_ERROR(ReadBlockList(&r, &out->blocks));
  return r.ExpectEnd();
}

Status DecodeMessage(ByteSpan data, DiffProbe* out) {
  serial::Reader r(data);
  VEGVISIR_RETURN_IF_ERROR(ExpectType(&r, MessageType::kDiffProbe));
  VEGVISIR_RETURN_IF_ERROR(r.ReadVarint(&out->begin));
  // Not a wire count, but it sizes the responder's reply.
  if (out->begin > serial::limits::kMaxSymbols) {
    return InvalidArgumentError("symbol count exceeds limit");
  }
  VEGVISIR_RETURN_IF_ERROR(r.ReadVarint(&out->set_size));
  VEGVISIR_RETURN_IF_ERROR(r.ReadVarint(&out->missing));
  return r.ExpectEnd();
}

Status DecodeMessage(ByteSpan data, DiffSketch* out) {
  serial::Reader r(data);
  VEGVISIR_RETURN_IF_ERROR(ExpectType(&r, MessageType::kDiffSketch));
  VEGVISIR_RETURN_IF_ERROR(r.ReadU64(&out->seed));
  VEGVISIR_RETURN_IF_ERROR(r.ReadVarint(&out->set_size));
  VEGVISIR_RETURN_IF_ERROR(r.ReadVarint(&out->begin));
  if (out->begin > serial::limits::kMaxSymbols) {
    return InvalidArgumentError("symbol count exceeds limit");
  }
  VEGVISIR_RETURN_IF_ERROR(setdiff::ReadSymbols(&r, &out->symbols));
  return r.ExpectEnd();
}

Status DecodeMessage(ByteSpan data, DiffResult* out) {
  serial::Reader r(data);
  VEGVISIR_RETURN_IF_ERROR(ExpectType(&r, MessageType::kDiffResult));
  VEGVISIR_RETURN_IF_ERROR(ReadIds(&r, &out->want));
  return r.ExpectEnd();
}

const char* DecodeRejectName(const Status& status) {
  // The strings matched here are the exact messages this file and
  // serial/codec.cpp produce; tests/recon_reject_test.cpp pins each
  // mapping.
  const std::string& m = status.message();
  if (m == "empty message") return "empty";
  if (m == "unknown message type") return "unknown_type";
  // Covers "unexpected message type" (ExpectType) and the sessions'
  // "unexpected message for initiator/responder" routing verdicts.
  if (m.rfind("unexpected message", 0) == 0) return "unexpected_type";
  if (m.find("count exceeds input") != std::string::npos ||
      m.find("count exceeds limit") != std::string::npos) {
    return "count_overflow";
  }
  if (m == "truncated input") return "truncated";
  if (m == "trailing bytes after value") return "trailing";
  if (m == "non-minimal varint" || m == "varint too long" ||
      m == "varint overflows 64 bits" || m == "non-canonical bool") {
    return "noncanonical";
  }
  return "other";
}

}  // namespace vegvisir::recon

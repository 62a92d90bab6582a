#include "chain/store.h"

#include "crypto/sha256.h"
#include "serial/codec.h"
#include "serial/limits.h"
#include "util/fsio.h"

namespace vegvisir::chain {
namespace {

constexpr char kMagic[] = "VGVSDAG1";
constexpr std::size_t kMagicLen = 8;

constexpr std::uint8_t kTagStored = 1;
constexpr std::uint8_t kTagEvicted = 0;

}  // namespace

Bytes SerializeDag(const Dag& dag) {
  serial::Writer w;
  const Block* genesis = dag.Find(dag.genesis_hash());
  w.WriteBytes(genesis->Serialize());

  // Slot order: parents first, and the loaded DAG gets the same slots.
  const auto& order = dag.Hashes();
  w.WriteVarint(order.size() - 1);  // everything but the genesis
  for (const BlockHash& h : order) {
    if (h == dag.genesis_hash()) continue;
    const Block* block = dag.Find(h);
    if (block != nullptr) {
      w.WriteU8(kTagStored);
      w.WriteBytes(block->Serialize());
    } else {
      w.WriteU8(kTagEvicted);
      w.WriteFixed(h);
      const auto& parents = dag.ParentsOf(h);
      w.WriteVarint(parents.size());
      for (const BlockHash& p : parents) w.WriteFixed(p);
      w.WriteString(dag.CreatorOf(h));
      w.WriteU64(dag.TimestampOf(h));
      w.WriteVarint(0);  // encoded size unknown once evicted
    }
  }

  Bytes payload = w.Take();
  Bytes out(kMagic, kMagic + kMagicLen);
  const crypto::Sha256Digest checksum = crypto::Sha256::Hash(payload);
  Append(&out, payload);
  Append(&out, ByteSpan(checksum.data(), checksum.size()));
  return out;
}

StatusOr<Dag> DeserializeDag(ByteSpan data) {
  if (data.size() < kMagicLen + crypto::kSha256DigestSize) {
    return InvalidArgumentError("chain file too short");
  }
  if (!std::equal(kMagic, kMagic + kMagicLen, data.begin())) {
    return InvalidArgumentError("bad magic (not a Vegvisir chain file)");
  }
  const ByteSpan payload(data.data() + kMagicLen,
                         data.size() - kMagicLen - crypto::kSha256DigestSize);
  const ByteSpan stored_checksum(data.data() + data.size() -
                                     crypto::kSha256DigestSize,
                                 crypto::kSha256DigestSize);
  const crypto::Sha256Digest computed = crypto::Sha256::Hash(payload);
  if (!ConstantTimeEqual(stored_checksum,
                         ByteSpan(computed.data(), computed.size()))) {
    return InvalidArgumentError("checksum mismatch: file corrupted");
  }

  serial::Reader r(payload);
  Bytes genesis_raw;
  VEGVISIR_RETURN_IF_ERROR(r.ReadBytes(&genesis_raw));
  auto genesis = Block::Deserialize(genesis_raw);
  if (!genesis.ok()) return genesis.status();
  if (!genesis->header().parents.empty()) {
    return InvalidArgumentError("first block is not a genesis");
  }
  Dag dag(*std::move(genesis));

  std::uint64_t count;
  VEGVISIR_RETURN_IF_ERROR(r.ReadVarint(&count));
  VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
      count, serial::limits::kMaxStoreBlocks, r.remaining(), 1, "block"));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint8_t tag;
    VEGVISIR_RETURN_IF_ERROR(r.ReadU8(&tag));
    if (tag == kTagStored) {
      Bytes raw;
      VEGVISIR_RETURN_IF_ERROR(r.ReadBytes(&raw));
      auto block = Block::Deserialize(raw);
      if (!block.ok()) return block.status();
      VEGVISIR_RETURN_IF_ERROR(dag.Insert(*std::move(block)));
    } else if (tag == kTagEvicted) {
      BlockHash h;
      VEGVISIR_RETURN_IF_ERROR(r.ReadFixed(&h));
      std::uint64_t parent_count;
      VEGVISIR_RETURN_IF_ERROR(r.ReadVarint(&parent_count));
      VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
          parent_count, serial::limits::kMaxBlockParents, r.remaining(),
          sizeof(BlockHash), "parent"));
      std::vector<BlockHash> parents;
      parents.reserve(parent_count);
      for (std::uint64_t p = 0; p < parent_count; ++p) {
        BlockHash parent;
        VEGVISIR_RETURN_IF_ERROR(r.ReadFixed(&parent));
        parents.push_back(parent);
      }
      std::string creator;
      VEGVISIR_RETURN_IF_ERROR(r.ReadString(&creator));
      std::uint64_t timestamp;
      VEGVISIR_RETURN_IF_ERROR(r.ReadU64(&timestamp));
      std::uint64_t encoded_size;
      VEGVISIR_RETURN_IF_ERROR(r.ReadVarint(&encoded_size));
      if (encoded_size > serial::limits::kMaxStubEncodedBytes) {
        return InvalidArgumentError("stub encoded size exceeds limit");
      }
      VEGVISIR_RETURN_IF_ERROR(dag.InsertEvictedStub(
          h, std::move(parents), std::move(creator), timestamp,
          static_cast<std::size_t>(encoded_size)));
    } else {
      return InvalidArgumentError("unknown block tag in chain file");
    }
  }
  VEGVISIR_RETURN_IF_ERROR(r.ExpectEnd());
  return dag;
}

Status SaveDagToFile(const Dag& dag, const std::string& path) {
  // Durable, not just atomic: a checkpoint that can evaporate on
  // power loss is exactly what a flash-constrained device must not
  // ship (DESIGN.md §13 spells out the fsync ordering).
  return DurableWriteFile(path, SerializeDag(dag));
}

StatusOr<Dag> LoadDagFromFile(const std::string& path) {
  auto data = ReadFileBytes(path);
  if (!data.ok()) return data.status();
  return DeserializeDag(*data);
}

}  // namespace vegvisir::chain

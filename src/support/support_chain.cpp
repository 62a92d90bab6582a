#include "support/support_chain.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256.h"
#include "serial/codec.h"

namespace vegvisir::support {

SupportChain::SupportChain(chain::BlockHash vegvisir_genesis)
    : vegvisir_genesis_(vegvisir_genesis) {}

Status SupportChain::Archive(const std::vector<chain::Block>& batch,
                             std::uint64_t timestamp_ms) {
  // Validate the whole batch before mutating anything.
  std::set<chain::BlockHash> in_batch;
  for (const chain::Block& b : batch) in_batch.insert(b.hash());
  for (const chain::Block& b : batch) {
    if (IsArchived(b.hash()) || b.hash() == vegvisir_genesis_) {
      return AlreadyExistsError("block " + chain::HashShort(b.hash()) +
                                " already archived");
    }
    for (const chain::BlockHash& p : b.header().parents) {
      if (p == vegvisir_genesis_ || IsArchived(p) || in_batch.count(p) > 0) {
        continue;
      }
      return FailedPreconditionError(
          "archiving " + chain::HashShort(b.hash()) + " before its parent " +
          chain::HashShort(p) + " breaks topological order");
    }
  }
  // Within the batch, parents must come first too.
  std::set<chain::BlockHash> seen;
  for (const chain::Block& b : batch) {
    for (const chain::BlockHash& p : b.header().parents) {
      if (in_batch.count(p) > 0 && seen.count(p) == 0) {
        return FailedPreconditionError("batch not in topological order");
      }
    }
    seen.insert(b.hash());
  }

  SupportBlock sb;
  sb.index = blocks_.size();
  sb.prev = blocks_.empty() ? vegvisir_genesis_ : blocks_.back().hash;
  sb.timestamp_ms = timestamp_ms;
  for (const chain::Block& b : batch) {
    sb.payload.push_back(b.hash());
    bodies_.emplace(b.hash(), b);
  }
  sb.hash = ComputeHash(sb);
  blocks_.push_back(std::move(sb));
  return Status::Ok();
}

bool SupportChain::IsArchived(const chain::BlockHash& h) const {
  return bodies_.count(h) > 0;
}

const chain::Block* SupportChain::Fetch(const chain::BlockHash& h) const {
  const auto it = bodies_.find(h);
  return it == bodies_.end() ? nullptr : &it->second;
}

chain::BlockHash SupportChain::ComputeHash(const SupportBlock& sb) const {
  serial::Writer w;
  w.WriteString("vegvisir-support-v1");
  w.WriteU64(sb.index);
  w.WriteFixed(sb.prev);
  w.WriteU64(sb.timestamp_ms);
  w.WriteVarint(sb.payload.size());
  for (const chain::BlockHash& h : sb.payload) {
    w.WriteFixed(h);
    const auto it = bodies_.find(h);
    if (it != bodies_.end()) w.WriteBytes(it->second.Serialize());
  }
  const crypto::Sha256Digest d = crypto::Sha256::Hash(w.buffer());
  chain::BlockHash out;
  std::memcpy(out.data(), d.data(), out.size());
  return out;
}

SupportChain::SyncResult SupportChain::SyncFrom(const SupportChain& peer) {
  SyncResult result;
  if (!(peer.vegvisir_genesis_ == vegvisir_genesis_)) return result;
  if (!peer.VerifyChain()) return result;  // never adopt a broken chain

  // Longest chain wins; equal-length forks break ties on the smaller
  // tip hash so every superpeer picks the same winner.
  const bool peer_longer = peer.blocks_.size() > blocks_.size();
  const bool tie_peer_wins =
      peer.blocks_.size() == blocks_.size() && !blocks_.empty() &&
      !(peer.blocks_.back().hash == blocks_.back().hash) &&
      peer.blocks_.back().hash < blocks_.back().hash;
  if (!peer_longer && !tie_peer_wins) return result;

  // Anything we archived that the winner did not is de-archived.
  // bodies_ iterates in bucket order; sort so the report (and the
  // re-archival it triggers) is identical on every superpeer.
  for (const auto& [h, body] : bodies_) {
    if (!peer.IsArchived(h)) result.dearchived.push_back(h);
  }
  std::sort(result.dearchived.begin(), result.dearchived.end());
  result.new_blocks = peer.blocks_.size() -
                      [&] {
                        // Shared prefix length.
                        std::size_t i = 0;
                        while (i < blocks_.size() && i < peer.blocks_.size() &&
                               blocks_[i].hash == peer.blocks_[i].hash) {
                          ++i;
                        }
                        return i;
                      }();
  blocks_ = peer.blocks_;
  bodies_ = peer.bodies_;
  result.adopted = true;
  return result;
}

bool SupportChain::VerifyChain() const {
  chain::BlockHash prev = vegvisir_genesis_;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const SupportBlock& sb = blocks_[i];
    if (sb.index != i || !(sb.prev == prev)) return false;
    if (!(ComputeHash(sb) == sb.hash)) return false;
    prev = sb.hash;
  }
  return true;
}

}  // namespace vegvisir::support

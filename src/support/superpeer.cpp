#include "support/superpeer.h"

namespace vegvisir::support {

std::size_t Superpeer::SyncToSupport(std::uint64_t timestamp_ms) {
  const chain::Dag& dag = node_->dag();
  std::size_t archived = 0;
  std::vector<chain::Block> batch;
  // Slot order guarantees parents are archived (or batched) before
  // children, which Archive() requires.
  for (const chain::BlockHash& h : dag.Hashes()) {
    if (h == dag.genesis_hash() || chain_->IsArchived(h)) continue;
    const chain::Block* block = dag.Find(h);
    if (block == nullptr) continue;  // superpeer itself evicted it? skip
    batch.push_back(*block);
    if (batch.size() >= batch_size_) {
      if (chain_->Archive(batch, timestamp_ms).ok()) archived += batch.size();
      batch.clear();
    }
  }
  if (!batch.empty() && chain_->Archive(batch, timestamp_ms).ok()) {
    archived += batch.size();
  }
  c_blocks_archived_.Inc(archived);
  return archived;
}

std::size_t StorageManager::Enforce(const SupportChain* support) {
  if (support == nullptr) return 0;
  chain::Dag* dag = node_->mutable_dag();
  std::size_t evicted = 0;
  if (dag->StoredBytes() <= budget_bytes_) return 0;
  // "would only offload their oldest blocks" (paper §IV-I).
  for (const chain::BlockHash& h : dag->StoredOldestFirst()) {
    if (dag->StoredBytes() <= budget_bytes_) break;
    if (!support->IsArchived(h)) continue;  // never drop unarchived data
    const chain::Block* block = dag->Find(h);
    if (block == nullptr) continue;
    const std::size_t size = block->EncodedSize();
    if (dag->Evict(h).ok()) {
      evicted += 1;
      c_evictions_.Inc();
      c_bytes_reclaimed_.Inc(size);
    }
  }
  g_stored_bytes_.Set(static_cast<double>(dag->StoredBytes()));
  return evicted;
}

Status StorageManager::Refetch(const chain::BlockHash& h,
                               const SupportChain& support) {
  const chain::Block* block = support.Fetch(h);
  if (block == nullptr) {
    return NotFoundError("block not on support chain");
  }
  VEGVISIR_RETURN_IF_ERROR(node_->mutable_dag()->Restore(*block));
  c_refetches_.Inc();
  g_stored_bytes_.Set(static_cast<double>(node_->dag().StoredBytes()));
  return Status::Ok();
}

}  // namespace vegvisir::support

// The support blockchain (paper §IV-I, Fig. 4).
//
// Storage-constrained IoT devices offload old Vegvisir blocks to a
// traditional *linear* blockchain operated by higher-powered
// superpeers. Each support block's body is a batch of Vegvisir
// blocks; batches must be appended in an order consistent with the
// Vegvisir DAG's topological order (a block may only be archived
// after all of its parents). Once archived, a device may evict the
// block body locally and re-fetch it from a superpeer on demand.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "chain/block.h"
#include "chain/dag.h"
#include "chain/types.h"
#include "util/status.h"

namespace vegvisir::support {

struct SupportBlock {
  std::uint64_t index = 0;
  chain::BlockHash prev{};              // hash of the previous support block
  std::uint64_t timestamp_ms = 0;
  std::vector<chain::BlockHash> payload;  // archived Vegvisir block hashes
  chain::BlockHash hash{};              // over all of the above + bodies
};

class SupportChain {
 public:
  // `vegvisir_genesis` identifies the DAG this chain archives; the
  // genesis block counts as implicitly archived (every device has it).
  explicit SupportChain(chain::BlockHash vegvisir_genesis);

  // Archives a batch of Vegvisir blocks as one support block.
  // Fails (kFailedPrecondition) if any block's parent is neither the
  // genesis nor already archived — that would break the topological
  // order the paper requires — or if a block is already archived.
  Status Archive(const std::vector<chain::Block>& batch,
                 std::uint64_t timestamp_ms);

  bool IsArchived(const chain::BlockHash& h) const;

  // Body retrieval for devices that evicted a block.
  const chain::Block* Fetch(const chain::BlockHash& h) const;

  std::uint64_t Length() const { return blocks_.size(); }
  std::size_t ArchivedCount() const { return bodies_.size(); }
  const std::vector<SupportBlock>& blocks() const { return blocks_; }

  // Recomputes every link and hash; false if tampered.
  bool VerifyChain() const;

  // ---- superpeer replication (paper §IV-I: the support blockchain
  // "operates between the superpeers as well as in the cloud") ------
  struct SyncResult {
    bool adopted = false;           // we switched to the peer's chain
    std::size_t new_blocks = 0;     // support blocks gained
    // Vegvisir blocks whose archival fell off the losing fork; they
    // are still in every superpeer's DAG and get re-archived by the
    // next Superpeer::SyncToSupport, so no data is ever lost. Sorted
    // by hash — bodies_ is unordered, and every superpeer must report
    // (and re-archive) the same loss in the same order.
    std::vector<chain::BlockHash> dearchived;
  };

  // Longest-chain replication between superpeers, with a
  // deterministic tie-break (smaller tip hash wins), so all
  // superpeers converge on one linear chain. Refuses chains that do
  // not verify or belong to a different Vegvisir genesis.
  SyncResult SyncFrom(const SupportChain& peer);

 private:
  chain::BlockHash ComputeHash(const SupportBlock& sb) const;

  chain::BlockHash vegvisir_genesis_;
  std::vector<SupportBlock> blocks_;
  std::unordered_map<chain::BlockHash, chain::Block, chain::BlockHashHasher>
      bodies_;
};

}  // namespace vegvisir::support

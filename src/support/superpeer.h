// Superpeers and device-side storage management (paper §IV-I, Fig. 5).
//
// A superpeer is a higher-powered node (the "trucks" in Fig. 5) that
// participates in the Vegvisir DAG like any member and additionally
// copies new blocks onto the support blockchain, in topological
// order. A StorageManager enforces a byte budget on a constrained
// device: when the local DAG outgrows the budget, it evicts the
// oldest block bodies — but only ones already archived, so nothing is
// ever lost.
#pragma once

#include <cstddef>

#include "node/node.h"
#include "support/support_chain.h"

namespace vegvisir::support {

class Superpeer {
 public:
  // `node` is the superpeer's own Vegvisir node (full replica);
  // `chain` is the shared support blockchain (cloud-backed).
  Superpeer(node::Node* node, SupportChain* chain,
            std::size_t batch_size = 16)
      : node_(node),
        chain_(chain),
        batch_size_(batch_size),
        c_blocks_archived_(node->telemetry()->metrics.GetCounter(
            "support.blocks_archived")) {}

  // Archives every not-yet-archived block in the node's DAG, in slot
  // order (parents first), batching `batch_size` blocks per support
  // block. Returns the number of Vegvisir blocks archived.
  std::size_t SyncToSupport(std::uint64_t timestamp_ms);

 private:
  node::Node* node_;
  SupportChain* chain_;
  std::size_t batch_size_;
  telemetry::Counter c_blocks_archived_;
};

class StorageManager {
 public:
  // `budget_bytes` is the device's storage cap for block bodies. The
  // support.* offload counters land in the node's telemetry registry.
  StorageManager(node::Node* node, std::size_t budget_bytes)
      : node_(node),
        budget_bytes_(budget_bytes),
        c_evictions_(
            node->telemetry()->metrics.GetCounter("support.evictions")),
        c_bytes_reclaimed_(
            node->telemetry()->metrics.GetCounter("support.bytes_reclaimed")),
        c_refetches_(
            node->telemetry()->metrics.GetCounter("support.refetches")),
        g_stored_bytes_(
            node->telemetry()->metrics.GetGauge("support.stored_bytes")) {}

  // Evicts oldest archived block bodies until the DAG fits the
  // budget (or nothing more can be evicted). `support` may be null
  // (device out of superpeer range): then nothing is evicted, because
  // un-archived blocks must never be dropped.
  std::size_t Enforce(const SupportChain* support);

  // Brings an evicted block's body back from the support chain.
  Status Refetch(const chain::BlockHash& h, const SupportChain& support);

  std::size_t budget_bytes() const { return budget_bytes_; }

 private:
  node::Node* node_;
  std::size_t budget_bytes_;
  telemetry::Counter c_evictions_;
  telemetry::Counter c_bytes_reclaimed_;
  telemetry::Counter c_refetches_;
  telemetry::Gauge g_stored_bytes_;
};

}  // namespace vegvisir::support

// Whole-node checkpointing.
//
// Combines the two persistence layers into one device-flash image:
// the block DAG (chain/store.h) and the CSM snapshot
// (csm::StateMachine::SaveSnapshot), so a restarting device neither
// re-fetches history over the radio nor replays every transaction.
// The restored node verifies that the snapshot matches the DAG (the
// snapshot's applied-block set must equal the DAG's blocks); on any
// mismatch it falls back to a full deterministic replay, so a stale
// or corrupted snapshot can never cause divergence.
#pragma once

#include <string>

#include "node/node.h"
#include "util/status.h"

namespace vegvisir::storage {
class TieredStore;
}

namespace vegvisir::node {

// Writes `<path>.dag` and `<path>.csm`.
Status SaveCheckpoint(const Node& node, const std::string& path_prefix);

// Rebuilds a node from a checkpoint. `config` and `keys` are supplied
// by the caller (key material never touches the checkpoint files).
// Returns the restored node; `used_snapshot` (optional) reports
// whether the CSM snapshot was usable or a full replay happened.
StatusOr<std::unique_ptr<Node>> LoadCheckpoint(
    NodeConfig config, crypto::KeyPair keys, const std::string& path_prefix,
    bool* used_snapshot = nullptr);

// Rebuilds a node from its durable block log (storage/engine.h): the
// log is replayed into a fresh DAG and the CSM state is re-derived by
// deterministic replay, then the store is re-attached so subsequent
// blocks keep the write-ahead discipline. This is the crash-recovery
// path a device with a TieredStore uses instead of LoadCheckpoint —
// it recovers exactly the blocks that reached fsync before the crash.
StatusOr<std::unique_ptr<Node>> RecoverFromStorage(NodeConfig config,
                                                   crypto::KeyPair keys,
                                                   storage::TieredStore* store);

}  // namespace vegvisir::node

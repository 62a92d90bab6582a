#include "node/checkpoint.h"

#include "chain/store.h"
#include "storage/engine.h"
#include "util/fsio.h"

namespace vegvisir::node {

Status SaveCheckpoint(const Node& node, const std::string& path_prefix) {
  VEGVISIR_RETURN_IF_ERROR(
      chain::SaveDagToFile(node.dag(), path_prefix + ".dag"));
  return DurableWriteFile(path_prefix + ".csm", node.state().SaveSnapshot());
}

StatusOr<std::unique_ptr<Node>> LoadCheckpoint(NodeConfig config,
                                               crypto::KeyPair keys,
                                               const std::string& path_prefix,
                                               bool* used_snapshot) {
  auto dag = chain::LoadDagFromFile(path_prefix + ".dag");
  if (!dag.ok()) return dag.status();
  // A missing/corrupted snapshot degrades to replay, not to failure.
  Bytes snapshot;
  if (auto snap = ReadFileBytes(path_prefix + ".csm"); snap.ok()) {
    snapshot = *std::move(snap);
  }
  return Node::Restore(std::move(config), std::move(keys), *std::move(dag),
                       snapshot, used_snapshot);
}

StatusOr<std::unique_ptr<Node>> RecoverFromStorage(NodeConfig config,
                                                   crypto::KeyPair keys,
                                                   storage::TieredStore* store) {
  auto dag = store->RecoverDag(config.exec_pool);
  if (!dag.ok()) return dag.status();
  // No snapshot on purpose: the log's replay order is deterministic,
  // so replaying through the CSM reproduces the pre-crash state for
  // every block that reached fsync — and only those.
  auto node = Node::Restore(std::move(config), std::move(keys),
                            *std::move(dag), ByteSpan());
  if (!node.ok()) return node.status();
  VEGVISIR_RETURN_IF_ERROR((*node)->AttachStorage(store));
  return node;
}

}  // namespace vegvisir::node

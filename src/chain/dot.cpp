#include "chain/dot.h"

namespace vegvisir::chain {

std::string DagToDot(const Dag& dag, const DotOptions& options) {
  std::string out = "digraph vegvisir {\n  rankdir=BT;\n";
  const auto frontier = dag.Frontier();
  const auto is_frontier = [&](const BlockHash& h) {
    for (const BlockHash& f : frontier) {
      if (f == h) return true;
    }
    return false;
  };

  for (const BlockHash& h : dag.Hashes()) {
    std::string label = HashShort(h);
    if (options.show_creator) label += "\\n" + dag.CreatorOf(h);
    if (options.show_timestamp) {
      label += "\\nt=" + std::to_string(dag.TimestampOf(h));
    }
    std::string attrs = "label=\"" + label + "\"";
    if (options.mark_frontier && is_frontier(h)) {
      attrs += ", peripheries=2";
    }
    if (options.mark_evicted &&
        dag.PresenceOf(h) == Presence::kEvicted) {
      attrs += ", style=dashed";
    }
    if (h == dag.genesis_hash()) attrs += ", shape=box";
    out += "  \"" + HashShort(h) + "\" [" + attrs + "];\n";
    for (const BlockHash& p : dag.ParentsOf(h)) {
      out += "  \"" + HashShort(h) + "\" -> \"" + HashShort(p) + "\";\n";
    }
  }
  out += "}\n";
  return out;
}

Status ParseTxId(const std::string& tx_id, BlockHash* block,
                 std::size_t* index) {
  const std::size_t colon = tx_id.find(':');
  if (colon != 64 || colon + 1 >= tx_id.size()) {
    return InvalidArgumentError("tx id is not <64-hex>:<index>");
  }
  Bytes raw;
  if (!FromHex(tx_id.substr(0, colon), &raw) || raw.size() != block->size()) {
    return InvalidArgumentError("tx id hash is not valid hex");
  }
  std::copy(raw.begin(), raw.end(), block->begin());
  std::size_t idx = 0;
  for (std::size_t i = colon + 1; i < tx_id.size(); ++i) {
    const char c = tx_id[i];
    if (c < '0' || c > '9') {
      return InvalidArgumentError("tx id index is not decimal");
    }
    idx = idx * 10 + static_cast<std::size_t>(c - '0');
    if (idx > 1'000'000) {
      return InvalidArgumentError("tx id index is implausibly large");
    }
  }
  *index = idx;
  return Status::Ok();
}

bool HappensBefore(const Dag& dag, const std::string& tx_a,
                   const std::string& tx_b) {
  BlockHash block_a, block_b;
  std::size_t index_a, index_b;
  if (!ParseTxId(tx_a, &block_a, &index_a).ok() ||
      !ParseTxId(tx_b, &block_b, &index_b).ok()) {
    return false;
  }
  if (!dag.Contains(block_a) || !dag.Contains(block_b)) return false;
  if (block_a == block_b) {
    // Transactions within a block are totally ordered (paper §IV-A).
    return index_a < index_b;
  }
  return dag.IsAncestor(block_a, block_b);
}

}  // namespace vegvisir::chain

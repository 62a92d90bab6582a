#include "chain/audit.h"

#include <cstring>

#include "crypto/sha256.h"

namespace vegvisir::chain {

AuditReport AuditDag(const Dag& dag, const MembershipView& membership) {
  AuditReport report;
  for (const BlockHash& h : dag.Hashes()) {
    ++report.blocks_checked;
    const Block* block = dag.Find(h);
    if (block == nullptr) {
      // Evicted: the hash itself is still pinned by its children's
      // parent links, so history cannot have been rewritten — but the
      // body is elsewhere (support chain) and cannot be re-checked
      // here.
      ++report.bodies_missing;
      continue;
    }

    // 1. The stored bytes must hash to the key they are filed under
    //    (defends against bit rot / tampering in loaded replicas).
    const Bytes raw = block->Serialize();
    const crypto::Sha256Digest digest = crypto::Sha256::Hash(raw);
    BlockHash recomputed;
    std::memcpy(recomputed.data(), digest.data(), recomputed.size());
    if (!(recomputed == h)) {
      report.issues.push_back({h, "stored bytes do not hash to block id"});
      continue;
    }

    // 2. Signature against the creator's certificate.
    const Certificate* cert =
        membership.FindCertificate(block->header().user_id);
    if (cert == nullptr) {
      report.issues.push_back(
          {h, "creator '" + block->header().user_id + "' has no certificate"});
    } else if (!block->VerifySignature(cert->public_key)) {
      report.issues.push_back({h, "signature does not verify"});
    } else {
      ++report.signatures_verified;
    }

    // 3. Timestamps strictly increase along every parent edge.
    if (!block->header().parents.empty()) {
      const std::uint64_t max_parent =
          dag.MaxParentTimestamp(block->header().parents);
      if (block->header().timestamp_ms <= max_parent) {
        report.issues.push_back({h, "timestamp not after parents'"});
      }
    }
  }
  return report;
}

std::vector<ProvenanceEntry> ExtractProvenance(const Dag& dag,
                                               const std::string& crdt_name) {
  std::vector<ProvenanceEntry> entries;
  for (const BlockHash& h : dag.Hashes()) {
    const Block* block = dag.Find(h);
    if (block == nullptr) continue;
    for (const Transaction& tx : block->transactions()) {
      if (!crdt_name.empty() && tx.crdt_name != crdt_name) continue;
      ProvenanceEntry entry;
      entry.block = h;
      entry.creator = block->header().user_id;
      entry.timestamp_ms = block->header().timestamp_ms;
      entry.location = block->header().location;
      entry.transaction = tx;
      entries.push_back(std::move(entry));
    }
  }
  return entries;
}

}  // namespace vegvisir::chain

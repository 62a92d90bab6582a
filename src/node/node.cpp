#include "node/node.h"

#include <algorithm>

#include "serial/codec.h"
#include "storage/engine.h"

namespace vegvisir::node {

Node::Node(NodeConfig config, chain::Block genesis, crypto::KeyPair keys)
    : config_(std::move(config)),
      keys_(std::move(keys)),
      owned_telem_(config_.telemetry != nullptr
                       ? nullptr
                       : std::make_unique<telemetry::Telemetry>()),
      telem_(config_.telemetry != nullptr ? config_.telemetry
                                          : owned_telem_.get()),
      c_blocks_created_(telem_->metrics.GetCounter("node.blocks_created")),
      c_blocks_accepted_(telem_->metrics.GetCounter("node.blocks_accepted")),
      c_blocks_rejected_(telem_->metrics.GetCounter("node.blocks_rejected")),
      c_blocks_quarantined_(
          telem_->metrics.GetCounter("node.blocks_quarantined")),
      c_quarantine_expired_(
          telem_->metrics.GetCounter("node.quarantine_expired")),
      c_foreign_dropped_(telem_->metrics.GetCounter("node.foreign_dropped")),
      g_quarantine_size_(telem_->metrics.GetGauge("node.quarantine_size")),
      presig_(config_.exec_pool, telem_),
      dag_(genesis),
      csm_(config_.csm, telem_) {
  clock_ = [this] { return manual_time_ms_; };
  // The genesis block bootstraps the CA and the membership set.
  csm_.ApplyBlock(*dag_.Find(dag_.genesis_hash()));
}

StatusOr<std::unique_ptr<Node>> Node::Restore(NodeConfig config,
                                              crypto::KeyPair keys,
                                              chain::Dag dag,
                                              ByteSpan csm_snapshot,
                                              bool* used_snapshot) {
  const chain::Block* genesis = dag.Find(dag.genesis_hash());
  if (genesis == nullptr) {
    return FailedPreconditionError("DAG genesis body missing");
  }
  auto node = std::make_unique<Node>(std::move(config), *genesis,
                                     std::move(keys));

  // Try the snapshot first: it must cover exactly the DAG's blocks.
  bool snapshot_ok = false;
  if (!csm_snapshot.empty()) {
    csm::StateMachine candidate(node->config_.csm, node->telem_);
    if (candidate.LoadSnapshot(csm_snapshot).ok() &&
        candidate.AppliedBlockCount() == dag.Size()) {
      snapshot_ok = true;
      for (const chain::BlockHash& h : dag.Hashes()) {
        if (!candidate.HasApplied(h)) {
          snapshot_ok = false;
          break;
        }
      }
      if (snapshot_ok) node->csm_ = std::move(candidate);
    }
  }

  if (!snapshot_ok) {
    // Full replay in slot order, the order the live node applied its
    // blocks in; every body must be present.
    csm::StateMachine fresh(node->config_.csm, node->telem_);
    for (const chain::BlockHash& h : dag.Hashes()) {
      const chain::Block* block = dag.Find(h);
      if (block == nullptr) {
        return FailedPreconditionError(
            "cannot replay: block body evicted and no usable snapshot; "
            "refetch bodies from the support chain first");
      }
      fresh.ApplyBlock(*block);
    }
    node->csm_ = std::move(fresh);
  }

  node->dag_ = std::move(dag);
  if (used_snapshot != nullptr) *used_snapshot = snapshot_ok;
  return node;
}

Status Node::AttachStorage(storage::TieredStore* store) {
  if (store == nullptr) {
    storage_ = nullptr;
    return Status::Ok();
  }
  if (store->GetStats().log_records == 0) {
    // Fresh log under an existing DAG (first attach, or a node loaded
    // from checkpoint files): seed it so the log's replay covers
    // everything the node already acked. Slot order keeps the
    // parents-before-children invariant RecoverDag relies on.
    for (const chain::BlockHash& h : dag_.Hashes()) {
      const chain::Block* block = dag_.Find(h);
      if (block == nullptr) {
        return FailedPreconditionError(
            "cannot bootstrap storage: block body evicted");
      }
      VEGVISIR_RETURN_IF_ERROR(store->Append(*block));
    }
  }
  storage_ = store;
  storage_->UpdateResidency(dag_);
  return Status::Ok();
}

void Node::SetClock(std::function<std::uint64_t()> clock) {
  clock_ = std::move(clock);
}

std::uint64_t Node::NowMs() const { return clock_(); }

Status Node::PrecheckTransactions(
    const std::vector<chain::Transaction>& txns) const {
  if (txns.empty()) return Status::Ok();  // witness blocks are legal
  for (const chain::Transaction& tx : txns) {
    if (tx.crdt_name.rfind("__", 0) == 0) continue;  // CSM-validated
    const crdt::Crdt* crdt = csm_.FindCrdt(tx.crdt_name);
    if (crdt == nullptr) {
      return NotFoundError("CRDT '" + tx.crdt_name +
                           "' does not exist locally; create it first");
    }
    VEGVISIR_RETURN_IF_ERROR(crdt->CheckOp(tx.op, tx.args));
    const csm::AclPolicy* policy = csm_.PolicyOf(tx.crdt_name);
    const std::string role = csm_.membership().RoleOf(config_.user_id);
    if (policy != nullptr && !policy->IsAllowed(role, tx.op)) {
      return PermissionDeniedError("role '" + role + "' may not '" + tx.op +
                                   "' on '" + tx.crdt_name + "'");
    }
  }
  return Status::Ok();
}

StatusOr<chain::BlockHash> Node::Submit(
    std::vector<chain::Transaction> txns,
    std::optional<chain::GeoLocation> location) {
  VEGVISIR_RETURN_IF_ERROR(PrecheckTransactions(txns));

  chain::BlockHeader header;
  header.user_id = config_.user_id;
  header.location = location;
  header.parents = dag_.Frontier();
  // Strictly after every parent, and never behind our own clock.
  header.timestamp_ms =
      std::max(NowMs(), dag_.MaxParentTimestamp(header.parents) + 1);

  const chain::Block block =
      chain::Block::Create(std::move(header), std::move(txns), keys_);
  if (meter_ != nullptr) {
    meter_->AddSign();
    meter_->AddHash(block.EncodedSize());
  }

  const chain::BlockVerdict verdict = AdmitBlock(block);
  if (verdict != chain::BlockVerdict::kValid) {
    // Most common cause: this node's certificate is not on the chain
    // yet (the owner must enrol it first).
    return FailedPreconditionError(
        "own block failed validation (is this node enrolled?)");
  }
  c_blocks_created_.Inc();
  return block.hash();
}

StatusOr<chain::BlockHash> Node::CreateCrdt(const std::string& name,
                                            crdt::CrdtType type,
                                            crdt::ValueType element_type,
                                            const csm::AclPolicy& policy) {
  return Submit({csm::StateMachine::MakeCreateTx(name, type, element_type,
                                                 policy)});
}

StatusOr<chain::BlockHash> Node::AppendOp(const std::string& crdt_name,
                                          const std::string& op,
                                          std::vector<crdt::Value> args) {
  chain::Transaction tx;
  tx.crdt_name = crdt_name;
  tx.op = op;
  tx.args = std::move(args);
  return Submit({std::move(tx)});
}

StatusOr<chain::BlockHash> Node::EnrollUser(const chain::Certificate& cert) {
  return Submit({csm::StateMachine::MakeAddUserTx(cert)});
}

StatusOr<chain::BlockHash> Node::RevokeUser(const chain::Certificate& cert) {
  return Submit({csm::StateMachine::MakeRevokeUserTx(cert)});
}

StatusOr<chain::BlockHash> Node::AddWitnessBlock() { return Submit({}); }

chain::BlockVerdict Node::AdmitBlock(const chain::Block& block) {
  const chain::ValidationResult result =
      chain::ValidateBlock(block, dag_, csm_.membership(), NowMs(),
                           config_.validation, &presig_);
  // Energy accounting stays per-validation regardless of whether the
  // Ed25519 check was batched: the joules were spent either way.
  if (meter_ != nullptr) {
    meter_->AddVerify();
    meter_->AddHash(block.EncodedSize());
  }
  // A final verdict consumes the pre-verification entry; kRetryLater
  // keeps it for the quarantine sweep.
  if (result.verdict != chain::BlockVerdict::kRetryLater) {
    presig_.Forget(block.hash());
  }
  telem_->trace.RecordInstant("block.validate", NowMs(),
                              static_cast<std::uint64_t>(result.verdict));
  switch (result.verdict) {
    case chain::BlockVerdict::kValid: {
      // Write-ahead: the block must be durable before the DAG (and the
      // CSM behind it) acks it. A transient persist failure (ENOSPC,
      // injected torn write) parks the block instead of losing it.
      if (!PersistBlock(block)) {
        Park(block);
        return chain::BlockVerdict::kRetryLater;
      }
      const Status s = dag_.Insert(block);
      if (!s.ok()) return chain::BlockVerdict::kReject;  // cannot happen
      csm_.ApplyBlock(block);
      return chain::BlockVerdict::kValid;
    }
    case chain::BlockVerdict::kRetryLater: {
      Park(block);
      return chain::BlockVerdict::kRetryLater;
    }
    case chain::BlockVerdict::kReject:
      c_blocks_rejected_.Inc();
      return chain::BlockVerdict::kReject;
  }
  return chain::BlockVerdict::kReject;
}

bool Node::PersistBlock(const chain::Block& block) {
  if (storage_ == nullptr) return true;
  return storage_->Append(block).ok();
}

void Node::Park(const chain::Block& block) {
  if (quarantine_.size() >= config_.quarantine_cap) {
    presig_.Forget(quarantine_.begin()->first);
    quarantine_.erase(quarantine_.begin());
  }
  if (quarantine_.emplace(block.hash(), QuarantineEntry{block, NowMs()})
          .second) {
    c_blocks_quarantined_.Inc();
  }
  g_quarantine_size_.Set(static_cast<double>(quarantine_.size()));
}

chain::BlockVerdict Node::OfferBlock(const chain::Block& block) {
  if (dag_.Contains(block.hash())) return chain::BlockVerdict::kValid;

  if (config_.drop_foreign_blocks &&
      block.header().user_id != config_.user_id) {
    c_foreign_dropped_.Inc();
    // The adversary pretends all is well while discarding the block.
    return chain::BlockVerdict::kValid;
  }

  const chain::BlockVerdict verdict = AdmitBlock(block);
  if (verdict == chain::BlockVerdict::kValid) {
    c_blocks_accepted_.Inc();
    // Newly admitted state may unblock quarantined blocks (their
    // parents arrived, or their creator's enrolment did).
    RetryQuarantine();
  }
  return verdict;
}

void Node::RetryQuarantine() {
  const std::uint64_t now = NowMs();
  // A block still undecidable past the TTL gives up its slot; whoever
  // still has it can re-offer it later. Checked only AFTER
  // re-validation fails to decide, so a block whose moment has come
  // (parents arrived, clock caught up) is admitted, never expired.
  // (The `now >` guard covers a clock that stepped backwards when
  // fault-injected skew ended.)
  const auto expired = [&](const QuarantineEntry& e) {
    return config_.quarantine_ttl_ms != 0 && now > e.parked_at_ms &&
           now - e.parked_at_ms > config_.quarantine_ttl_ms;
  };
  bool progress = true;
  while (progress && !quarantine_.empty()) {
    progress = false;
    for (auto it = quarantine_.begin(); it != quarantine_.end();) {
      const chain::Block& block = it->second.block;
      bool parents_known = true;
      for (const chain::BlockHash& p : block.header().parents) {
        if (!dag_.Contains(p)) {
          parents_known = false;
          break;
        }
      }
      if (!parents_known) {
        if (expired(it->second)) {
          c_quarantine_expired_.Inc();
          presig_.Forget(it->first);
          it = quarantine_.erase(it);
        } else {
          ++it;
        }
        continue;
      }
      const chain::ValidationResult result =
          chain::ValidateBlock(block, dag_, csm_.membership(), NowMs(),
                               config_.validation, &presig_);
      if (result.verdict == chain::BlockVerdict::kValid) {
        // Same write-ahead gate as AdmitBlock: an unpersistable block
        // stays parked (its TTL still ticks) until storage recovers.
        if (!PersistBlock(block)) {
          ++it;
          continue;
        }
        if (dag_.Insert(block).ok()) {
          csm_.ApplyBlock(block);
          c_blocks_accepted_.Inc();
        }
        presig_.Forget(it->first);
        it = quarantine_.erase(it);
        progress = true;
      } else if (result.verdict == chain::BlockVerdict::kReject) {
        c_blocks_rejected_.Inc();
        presig_.Forget(it->first);
        it = quarantine_.erase(it);
        progress = true;
      } else if (expired(it->second)) {
        c_quarantine_expired_.Inc();
        presig_.Forget(it->first);
        it = quarantine_.erase(it);
      } else {
        ++it;  // still undecidable; keep waiting
      }
    }
  }
  g_quarantine_size_.Set(static_cast<double>(quarantine_.size()));
}

void Node::PreverifyBlocks(const std::vector<const chain::Block*>& blocks) {
  // Enqueue (and the Lookup that later consumes the verdicts) are
  // blocking-class calls: recon/gossip ingest reaches here on the
  // node's serial thread holding no locks — Node itself owns no
  // mutex, so the EXCLUDES contracts hold vacuously today and the
  // rank enforcer pins them the day node-side locks appear.
  presig_.Enqueue(chain::MakeVerifyJobs(blocks, csm_.membership(), &presig_));
}

void Node::PreverifyQuarantine() {
  if (quarantine_.empty()) return;
  std::vector<const chain::Block*> blocks;
  blocks.reserve(quarantine_.size());
  for (const auto& [hash, entry] : quarantine_) blocks.push_back(&entry.block);
  PreverifyBlocks(blocks);
}

Bytes Node::Fingerprint() const {
  serial::Writer w;
  w.WriteString("node");
  const auto order = dag_.TopologicalOrder();
  w.WriteVarint(order.size());
  for (const chain::BlockHash& h : order) w.WriteFixed(h);
  w.WriteBytes(csm_.StateFingerprint());
  return w.Take();
}

}  // namespace vegvisir::node

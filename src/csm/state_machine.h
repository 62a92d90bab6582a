// The CRDT state machine (CSM, paper §IV-E).
//
// The blockchain component stores and validates blocks; the CSM
// interprets their transactions. It maintains:
//   - the membership set U (a 2P-set of certificates),
//   - the chain metadata map __meta__,
//   - the registry Ω of user-created CRDTs with their ACL policies.
//
// Determinism. The CSM's state is a pure function of the *set* of
// applied blocks, independent of application order, which is what
// makes Vegvisir partition-tolerant:
//   - CRDT operations commute by construction;
//   - transaction validity depends only on immutable inputs (the
//     creator's certificate role, the operation's argument types);
//   - an operation that reaches a replica before the CRDT it targets
//     exists is parked and applied when the create arrives;
//   - if two creates race for one name, the one with the smallest
//     transaction id wins deterministically, and the operation log
//     for that name is replayed against the winner.
//
// Blocks must be fed in a topological order (parents before
// children), which the DAG's insert rule already guarantees; applying
// a block twice is a no-op.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/types.h"
#include "crdt/crdt.h"
#include "crdt/map.h"
#include "csm/acl.h"
#include "csm/membership.h"
#include "telemetry/telemetry.h"
#include "util/bytes.h"

namespace vegvisir::csm {

struct StateMachineConfig {
  // Roles allowed to revoke certificates (remove from U).
  std::vector<std::string> revoker_roles = {"owner"};
  // Roles allowed to create CRDTs; empty means any member.
  std::vector<std::string> creator_roles;
  // Cap on the retained rejected-transaction log.
  std::size_t max_rejection_log = 256;
  // Memory-constrained mode: drop the per-name operation log once the
  // ops have been applied (keep only ops parked for a missing
  // create). Shrinks resident state and snapshots to live CRDT state
  // only — the E13 finding — at a documented cost: if two creates
  // *race for the same name*, the late-arriving winner cannot replay
  // the log, so that name resolves first-create-wins-by-arrival
  // instead of deterministically. The paper's random CRDT names
  // (§IV-D) make such collisions negligible; leave this false when
  // adversarial name collisions are a concern.
  bool compact_op_log = false;
};

class StateMachine {
 public:
  // `telemetry` is the sink the csm.* metrics and apply trace events
  // flow into (a Node passes its per-node bundle). Null means the
  // machine owns a private bundle, so standalone use keeps working.
  explicit StateMachine(StateMachineConfig config = {},
                        telemetry::Telemetry* telemetry = nullptr);

  // Applies every transaction in a chain-valid block. Idempotent per
  // block hash.
  void ApplyBlock(const chain::Block& block);

  bool HasApplied(const chain::BlockHash& h) const {
    return applied_blocks_.count(h) > 0;
  }
  std::size_t AppliedBlockCount() const { return applied_blocks_.size(); }

  const Membership& membership() const { return membership_; }

  // The user-created CRDT registered under `name` (nullptr if none).
  const crdt::Crdt* FindCrdt(const std::string& name) const;

  // Typed access, e.g. FindCrdtAs<crdt::GSet>("H").
  template <typename T>
  const T* FindCrdtAs(const std::string& name) const {
    return dynamic_cast<const T*>(FindCrdt(name));
  }

  std::vector<std::string> CrdtNames() const;
  const AclPolicy* PolicyOf(const std::string& name) const;

  // Chain metadata (the __meta__ LWW map); ChainName is its "name".
  const crdt::LwwMap& meta() const { return meta_; }
  std::string ChainName() const;

  // Operational counters live in this registry (csm.applied_blocks,
  // csm.applied_txns, csm.rejected_txns, csm.duplicate_creates). They
  // count what this process did and are monotonic — LoadSnapshot does
  // not rewind them; use AppliedBlockCount() for the state's lineage.
  telemetry::Telemetry* telemetry() const { return telem_; }

  // Operations waiting for their CRDT's create to arrive.
  std::size_t PendingOpCount() const;

  struct Rejection {
    std::string tx_id;
    std::string reason;
  };
  const std::vector<Rejection>& rejections() const { return rejections_; }

  // Canonical digest of the full application state. Two replicas that
  // have applied the same set of blocks produce identical
  // fingerprints, whatever the order.
  Bytes StateFingerprint() const;

  // ---- snapshots ---------------------------------------------------
  // Checkpoints the complete application state — membership, chain
  // metadata, every CRDT instance, the per-name operation logs
  // (needed for create-race replays and parked ops) and the
  // applied-block set — so a device can restart without replaying the
  // whole DAG. The csm.* counters are operational, not state, and are
  // not persisted. The snapshot is checksummed; LoadSnapshot rejects
  // corrupted input and replaces the current state on success.
  Bytes SaveSnapshot() const;
  Status LoadSnapshot(ByteSpan data);

  // ---- transaction builders (for submitters) ----------------------
  static chain::Transaction MakeCreateTx(const std::string& name,
                                         crdt::CrdtType type,
                                         crdt::ValueType element_type,
                                         const AclPolicy& policy);
  static chain::Transaction MakeAddUserTx(const chain::Certificate& cert);
  static chain::Transaction MakeRevokeUserTx(const chain::Certificate& cert);
  static chain::Transaction MakeMetaPutTx(const std::string& key,
                                          const std::string& value);

 private:
  struct Instance {
    std::string creation_tx_id;
    crdt::CrdtType type;
    crdt::ValueType element_type;
    AclPolicy policy;
    std::unique_ptr<crdt::Crdt> crdt;
  };

  struct OpRecord {
    std::string op;
    std::vector<crdt::Value> args;
    crdt::OpContext ctx;
  };

  void ApplyTx(const chain::Transaction& tx, const crdt::OpContext& ctx,
               const chain::BlockHash& block_hash);
  void ApplyUsersTx(const chain::Transaction& tx, const crdt::OpContext& ctx,
                    const chain::BlockHash& block_hash);
  void ApplyMetaTx(const chain::Transaction& tx, const crdt::OpContext& ctx);
  void ApplyOmegaTx(const chain::Transaction& tx, const crdt::OpContext& ctx);
  void ApplyAppOp(const chain::Transaction& tx, const crdt::OpContext& ctx);

  // Applies one logged operation to an instance. `count_stats` is
  // false during replays so operations are not double-counted.
  void RunOp(Instance& inst, const OpRecord& rec, bool count_stats);

  void Reject(const crdt::OpContext& ctx, std::string reason);

  StateMachineConfig config_;
  // Telemetry plumbing: `owned_` is the private fallback bundle (null
  // when an external sink was provided); handles point into whichever
  // registry `telem_` names and stay valid across moves (the bundle
  // is heap-allocated).
  std::unique_ptr<telemetry::Telemetry> owned_;
  telemetry::Telemetry* telem_ = nullptr;
  telemetry::Counter c_applied_blocks_;
  telemetry::Counter c_applied_txns_;
  telemetry::Counter c_rejected_txns_;
  telemetry::Counter c_duplicate_creates_;

  Membership membership_;
  crdt::LwwMap meta_;

  std::map<std::string, Instance> omega_;
  // Full per-name operation log (also the pending queue for names
  // whose create has not arrived).
  std::map<std::string, std::vector<OpRecord>> op_log_;

  std::set<chain::BlockHash> applied_blocks_;
  std::vector<Rejection> rejections_;
};

}  // namespace vegvisir::csm

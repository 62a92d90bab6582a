// The Vegvisir node: the library's primary public API.
//
// A Node owns the two components the paper separates (§IV-E): the
// blockchain component (DAG storage + block validation) and the CRDT
// state machine. It implements recon::ReconHost so reconciliation
// sessions can pull from and merge into it, and it maintains the
// quarantine that makes replicas converge regardless of arrival
// order (blocks whose creator or timestamp we cannot judge *yet* are
// parked and retried, never silently lost).
//
// Typical use:
//
//   auto genesis = chain::GenesisBuilder("demo").Build("owner", owner_keys);
//   node::Node owner(cfg_owner, genesis, owner_keys);
//   owner.EnrollUser(medic_cert);                       // via blocks
//   owner.CreateCrdt("H", crdt::CrdtType::kGSet,
//                    crdt::ValueType::kStr, policy);
//   medic.AppendOp("H", "add", {Value::OfStr("record-123")});
//   // gossip (node/gossip.h) spreads blocks opportunistically.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/dag.h"
#include "chain/genesis.h"
#include "chain/validation.h"
#include "crypto/ed25519.h"
#include "csm/state_machine.h"
#include "exec/verifier.h"
#include "recon/session.h"
#include "sim/energy.h"
#include "telemetry/telemetry.h"
#include "util/status.h"

namespace vegvisir::storage {
class TieredStore;
}  // namespace vegvisir::storage

namespace vegvisir::node {

struct NodeConfig {
  std::string user_id;
  recon::ReconConfig recon;
  chain::ValidationParams validation;
  csm::StateMachineConfig csm;
  // Quarantined-block cap; beyond it the oldest entries are dropped
  // (they will be re-fetched by a later reconciliation).
  std::size_t quarantine_cap = 4096;
  // Quarantine entries still undecidable after this long are dropped
  // and counted under node.quarantine_expired (0 = keep forever). A
  // wire-corrupted block naming a parent or creator that will never
  // exist would otherwise occupy quarantine until cap eviction; a
  // legitimately early block lost this way is simply re-fetched by a
  // later reconciliation session.
  std::uint64_t quarantine_ttl_ms = 120'000;
  // Adversarial behaviour (paper §IV-B): discard every block created
  // by others — the node neither stores nor propagates foreign
  // blocks, though it still creates and serves its own.
  bool drop_foreign_blocks = false;
  // External telemetry sink (metrics registry + tracer). Null means
  // the node owns a private bundle; a Cluster wires every node to a
  // per-node registry it can aggregate (see node/cluster.h).
  telemetry::Telemetry* telemetry = nullptr;
  // Shared execution pool for batched signature pre-verification
  // (DESIGN.md §12). Null or serial keeps ingest on the calling
  // thread; either way verdicts and telemetry are identical. A
  // Cluster owns one pool and hands it to every node.
  exec::ThreadPool* exec_pool = nullptr;
};

class Node final : public recon::ReconHost {
 public:
  // `genesis` must be the chain's genesis block; `keys` must match
  // the certificate this node's user id is (or will be) enrolled with.
  Node(NodeConfig config, chain::Block genesis, crypto::KeyPair keys);

  // Restores a node from persisted parts (see node/checkpoint.h).
  // Adopts `csm_snapshot` if it exactly matches the DAG's block set;
  // otherwise replays the DAG deterministically — which requires all
  // block bodies to be present (evicted bodies must be re-fetched
  // from a superpeer first). `used_snapshot` (optional) reports which
  // path was taken.
  static StatusOr<std::unique_ptr<Node>> Restore(NodeConfig config,
                                                 crypto::KeyPair keys,
                                                 chain::Dag dag,
                                                 ByteSpan csm_snapshot,
                                                 bool* used_snapshot = nullptr);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& user_id() const { return config_.user_id; }
  const recon::ReconConfig& recon_config() const { return config_.recon; }
  // The full configuration this node runs with — what a host must
  // supply again to Restore/LoadCheckpoint/RecoverFromStorage after a
  // crash (the config is deliberately not part of what is persisted).
  const NodeConfig& config() const { return config_; }

  // ---- time --------------------------------------------------------
  // The node's local clock, used for block timestamps and the
  // future-timestamp check. Defaults to a manual clock at 0.
  void SetClock(std::function<std::uint64_t()> clock);
  void SetTime(std::uint64_t now_ms) { manual_time_ms_ = now_ms; }
  std::uint64_t NowMs() const;

  // ---- creating blocks ---------------------------------------------
  // Packs `txns` into a new block whose parents are every current
  // frontier block (the paper's branch-reining rule), signs it,
  // validates it locally, inserts it and applies it. Transactions
  // are pre-checked against the local state where possible.
  StatusOr<chain::BlockHash> Submit(
      std::vector<chain::Transaction> txns,
      std::optional<chain::GeoLocation> location = std::nullopt);

  // Convenience wrappers around Submit:
  StatusOr<chain::BlockHash> CreateCrdt(const std::string& name,
                                        crdt::CrdtType type,
                                        crdt::ValueType element_type,
                                        const csm::AclPolicy& policy);
  StatusOr<chain::BlockHash> AppendOp(const std::string& crdt_name,
                                      const std::string& op,
                                      std::vector<crdt::Value> args);
  StatusOr<chain::BlockHash> EnrollUser(const chain::Certificate& cert);
  StatusOr<chain::BlockHash> RevokeUser(const chain::Certificate& cert);
  // An empty block acknowledging everything currently known — the
  // proof-of-witness signal (§IV-H).
  StatusOr<chain::BlockHash> AddWitnessBlock();

  // ---- ReconHost -----------------------------------------------------
  const chain::Dag& dag() const override { return dag_; }
  bool HasBlock(const chain::BlockHash& h) const override {
    return dag_.Contains(h) || quarantine_.count(h) > 0;
  }
  // Mutable access for the storage-offload layer (support::
  // StorageManager evicts and restores block bodies); application
  // code should not mutate the DAG directly.
  chain::Dag* mutable_dag() { return &dag_; }
  chain::BlockVerdict OfferBlock(const chain::Block& block) override;

  // ---- state ---------------------------------------------------------
  const csm::StateMachine& state() const { return csm_; }

  // Proof-of-witness query: has `h` been acknowledged (via descendant
  // blocks) by at least k distinct other users?
  bool IsPersistent(const chain::BlockHash& h, std::size_t k) const {
    return dag_.HasProofOfWitness(h, k);
  }

  // Replica-convergence digest: DAG content + CSM state.
  Bytes Fingerprint() const;

  std::size_t QuarantineSize() const { return quarantine_.size(); }
  // Re-validates quarantined blocks (called automatically after every
  // accepted block; exposed for clock advances).
  void RetryQuarantine();

  // Fans signature checks for the quarantine across the execution
  // pool (creator enrolments may have landed since the blocks were
  // parked). The gossip tick calls this right before its retry sweep;
  // cached entries are skipped, so repeated calls are cheap.
  void PreverifyQuarantine();

  // ReconHost pipelined-ingest hook: batch-verify fetched blocks
  // while the session's serial merge proceeds.
  void PreverifyBlocks(
      const std::vector<const chain::Block*>& blocks) override;

  // The node's telemetry bundle (never null): its metrics registry
  // holds the node.*, csm.* and recon.* series for this node (read by
  // name: metrics.CounterValue("node.blocks_created")), and its
  // tracer records validation/apply/session events in sim time.
  telemetry::Telemetry* telemetry() const override { return telem_; }

  // Optional energy accounting (simulation): charges signing,
  // verification and hashing to the meter.
  void AttachEnergyMeter(sim::EnergyMeter* meter) { meter_ = meter; }

  // Optional durable storage (storage/engine.h). Once attached, every
  // block is appended (and fsync'd, per the store's options) to the
  // block log BEFORE it is inserted into the DAG — the write-ahead
  // discipline that makes crash recovery lossless for acked blocks. A
  // block whose persist fails is parked in quarantine rather than
  // acked. If the store's log is empty, the DAG's current contents
  // are bootstrapped into it first (requires every body present).
  // Pass nullptr to detach. The store must outlive the node.
  Status AttachStorage(storage::TieredStore* store);
  storage::TieredStore* storage() const { return storage_; }

 private:
  // Validates + inserts + applies; assumes parents are present.
  chain::BlockVerdict AdmitBlock(const chain::Block& block);
  Status PrecheckTransactions(const std::vector<chain::Transaction>& txns) const;
  // Write-ahead hook: true when the block is durable (or no storage
  // is attached) and may be acked into the DAG.
  bool PersistBlock(const chain::Block& block);
  // Parks a block in quarantine (evicting the oldest past the cap).
  void Park(const chain::Block& block);

  NodeConfig config_;
  crypto::KeyPair keys_;
  // Telemetry plumbing must precede csm_ (the CSM shares the node's
  // sink). `owned_` is the fallback bundle when no external sink was
  // configured; handles stay valid across moves (heap bundle).
  std::unique_ptr<telemetry::Telemetry> owned_telem_;
  telemetry::Telemetry* telem_ = nullptr;
  telemetry::Counter c_blocks_created_;
  telemetry::Counter c_blocks_accepted_;
  telemetry::Counter c_blocks_rejected_;
  telemetry::Counter c_blocks_quarantined_;
  telemetry::Counter c_quarantine_expired_;
  telemetry::Counter c_foreign_dropped_;
  telemetry::Gauge g_quarantine_size_;
  // Batched signature pre-verification cache; validation consumes its
  // verdicts in serial order (chain/validation.h). Declared before
  // dag_/csm_ so in-flight jobs drain after all consumers are gone.
  exec::BatchVerifier presig_;
  chain::Dag dag_;
  csm::StateMachine csm_;
  std::function<std::uint64_t()> clock_;
  std::uint64_t manual_time_ms_ = 0;
  struct QuarantineEntry {
    chain::Block block;
    std::uint64_t parked_at_ms = 0;
  };
  std::map<chain::BlockHash, QuarantineEntry> quarantine_;
  sim::EnergyMeter* meter_ = nullptr;
  storage::TieredStore* storage_ = nullptr;
};

}  // namespace vegvisir::node

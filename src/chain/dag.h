// The block DAG store (paper §IV-C, Fig. 1).
//
// Holds the local replica of the blockchain: every block, the
// parent/child indexes, the frontier set, and the queries the
// protocol layers need (level-N frontier sets for reconciliation,
// ancestor/descendant walks for proof-of-witness and revocation
// checks, and the slot order every parents-first walk reads).
//
// `Insert` performs structural checks only (duplicates, missing
// parents, unique genesis); semantic validation — signatures,
// membership, timestamps — lives in chain/validation.h so the two
// concerns can be tested and reused independently.
//
// Storage-constrained devices may *evict* a block's body after
// offloading it to the support blockchain (paper §IV-I): the DAG
// keeps a stub with the linkage (hash, parents, children, creator,
// timestamp) so frontier computation, reconciliation and witness
// queries still work, but the transactions are gone and the storage
// accounting drops accordingly.
//
// Every block gets the next dense slot when it is inserted. Blocks
// only ever arrive as sinks (their parents are already present), so
// slot order -- Hashes() -- is a valid topological order and the first
// k slots are exactly the DAG as it was when Size() was k. It is the
// one order every replay, serve and persist walk reads: deterministic
// on one replica (it is the order the node applied its blocks in), but
// different across replicas that received blocks in different orders.
// TopologicalOrder() is the cross-replica order; only Node::Fingerprint
// needs it. Descendant walks follow child slots without touching the
// hash index.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/block.h"
#include "chain/types.h"
#include "util/status.h"

namespace vegvisir::chain {

enum class Presence {
  kAbsent,   // never seen
  kStored,   // full block available
  kEvicted,  // body offloaded; only the stub remains
};

class Dag {
 public:
  // A DAG is born from its genesis block (the unique sink).
  explicit Dag(Block genesis);

  const BlockHash& genesis_hash() const { return genesis_hash_; }

  Presence PresenceOf(const BlockHash& h) const;
  bool Contains(const BlockHash& h) const {
    return PresenceOf(h) != Presence::kAbsent;
  }

  // The full block, or nullptr if absent or evicted.
  const Block* Find(const BlockHash& h) const;

  // Structural insert. Errors:
  //   kAlreadyExists  — block already present
  //   kFailedPrecondition — a second parentless block (fake genesis)
  //   kNotFound       — some parent is unknown (caller should escalate
  //                     the reconciliation frontier level)
  Status Insert(Block block);

  // Number of known blocks (stored + evicted stubs).
  std::size_t Size() const { return hashes_.size(); }
  // Number of blocks with bodies.
  std::size_t StoredCount() const { return stored_count_; }
  // Total bytes of stored block bodies.
  std::size_t StoredBytes() const { return stored_bytes_; }

  // The level-1 frontier: blocks with no successors, sorted by hash.
  std::vector<BlockHash> Frontier() const;

  // The level-n frontier set (paper Fig. 3): level 1 is the frontier;
  // level n is level n-1 plus the parents of its blocks. n >= 1.
  std::vector<BlockHash> FrontierLevel(int n) const;

  // SHA-256 over the sorted frontier hashes. Equal digests mean equal
  // frontiers mean equal DAGs (paper §IV-G: "if the neighbor's
  // frontier set is identical to the initiator's, then their
  // blockchains are identical too"), so gossip peers can detect
  // being in sync for 32 bytes.
  BlockHash FrontierDigest() const;

  const std::vector<BlockHash>& ParentsOf(const BlockHash& h) const;
  std::vector<BlockHash> ChildrenOf(const BlockHash& h) const;
  const std::string& CreatorOf(const BlockHash& h) const;
  std::uint64_t TimestampOf(const BlockHash& h) const;

  // The cross-replica topological order: Kahn's sort with ties broken
  // by block hash, so every replica holding the same DAG returns the
  // same sequence. Costs a sort of the whole DAG; Node::Fingerprint is
  // its one user. Everything else walks Hashes().
  std::vector<BlockHash> TopologicalOrder() const;

  // Every known hash (stored + evicted stubs) in slot (insertion)
  // order: parents always precede their children, and Hashes()[0, k)
  // is the DAG as it was when Size() was k. This is the topological
  // order for every walk on this replica -- replay, serve, persist,
  // render. It is deterministic per replica but differs across
  // replicas, so any byte stream meant to match another replica's uses
  // TopologicalOrder() instead.
  const std::vector<BlockHash>& Hashes() const { return hashes_; }

  // True iff `ancestor` is a strict ancestor of `descendant` or equal
  // to it when `include_self` (default excludes self).
  bool IsAncestor(const BlockHash& ancestor, const BlockHash& descendant,
                  bool include_self = false) const;

  // All strict ancestors / descendants.
  std::set<BlockHash> Ancestors(const BlockHash& h) const;
  std::set<BlockHash> Descendants(const BlockHash& h) const;

  // Greatest timestamp among the given parents (0 for an empty list).
  std::uint64_t MaxParentTimestamp(const std::vector<BlockHash>& parents) const;

  // ---- Proof-of-witness (paper §IV-H) -----------------------------
  // Distinct users, other than the block's own creator, that created
  // descendant blocks — i.e. users known to have stored this block.
  std::set<std::string> WitnessesOf(const BlockHash& h) const;
  bool HasProofOfWitness(const BlockHash& h, std::size_t k) const {
    return WitnessesOf(h).size() >= k;
  }

  // ---- Storage offload (paper §IV-I) ------------------------------
  // Drops the block body, keeping the stub. Refused for the genesis
  // block, for frontier blocks (they may still gain children and are
  // what reconciliation advertises), and for already-evicted blocks.
  Status Evict(const BlockHash& h);

  // Restores the body of an evicted block (fetched back from the
  // support blockchain). The block must hash to an evicted stub.
  Status Restore(Block block);

  // Inserts an already-evicted stub (used when loading a persisted
  // replica whose old bodies live on the support chain). Subject to
  // the same structural rules as Insert.
  Status InsertEvictedStub(const BlockHash& hash,
                           std::vector<BlockHash> parents,
                           std::string creator, std::uint64_t timestamp_ms,
                           std::size_t encoded_size);

  // Hashes of stored (non-evicted) blocks, oldest timestamp first —
  // the order in which a device offloads when storage runs low.
  std::vector<BlockHash> StoredOldestFirst() const;

 private:
  using Slot = std::uint32_t;

  struct Entry {
    std::optional<Block> block;  // nullopt once evicted
    std::vector<BlockHash> parents;
    std::vector<Slot> children;
    std::string creator;
    std::uint64_t timestamp = 0;
    std::size_t encoded_size = 0;
  };

  const Entry* FindEntry(const BlockHash& h) const;
  // Resolves every parent before anything is mutated; fails with
  // kNotFound on the first unknown one.
  Status FindParents(const std::vector<BlockHash>& parents,
                     std::vector<Slot>* slots) const;
  // Appends `e` as the next slot: links it under `parent_slots`,
  // makes it a frontier block and indexes it by `hash`.
  void Append(const BlockHash& hash, Entry e,
              const std::vector<Slot>& parent_slots);

  // Slot-indexed: entries_[s] is the block hashes_[s]. A deque, so
  // Find() pointers survive later inserts.
  std::deque<Entry> entries_;
  std::vector<BlockHash> hashes_;
  std::unordered_map<BlockHash, Slot, BlockHashHasher> index_;
  std::set<BlockHash> frontier_;
  BlockHash genesis_hash_{};
  std::size_t stored_count_ = 0;
  std::size_t stored_bytes_ = 0;
};

}  // namespace vegvisir::chain

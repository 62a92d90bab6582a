// Block validation (paper §IV-E).
//
// The paper's four checks for a new block:
//   1. the creator must be a member of the blockchain (per U);
//   2. parent blocks must already be in the blockchain;
//   3. the timestamp must exceed every parent's timestamp but not be
//      in the validator's future;
//   4. the signature must be valid and match the creator's user id.
//
// Outcomes are three-way, because on an ad hoc network a failed check
// is often a *timing* problem rather than an attack:
//   kValid      — insert now;
//   kRetryLater — missing parents (reconciliation will escalate its
//                 frontier level), unknown creator (their enrolment
//                 may not have reached us yet), or a timestamp ahead
//                 of our clock: quarantine and re-validate later, so
//                 replicas converge regardless of arrival order;
//   kReject     — structurally or cryptographically invalid, or the
//                 creator was revoked in the block's own causal past;
//                 permanent and deterministic on every replica.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/certificate.h"
#include "chain/dag.h"
#include "exec/verifier.h"
#include "util/status.h"

namespace vegvisir::chain {

// What the validator needs to know about membership. Implemented by
// the CRDT state machine's membership set U.
class MembershipView {
 public:
  virtual ~MembershipView() = default;

  // The certificate for a user id, or nullptr if unknown.
  virtual const Certificate* FindCertificate(
      const std::string& user_id) const = 0;

  // True iff some revocation (remove from U) exists for this user.
  virtual bool IsRevoked(const std::string& user_id) const = 0;

  // Blocks whose transactions revoked this user (empty if none).
  // Used for the causal-past check: a block is rejected only if a
  // revocation is among its ancestors.
  virtual std::vector<BlockHash> RevocationBlocksOf(
      const std::string& user_id) const = 0;
};

enum class BlockVerdict {
  kValid,
  kRetryLater,
  kReject,
};

struct ValidationResult {
  BlockVerdict verdict = BlockVerdict::kReject;
  Status status;  // reason for non-valid verdicts
};

struct ValidationParams {
  // How far a block timestamp may lead the local clock before the
  // block is quarantined.
  std::uint64_t max_clock_skew_ms = 5'000;
};

// Validates `block` against the local replica. The block must not
// already be in the DAG (callers check Contains first).
//
// `presig` (optional) is the node's batched pre-verification cache:
// when it holds a verdict for this block under the creator's current
// certificate, check 4 consumes that verdict instead of re-running
// Ed25519; a missing or key-mismatched entry falls back to a
// synchronous verify under the cache's prepared key. Verdicts — and
// therefore every counter — are identical with or without the cache.
ValidationResult ValidateBlock(const Block& block, const Dag& dag,
                               const MembershipView& membership,
                               std::uint64_t local_time_ms,
                               const ValidationParams& params = {},
                               exec::BatchVerifier* presig = nullptr);

// Builds signature-verification jobs for every block whose creator's
// certificate is already known, skipping blocks `dedup` has cached
// under that same key (so repeated sweeps over a quarantine don't
// re-serialize signing payloads). The batch-ingest front half:
// enqueue these on arrival, then let ValidateBlock consume the
// verdicts in serial topological order.
std::vector<exec::VerifyJob> MakeVerifyJobs(
    const std::vector<const Block*>& blocks, const MembershipView& membership,
    const exec::BatchVerifier* dedup = nullptr);

}  // namespace vegvisir::chain

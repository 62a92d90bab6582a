#include "chain/validation.h"

#include <optional>
#include <utility>

namespace vegvisir::chain {
namespace {

ValidationResult Reject(Status s) {
  return ValidationResult{BlockVerdict::kReject, std::move(s)};
}

ValidationResult Retry(Status s) {
  return ValidationResult{BlockVerdict::kRetryLater, std::move(s)};
}

}  // namespace

ValidationResult ValidateBlock(const Block& block, const Dag& dag,
                               const MembershipView& membership,
                               std::uint64_t local_time_ms,
                               const ValidationParams& params,
                               exec::BatchVerifier* presig) {
  // A parentless block can only be a (different chain's) genesis.
  if (block.header().parents.empty()) {
    return Reject(FailedPreconditionError("parentless non-genesis block"));
  }

  // Check 4 runs first whenever it can: if the creator is already
  // known, authenticate before any retryable verdict. A block that
  // fails its signature is garbage (wire corruption or forgery) no
  // matter which parents it names — returning Retry for its missing
  // (possibly mangled, never-to-arrive) parents would park it in
  // quarantine indefinitely.
  const Certificate* cert =
      membership.FindCertificate(block.header().user_id);
  if (cert != nullptr) {
    // Consume a batched pre-verification verdict when one exists for
    // this exact (hash, key) pair; anything else — no cache, no
    // entry, or a certificate that changed since the job was enqueued
    // — verifies synchronously right here, under the verifier's
    // prepared key when there is a verifier. Lookup blocks on
    // in-flight jobs (EXCLUDES contract): legal here because
    // validation runs on the serial owner thread with no mutex held —
    // the DAG, CSM and quarantine it touches are all single-threaded
    // by design.
    bool signature_ok;
    if (presig == nullptr) {
      signature_ok = block.VerifySignature(cert->public_key);
    } else if (const std::optional<bool> cached =
                   presig->Lookup(block.hash(), cert->public_key)) {
      signature_ok = *cached;
    } else {
      signature_ok = presig->Verify(cert->public_key, block.SigningPayload(),
                                    block.signature());
    }
    if (!signature_ok) {
      return Reject(UnauthenticatedError("bad signature on block"));
    }
  }

  // Check 2: parents present. Missing parents on an authenticated (or
  // not-yet-authenticatable) block are a reconciliation gap, not an
  // attack.
  for (const BlockHash& p : block.header().parents) {
    if (!dag.Contains(p)) {
      return Retry(NotFoundError("missing parent " + HashShort(p)));
    }
  }

  // Check 1: creator is a member. An unknown creator may simply have
  // enrolled in a partition we have not merged yet.
  if (cert == nullptr) {
    return Retry(
        UnauthenticatedError("unknown creator " + block.header().user_id));
  }

  // Check 3: timestamp strictly after every parent...
  const std::uint64_t min_exclusive =
      dag.MaxParentTimestamp(block.header().parents);
  if (block.header().timestamp_ms <= min_exclusive) {
    return Reject(FailedPreconditionError(
        "timestamp " + std::to_string(block.header().timestamp_ms) +
        " not after parents' max " + std::to_string(min_exclusive)));
  }
  // ... but not ahead of our clock (beyond allowed skew). Our clock
  // may simply be behind; quarantine instead of rejecting so that all
  // replicas eventually agree.
  if (block.header().timestamp_ms > local_time_ms + params.max_clock_skew_ms) {
    return Retry(FailedPreconditionError("timestamp in the local future"));
  }

  // Causal revocation check: the block is invalid iff its creator was
  // revoked somewhere in the block's own causal past. Revocations
  // elsewhere (concurrent or later) do not retroactively invalidate
  // it — removing it would violate tamperproofness.
  if (membership.IsRevoked(block.header().user_id)) {
    for (const BlockHash& rev : membership.RevocationBlocksOf(
             block.header().user_id)) {
      for (const BlockHash& parent : block.header().parents) {
        if (dag.IsAncestor(rev, parent, /*include_self=*/true)) {
          return Reject(PermissionDeniedError(
              "creator revoked in block's causal past"));
        }
      }
    }
  }

  return ValidationResult{BlockVerdict::kValid, Status::Ok()};
}

std::vector<exec::VerifyJob> MakeVerifyJobs(
    const std::vector<const Block*>& blocks, const MembershipView& membership,
    const exec::BatchVerifier* dedup) {
  std::vector<exec::VerifyJob> jobs;
  jobs.reserve(blocks.size());
  for (const Block* block : blocks) {
    if (block == nullptr) continue;
    const Certificate* cert =
        membership.FindCertificate(block->header().user_id);
    if (cert == nullptr) continue;  // pre-verifiable once enrolment lands
    if (dedup != nullptr && dedup->Cached(block->hash(), cert->public_key)) {
      continue;
    }
    exec::VerifyJob job;
    job.id = block->hash();
    job.key = cert->public_key;
    job.message = block->SigningPayload();
    job.signature = block->signature();
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace vegvisir::chain

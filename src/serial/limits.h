// Wire decode limits: the single source of truth for every bound a
// decoder enforces on an attacker-controlled count or size.
//
// Vegvisir nodes parse blocks, frontier sets and certificates received
// from arbitrary physical neighbours (paper §IV-G), so every integer a
// decoder reads off the wire is attacker-controlled until proven
// bounded. The rule, enforced statically by tools/analyzer/
// wire_taint.py on every CI run: a wire-derived integer must pass
// through CheckWireCount() (or an explicit comparison against one of
// the limits::kMax* constants below) before it reaches an allocation,
// a container resize, or a loop trip count.
//
// Two bounds compose in CheckWireCount:
//   1. the input-relative bound — a count of N elements of at least
//      `min_elem_bytes` each cannot exceed remaining/min_elem_bytes
//      (divide, never multiply: a hostile count near 2^64 must not
//      wrap the check) — which rejects short bombs outright, and
//   2. the absolute protocol cap kMax* — which bounds work and memory
//      even for attackers willing to send megabytes of padding.
//
// Every constant here is referenced by at least one decoder and
// pinned by a bomb-regression test in tests/limits_test.cpp; see
// DESIGN.md §11 for how to add a bound for a new decoder field.
#pragma once

#include <cstdint>
#include <string>

#include "util/status.h"

namespace vegvisir::serial {
namespace limits {

// --- reconciliation wire messages (recon/messages.cpp) -------------
// Hashes per FrontierResponse/BlockRequest. A frontier is the set of
// childless blocks; even a pathological DAG shaped by hundreds of
// concurrent writers stays far below this.
inline constexpr std::uint64_t kMaxFrontierHashes = 1u << 16;
// Serialized blocks per FrontierResponse/BlockResponse/PushBlocks.
inline constexpr std::uint64_t kMaxWireBlocks = 1u << 16;
// Escalation ceiling for a FrontierRequest level; responders clamp to
// min(this, their own configured max_level) before walking the DAG.
inline constexpr std::uint64_t kMaxFrontierLevel = 1u << 20;

// --- set-difference negotiation (setdiff/, recon/messages.cpp) -----
// Coded symbols per session stream (setdiff/iblt.h): the most a
// DiffProbe may ask for and a DiffSketch may carry, counted from the
// stream's start. Symbols scale with the *delta*, not the DAG, at
// about 1.35-2x it; a stream longer than kMaxWireBlocks worth of delta
// is useless anyway.
inline constexpr std::uint64_t kMaxSymbols = 1u << 16;
// Short IDs per DiffResult list (peer_missing, want): each is one
// side of a decoded difference, which can never legitimately exceed
// the symbol count that produced it.
inline constexpr std::uint64_t kMaxDiffIds = 1u << 16;

// --- block / transaction encoding (chain/) -------------------------
// Parents per block: the creator links to its current frontier, so
// this bounds frontier width at block-creation time.
inline constexpr std::uint64_t kMaxBlockParents = 1u << 10;
inline constexpr std::uint64_t kMaxBlockTransactions = 1u << 16;
inline constexpr std::uint64_t kMaxTransactionArgs = 1u << 10;

// --- witness proofs (chain/proof.cpp) ------------------------------
inline constexpr std::uint64_t kMaxProofPaths = 1u << 12;
inline constexpr std::uint64_t kMaxProofPathBlocks = 1u << 16;
inline constexpr std::uint64_t kMaxProofCerts = 1u << 16;

// --- persisted chain files (chain/store.cpp) -----------------------
inline constexpr std::uint64_t kMaxStoreBlocks = 1u << 18;
// Claimed encoded size of an evicted stub; a real block is bounded by
// the message limits above, so a larger claim is corruption.
inline constexpr std::uint64_t kMaxStubEncodedBytes = 1u << 24;

// --- durable block log (storage/) ----------------------------------
// Payload bytes per log record (one canonically serialized block); a
// real block is already bounded by the wire limits above, so a length
// field claiming more is corruption, and recovery truncates there.
inline constexpr std::uint64_t kMaxLogRecordBytes = 1u << 22;
// Records per log segment. The appender rolls segments well before
// this (storage::kSegmentTargetBytes), so a segment claiming more is
// corrupt and recovery stops at the cap.
inline constexpr std::uint64_t kMaxSegmentRecords = 1u << 16;

// --- membership & CSM snapshots (csm/) -----------------------------
inline constexpr std::uint64_t kMaxMembers = 1u << 16;
inline constexpr std::uint64_t kMaxRevocationBlocks = 1u << 12;
inline constexpr std::uint64_t kMaxCsmInstances = 1u << 12;
inline constexpr std::uint64_t kMaxOpLogCrdts = 1u << 12;
inline constexpr std::uint64_t kMaxOpRecords = 1u << 16;
inline constexpr std::uint64_t kMaxOpArgs = 1u << 10;
inline constexpr std::uint64_t kMaxAppliedBlocks = 1u << 18;

// --- CRDT state encodings (crdt/) ----------------------------------
// Elements per CRDT state section (set members, RGA elements, map
// cells, register writes, counter shares, flag tokens).
inline constexpr std::uint64_t kMaxCrdtElements = 1u << 20;

}  // namespace limits

// The canonical wire-count sanitizer. `what` names the field for the
// error message ("hash" -> "hash count exceeds input"); the messages
// are pinned by tests/corpus_test.cpp, tests/limits_test.cpp and
// recon::DecodeRejectName, so change them only in lockstep.
//
// The input-relative bound runs first so that short count-bomb inputs
// keep producing the historical "... exceeds input" verdict; the
// absolute cap catches the remaining case of a plausible count backed
// by real (attacker-paid) padding bytes.
inline Status CheckWireCount(std::uint64_t count, std::uint64_t limit,
                             std::size_t remaining,
                             std::size_t min_elem_bytes, const char* what) {
  if (min_elem_bytes > 0 &&
      count > remaining / min_elem_bytes) {
    return InvalidArgumentError(std::string(what) + " count exceeds input");
  }
  if (count > limit) {
    return InvalidArgumentError(std::string(what) + " count exceeds limit");
  }
  return Status::Ok();
}

}  // namespace vegvisir::serial

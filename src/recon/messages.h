// Wire messages for opportunistic DAG reconciliation (paper §IV-G).
//
// The exchange is initiator-driven:
//   FrontierRequest(level n)  ->
//                             <-  FrontierResponse(level n, blocks)
// escalating n until the initiator can bridge the gap (Algorithm 1).
//
// In setdiff mode (and its hash-first form, the paper's "more
// efficient reconciliation algorithms" future work, evaluated as
// ablation E10) the response carries hashes only and the initiator
// fetches just the bodies it is missing with BlockRequest/
// BlockResponse.
//
// PushBlocks is the optional anti-entropy extension: after catching
// up, the initiator pushes the blocks the responder provably lacks.
//
// DiffProbe/DiffSketch/DiffResult are reconciliation v2 (DESIGN.md
// §16). When the level-1 round leaves a gap, the initiator asks for a
// prefix of the responder's rateless symbol stream (setdiff/iblt.h)
// over salted 64-bit short IDs, peels it against its own set, and
// asks for the next chunk while symbol 0 still holds keys. A
// successful peel that leaves bodies to fetch sends a DiffResult
// naming their short IDs, and the responder answers it with the
// BlockResponse directly. Failure, or a stream past the symbol cap,
// falls back to level escalation without a message. There
// are no protocol versions: every responder serves every message,
// whatever its own mode.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/types.h"
#include "serial/codec.h"
#include "setdiff/iblt.h"
#include "util/bytes.h"
#include "util/status.h"

namespace vegvisir::recon {

enum class MessageType : std::uint8_t {
  kFrontierRequest = 1,
  kFrontierResponse = 2,
  kBlockRequest = 3,
  kBlockResponse = 4,
  kPushBlocks = 5,
  kDiffProbe = 6,
  kDiffSketch = 7,
  kDiffResult = 8,
};

struct FrontierRequest {
  std::uint32_t level = 1;
  bool hashes_only = false;
  // Sanity check: both sides must be on the same chain.
  chain::BlockHash genesis{};
  // SHA-256 over the initiator's sorted frontier. If it matches the
  // responder's, the replicas are identical and the response carries
  // the frontier hashes and no bodies — the paper's "identical
  // frontier sets" early exit, for 32 bytes per idle gossip tick.
  // Every session's opening request carries it, so setdiff sessions
  // between identical replicas never send a DiffProbe.
  chain::BlockHash frontier_digest{};
};

struct FrontierResponse {
  std::uint32_t level = 1;
  chain::BlockHash genesis{};
  // Hashes of the level-n frontier set (always present).
  std::vector<chain::BlockHash> hashes;
  // Serialized blocks; empty when the request was hashes_only.
  std::vector<Bytes> blocks;
};

struct BlockRequest {
  std::vector<chain::BlockHash> hashes;
};

struct BlockResponse {
  std::vector<Bytes> blocks;
};

struct PushBlocks {
  std::vector<Bytes> blocks;
};

// Asks for the responder's stream from symbol `begin` on; the first
// probe of a session has begin 0. The responder sizes the chunk: the
// first one from the two fields below, each later one doubling the
// prefix. Genesis was already checked by the session's opening
// FrontierRequest, so the probe does not repeat it.
struct DiffProbe {
  std::uint64_t begin = 0;
  // The initiator's set size and how many of the responder's level-1
  // frontier blocks it lacks: with its own size, the responder bounds
  // the difference from below.
  std::uint64_t set_size = 0;
  std::uint64_t missing = 0;
};

// One chunk of the responder's symbol stream over the short IDs of
// the set it fixed at the session's first probe.
struct DiffSketch {
  // The session salt: the ShortId salt of every key in the stream. The
  // responder derives it from the opening request's frontier digest
  // and its own; carried explicitly so the initiator never guesses.
  std::uint64_t seed = 0;
  // Responder's set size: lets the initiator sanity-check a peel that
  // claims more one-sided difference than the peer holds.
  std::uint64_t set_size = 0;
  // Stream index of symbols[0].
  std::uint64_t begin = 0;
  std::vector<setdiff::CodedSymbol> symbols;
};

// The initiator's fetch after a successful peel: `want`, the peer-only
// short IDs whose bodies it still needs. Sent only when `want` is
// non-empty; the responder answers with one BlockResponse.
struct DiffResult {
  std::vector<std::uint64_t> want;
};

// Envelope encoding: a type byte followed by the payload.
Bytes EncodeMessage(const FrontierRequest& m);
Bytes EncodeMessage(const FrontierResponse& m);
Bytes EncodeMessage(const BlockRequest& m);
Bytes EncodeMessage(const BlockResponse& m);
Bytes EncodeMessage(const PushBlocks& m);
Bytes EncodeMessage(const DiffProbe& m);
Bytes EncodeMessage(const DiffSketch& m);
Bytes EncodeMessage(const DiffResult& m);

// Peeks the envelope type. Fails on empty/unknown input.
StatusOr<MessageType> PeekType(ByteSpan data);

Status DecodeMessage(ByteSpan data, FrontierRequest* out);
Status DecodeMessage(ByteSpan data, FrontierResponse* out);
Status DecodeMessage(ByteSpan data, BlockRequest* out);
Status DecodeMessage(ByteSpan data, BlockResponse* out);
Status DecodeMessage(ByteSpan data, PushBlocks* out);
Status DecodeMessage(ByteSpan data, DiffProbe* out);
Status DecodeMessage(ByteSpan data, DiffSketch* out);
Status DecodeMessage(ByteSpan data, DiffResult* out);

// Stable counter suffix classifying a failed decode. Every
// early-return verdict a DecodeMessage/PeekType call can produce maps
// to one of: "empty", "unknown_type", "unexpected_type",
// "count_overflow", "truncated", "trailing", "noncanonical"; anything
// unrecognized maps to "other". Sessions bump the matching
// recon.<side>.reject.<suffix> counter (all declared in
// telemetry/metric_names.h) so malformed-input rejections are
// observable per cause, not just as a failed session.
const char* DecodeRejectName(const Status& status);

}  // namespace vegvisir::recon

// Reconciliation sessions (paper §IV-G, Algorithm 1).
//
// A session is a pair of state machines exchanging the byte messages
// of recon/messages.h. They are transport-agnostic: the simulator (or
// a real radio link) moves the bytes. Every session opens as
// Algorithm 1 does: the initiator asks for the responder's level-1
// frontier, sending the digest of its own frontier along, and
// identical frontiers end the session in that one round. Three modes:
//
//   kBlockPush (paper-faithful): every frontier response carries full
//     block bodies, re-sending the whole level-n set each round; the
//     initiator escalates n until the gap to its own DAG is bridged.
//   kHashFirst (ablation E10, the paper's future-work direction):
//     frontier responses carry hashes only, the initiator fetches just
//     the bodies it is missing, and every gap is closed by level
//     escalation.
//   kSetDiff (reconciliation v2, DESIGN.md §16): hash-first, except
//     that if level 1 leaves a gap, the initiator reads a prefix of
//     the responder's rateless symbol stream over salted 64-bit short
//     IDs (setdiff/iblt.h) and peels it against its own set, asking
//     for a twice-as-long prefix while it is stuck. A successful peel
//     yields exactly the differing IDs — wire cost proportional to
//     the delta, not the DAG. The initiator resolves its own IDs to
//     hashes and names the peer-only IDs it wants in its DiffResult,
//     which the responder resolves and answers with the bodies. A
//     failed peel, an ID the initiator cannot resolve, or a stream
//     past the symbol cap falls back to hash-first level escalation.
//
// The mode only shapes what an initiator asks for: every responder
// serves every message, so fleets that mix modes interoperate.
//
// With `push_back` enabled the initiator finishes by pushing the
// blocks the responder provably lacks (anti-entropy extension; off by
// default to match the paper's one-way pull).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "chain/block.h"
#include "chain/dag.h"
#include "chain/validation.h"
#include "recon/messages.h"
#include "telemetry/telemetry.h"
#include "util/status.h"

namespace vegvisir::recon {

// The pre-resolved registry handles one session side holds. A host
// resolves each side's set once (ReconHost::session_metrics) and every
// session copies it; every hot-path update is a handle increment (see
// telemetry/metrics.h).
struct SessionMetrics {
  // Binds recon.<side>.* metrics, e.g. side = "initiator".
  static SessionMetrics Resolve(telemetry::Telemetry* sink,
                                const char* side);

  // Counts one outgoing message into bytes_sent and its
  // recon.bytes.<message> counter.
  void CountSent(const Bytes& message);

  // Bumps the recon.<side>.reject.<suffix> counter matching a failed
  // PeekType/DecodeMessage verdict (suffix = DecodeRejectName(s)).
  void CountDecodeReject(const Status& status);

  telemetry::Counter sessions_started;
  telemetry::Counter sessions_completed;
  telemetry::Counter sessions_failed;
  telemetry::Counter rounds;
  telemetry::Counter bytes_sent;
  telemetry::Counter bytes_received;
  telemetry::Counter blocks_received;
  telemetry::Counter blocks_inserted;
  telemetry::Counter blocks_pushed;
  telemetry::Histogram final_level;  // initiator only
  // Escalation gave up at the configured max_level with the gap still
  // open (the silent-failure case; surfaced in chain_inspect metrics).
  telemetry::Counter level_cap_hit;
  // setdiff negotiation (global setdiff.* names, not per-side: the
  // probe/decode legs are initiator-only and the sketch legs
  // responder-only, so per-side copies would just be zeros). A probe
  // asks for one chunk of the symbol stream and a sketch carries it.
  telemetry::Counter setdiff_probes;          // initiator
  telemetry::Counter setdiff_sketches_sent;   // responder
  telemetry::Counter setdiff_sketch_bytes;    // responder
  telemetry::Counter setdiff_decode_success;  // initiator
  telemetry::Counter setdiff_decode_failure;  // initiator
  telemetry::Counter setdiff_fallbacks;       // initiator
  telemetry::Counter setdiff_want_unresolved;  // responder
  // Bytes sent per message type (recon.bytes.<message>, both sides
  // together), indexed by MessageType - 1.
  std::array<telemetry::Counter, 8> bytes_by_type;
  // Decode-rejection verdicts, one per early-return class in
  // recon/messages.cpp (see DecodeRejectName).
  telemetry::Counter reject_empty;
  telemetry::Counter reject_unknown_type;
  telemetry::Counter reject_unexpected_type;
  telemetry::Counter reject_count_overflow;
  telemetry::Counter reject_truncated;
  telemetry::Counter reject_trailing;
  telemetry::Counter reject_noncanonical;
  telemetry::Counter reject_other;
};

enum class SessionSide { kInitiator = 0, kResponder = 1 };

// What a session needs from its node: the local DAG and a way to
// offer received blocks (the host validates, inserts, feeds the CSM
// and manages its quarantine).
class ReconHost {
 public:
  virtual ~ReconHost() = default;

  virtual const chain::Dag& dag() const = 0;

  // Offers a block received from a peer. kValid means it was inserted.
  virtual chain::BlockVerdict OfferBlock(const chain::Block& block) = 0;

  // True if the host already holds this block's bytes — inserted in
  // the DAG *or* parked in a quarantine. Sessions use it to avoid
  // re-fetching bodies the host cannot attach yet.
  virtual bool HasBlock(const chain::BlockHash& h) const {
    return dag().Contains(h);
  }

  // The host's telemetry sink. May be null (uninstrumented host): the
  // session handles then degrade to no-ops. Must not change over the
  // host's lifetime, since session_metrics() resolves from it once.
  virtual telemetry::Telemetry* telemetry() const { return nullptr; }

  // The counter handles sessions on this host count into, one set per
  // side, resolved from telemetry() by the first session of that side
  // and copied by every later one.
  const SessionMetrics& session_metrics(SessionSide side);

  // Pipelined-ingest hook: a session hands every fetched-level block
  // here the moment it lands, so the host can fan the stateless
  // signature checks across its execution pool while the serial merge
  // (and the radio round-trip for the next level) proceeds. Results
  // are consumed later by validation; the default host does nothing
  // and validation verifies synchronously.
  virtual void PreverifyBlocks(
      const std::vector<const chain::Block*>& blocks) {
    (void)blocks;
  }

 private:
  std::array<std::optional<SessionMetrics>, 2> session_metrics_;
};

struct ReconConfig {
  enum class Mode { kBlockPush = 0, kHashFirst = 1, kSetDiff = 2 };
  Mode mode = Mode::kBlockPush;
  // Ceiling on the symbols of one session's stream, counted from its
  // start, that this node will serve or request. Defaults to the wire
  // cap (serial::limits::kMaxSymbols); tests lower it to force the
  // fallback to level escalation.
  std::uint32_t max_symbols = 1u << 16;
  // Give up escalating past this frontier level (a safety valve; the
  // escalation naturally stops once the set reaches the genesis).
  std::uint32_t max_level = 1u << 20;
  bool push_back = false;
  // First level to request (default 1); escalation is the paper's
  // Algorithm 1 (n <- n+1). The gossip engine resumes a failed
  // catch-up at the level the previous session reached, so
  // multi-session progress accumulates across lossy links.
  std::uint32_t start_level = 1;
};

// One session's result value (what RunLocalSession reports). Sessions
// also count every field into the host's metrics registry
// (recon.initiator.* / recon.responder.*); engine- and cluster-level
// totals are read from there by name.
struct SessionStats {
  std::uint64_t rounds = 0;           // frontier requests sent/served
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t blocks_received = 0;  // bodies received over the wire
  std::uint64_t blocks_inserted = 0;  // newly added to the DAG
  std::uint64_t blocks_pushed = 0;    // bodies pushed to the peer
};

enum class SessionState { kRunning, kDone, kFailed };

class InitiatorSession {
 public:
  InitiatorSession(ReconHost* host, ReconConfig config);

  // The first message to send to the responder.
  Bytes Start();

  // Feeds a responder message; any messages to send back are appended
  // to `out`. A non-OK status means the session failed.
  Status OnMessage(ByteSpan data, std::vector<Bytes>* out);

  SessionState state() const { return state_; }
  const SessionStats& stats() const { return stats_; }
  // The frontier level most recently requested (for session resume).
  std::uint32_t level() const { return level_; }

 private:
  // setdiff negotiation progress (mode kSetDiff only).
  enum class DiffPhase {
    kInactive,     // not negotiated yet (or never: block-push, hash-first)
    kAwaitSketch,  // probe sent, its chunk of the stream not yet received
    kAwaitBlocks,  // peel succeeded, fetching the missing bodies
    kFellBack,     // negotiation abandoned; level escalation active
  };

  Bytes MakeFrontierRequest();
  // Asks for the responder's stream from the first symbol not yet
  // received.
  Bytes MakeDiffProbe();
  // True when frontier responses should carry hashes only and gaps
  // are closed with BlockRequest fetches (hash-first, and setdiff
  // outside an open negotiation).
  bool HashFirstActive() const;
  Status HandleFrontierResponse(ByteSpan data, std::vector<Bytes>* out);
  Status HandleDiffSketch(ByteSpan data, std::vector<Bytes>* out);
  // Peels the stream's first chunk against the DAG and the stash.
  void StartDecoder(std::uint64_t salt);
  // Asks for the bodies a peeled difference lacks (a DiffResult, sent
  // only when there are some), else merges and finishes.
  Status SendDiffResult(std::vector<Bytes>* out);
  // Abandons the setdiff negotiation for level escalation, resuming
  // one level below the opening round. The responder is not told: the
  // frontier requests that follow speak for themselves.
  Status FallBackToLevels(std::vector<Bytes>* out);
  Status HandleBlockResponse(ByteSpan data, std::vector<Bytes>* out);
  Status StashBlocks(const std::vector<Bytes>& blocks);
  // Merges the stash into the DAG (fixpoint). Returns true if every
  // stashed block was resolved (inserted / duplicate / rejected);
  // false if some still miss parents and escalation must continue.
  // Those stay stashed while the symbol stream is still to come (its
  // delta brings their ancestry); otherwise they are handed to the
  // host's quarantine so partial progress survives.
  bool TryMerge();
  // True once every block the peer advertised is *inserted* in the
  // local DAG (quarantined does not count — a quarantined frontier
  // still needs its ancestry fetched).
  bool CaughtUp() const;
  // Called when a round left a gap. A setdiff session that has not
  // negotiated yet opens the symbol stream; otherwise the level goes
  // up by one (or the session fails at max_level).
  Status EscalateOrFail(std::vector<Bytes>* out);
  void FinishMaybePush(std::vector<Bytes>* out);
  void MarkFailed();
  Bytes Send(Bytes message);

  ReconHost* host_;
  ReconConfig config_;
  SessionState state_ = SessionState::kRunning;
  SessionStats stats_;
  SessionMetrics metrics_;
  std::uint32_t level_ = 1;
  DiffPhase diff_phase_ = DiffPhase::kInactive;
  // Peels the responder's stream; built at its first chunk.
  std::optional<setdiff::SymbolDecoder> decoder_;
  // Bodies received this session, keyed by hash, not yet inserted.
  std::map<chain::BlockHash, chain::Block> stash_;
  // What this session asked for: hashes it requested or was
  // advertised, and the short IDs of its DiffResult's `want` under the
  // stream's salt. A body matching neither is unsolicited
  // (wire corruption or a hostile peer) and is dropped before the
  // host can park it.
  std::set<chain::BlockHash> requested_;
  std::set<std::uint64_t> wanted_ids_;
  std::uint64_t want_salt_ = 0;
  // The peer's advertised level-1 frontier (used for push-back).
  std::vector<chain::BlockHash> peer_frontier_;
  bool peer_frontier_known_ = false;
  // The most recent advertised hash set and its size; if escalation
  // stops growing the set (the level saturated at the whole DAG) and
  // we are still not caught up, the gap is not bridgeable this
  // session (e.g. a block quarantined on clock skew) and we fail
  // rather than loop.
  std::vector<chain::BlockHash> last_advertised_;
  std::size_t last_level_count_ = 0;
};

class ResponderSession {
 public:
  ResponderSession(ReconHost* host, ReconConfig config);

  // Handles one initiator message, appending replies to `out`.
  Status OnMessage(ByteSpan data, std::vector<Bytes>* out);

  const SessionStats& stats() const { return stats_; }

 private:
  Status HandleFrontierRequest(ByteSpan data, std::vector<Bytes>* out);
  Status HandleBlockRequest(ByteSpan data, std::vector<Bytes>* out);
  Status HandlePushBlocks(ByteSpan data);
  Status HandleDiffProbe(ByteSpan data, std::vector<Bytes>* out);
  Status HandleDiffResult(ByteSpan data, std::vector<Bytes>* out);
  Bytes Send(Bytes message);

  ReconHost* host_;
  ReconConfig config_;
  SessionStats stats_;
  SessionMetrics metrics_;
  // The frontier digest of the session's opening FrontierRequest
  // (which checks genesis); a DiffProbe is only served after one.
  std::optional<chain::BlockHash> opening_digest_;
  // The stream's salt and how many of the DAG's insertion-ordered
  // hashes it codes (a prefix of Dag::Hashes()), both fixed by the
  // first probe; a DiffResult's `want` IDs are resolved there.
  std::optional<std::uint64_t> salt_;
  std::size_t sketched_ = 0;
};

// Runs a complete session over a lossless in-process "wire",
// delivering messages alternately until the initiator finishes.
// Returns the initiator's final state. Used by tests and benches;
// the simulator drives sessions through real (simulated) links
// instead.
SessionState RunLocalSession(ReconHost* initiator_host,
                             ReconHost* responder_host,
                             const ReconConfig& config,
                             SessionStats* initiator_stats = nullptr,
                             SessionStats* responder_stats = nullptr);

}  // namespace vegvisir::recon

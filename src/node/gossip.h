// The opportunistic gossip engine (paper §IV-G).
//
// "Periodically, a node picks a physical neighbor at random (if it
// has any)" and runs a reconciliation session against it. This engine
// bridges a Node to the simulated radio network: it fires a periodic
// (jittered) tick, starts initiator sessions toward random neighbours
// and demultiplexes incoming envelopes to the right session.
//
// Recovery behaviour (hardened against the fault injector,
// sim/faults.h): a session that fails or times out puts its peer on
// an exponential-backoff cooldown (with jitter) so repeatedly-failing
// neighbours stop being picked until their backoff expires; the first
// few failures also schedule a direct retry toward that peer the
// moment the backoff ends, so one lost message costs one backoff
// interval instead of waiting for the random selector to come back
// around. Malformed envelopes (short header, unknown direction or
// session) are counted and dropped, never parsed. Responder-side
// per-session state is reaped when its initiator disappears
// (crash, partition) instead of leaking.
//
// Envelope format on the wire:
//   u8  direction (0: initiator->responder, 1: responder->initiator)
//   u64 session id (unique per initiator engine)
//   ... reconciliation message bytes
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "node/node.h"
#include "recon/session.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace vegvisir::node {

// Gossip envelope framing (see the header comment): a 9-byte header
// (u8 direction + u64 session id) followed by the reconciliation
// message payload.
inline constexpr std::uint8_t kEnvelopeToResponder = 0;
inline constexpr std::uint8_t kEnvelopeToInitiator = 1;
inline constexpr std::size_t kEnvelopeHeaderBytes = 9;

struct GossipEnvelope {
  std::uint8_t direction = kEnvelopeToResponder;
  std::uint64_t session_id = 0;
  // View into the input buffer (valid only while it lives).
  ByteSpan payload;
};

// Parses the envelope framing with full bounds checking; the payload
// is NOT decoded (that is the receiving session's job). The only
// decode path a gossip message travels before a session sees it, and
// the unit the envelope fuzz harness drives directly.
Status ParseEnvelope(ByteSpan envelope, GossipEnvelope* out);

struct GossipConfig {
  sim::TimeMs period_ms = 1'000;
  sim::TimeMs jitter_ms = 250;
  // Sessions idle longer than this are abandoned (lost messages);
  // responder-side state idle longer than this is reaped as orphaned.
  // Inactivity-based: any received message resets the clock, so this
  // only has to cover a round trip plus processing — seconds, not the
  // whole transfer. Failing fast matters: the engine runs one session
  // per peer, so a stalled session blocks that pair until it expires.
  sim::TimeMs session_timeout_ms = 8'000;
  bool enabled = true;  // adversaries may refuse to initiate
  // ---- failure backoff -------------------------------------------
  // After the k-th consecutive failure toward a peer, that peer is
  // skipped by neighbour selection for
  //   min(backoff_base_ms << (k-1), backoff_max_ms) + U[0, jitter]
  // milliseconds. The first `max_fast_retries` failures also schedule
  // a direct retry when the backoff expires.
  sim::TimeMs backoff_base_ms = 2'000;
  sim::TimeMs backoff_max_ms = 60'000;
  sim::TimeMs backoff_jitter_ms = 1'000;
  std::uint32_t max_fast_retries = 4;
  // Hard cap on concurrently tracked responder-side sessions; beyond
  // it the stalest entry is evicted as orphaned.
  std::size_t responder_session_cap = 64;
};

// The engine's counters live in the node's telemetry registry:
// gossip.* for its own bookkeeping, recon.initiator.* (counted by the
// sessions, live, including sessions still in flight) for traffic.
class GossipEngine {
 public:
  // Consecutive-failure state for one peer; selection skips the peer
  // until next_ok_ms. Exposed for tests and debugging.
  struct PeerBackoff {
    std::uint32_t failures = 0;
    sim::TimeMs next_ok_ms = 0;
  };

  GossipEngine(Node* node, sim::Simulator* simulator, sim::Network* network,
               sim::NodeId id, GossipConfig config, std::uint64_t seed);

  // Registers the network handler and schedules the first tick.
  // `meter` (optional) charges radio energy for this node.
  void Start(sim::EnergyMeter* meter = nullptr);

  // Stops initiating. In-flight sessions keep draining and
  // maintenance (session/responder expiry) keeps running.
  void Stop() { running_ = false; }

  // Full teardown for a crash: stops the tick chain, drops every
  // in-flight initiator session (counted as aborted) and releases all
  // responder-side state (counted as orphaned). The engine must not
  // be Start()ed again; the cluster builds a fresh one on restart.
  void Shutdown();

  sim::NodeId id() const { return id_; }

  // ---- introspection for tests / invariant checks -----------------
  std::size_t ActiveSessionCount() const { return sessions_.size(); }
  std::size_t ResponderSessionCount() const { return responders_.size(); }
  const std::map<sim::NodeId, PeerBackoff>& peer_backoff() const {
    return backoff_;
  }
  // The frontier level the next session toward this peer resumes at
  // (0: no failed catch-up pending, sessions start at start_level).
  std::uint32_t ResumeLevelFor(sim::NodeId peer) const {
    const auto it = resume_level_.find(peer);
    return it == resume_level_.end() ? 0 : it->second;
  }

 private:
  struct ActiveSession {
    std::unique_ptr<recon::InitiatorSession> session;
    sim::NodeId peer;
    sim::TimeMs started_ms;
    sim::TimeMs last_activity_ms;
  };
  struct ResponderState {
    recon::ResponderSession session;
    sim::TimeMs last_activity_ms;
  };
  enum class FinishReason { kCompleted, kFailed, kAborted };

  void Tick();
  void OnMessage(sim::NodeId from, const Bytes& envelope);
  void StartSessionWith(sim::NodeId peer);
  void RetryPeer(sim::NodeId peer);
  // True if the envelope made it onto the air (false: unreachable or
  // flap-blocked; counted under gossip.envelopes_unsent).
  bool SendEnvelope(sim::NodeId to, std::uint8_t direction,
                    std::uint64_t session_id, const Bytes& payload);
  void FinishSession(std::uint64_t session_id, FinishReason reason);
  void RecordFailure(sim::NodeId peer);
  void RejectEnvelope(std::size_t envelope_bytes);
  ResponderState& ResponderFor(std::uint64_t session_id, sim::TimeMs now);
  bool HasActiveSessionWith(sim::NodeId peer) const;
  void ExpireSessions();

  Node* node_;
  sim::Simulator* simulator_;
  sim::Network* network_;
  sim::NodeId id_;
  GossipConfig config_;
  Rng rng_;
  bool running_ = false;
  bool shutdown_ = false;
  bool ticking_ = false;  // a tick chain is scheduled

  std::uint64_t next_session_id_ = 1;
  std::map<std::uint64_t, ActiveSession> sessions_;
  // Responder-side state per remote initiator session, reaped on
  // idle-timeout (the initiator crashed, gave up, or its replies are
  // being eaten by the network).
  std::map<std::uint64_t, ResponderState> responders_;
  // Where a failed/timed-out catch-up left off, per peer: the next
  // session toward that peer resumes at this frontier level, so deep
  // catch-ups make progress across sessions even on lossy links.
  std::map<sim::NodeId, std::uint32_t> resume_level_;
  // Consecutive-failure backoff per peer (the cooldown list).
  std::map<sim::NodeId, PeerBackoff> backoff_;
  // Engine-only counters (session traffic is counted by the sessions
  // themselves, into the same per-node registry).
  telemetry::Counter c_ticks_;
  telemetry::Counter c_timed_out_;
  telemetry::Counter c_aborted_;
  telemetry::Counter c_envelopes_rejected_;
  telemetry::Counter c_envelope_bytes_rejected_;
  telemetry::Counter c_envelopes_unsent_;
  telemetry::Counter c_envelope_bytes_unsent_;
  telemetry::Counter c_backoffs_;
  telemetry::Counter c_retries_;
  telemetry::Counter c_cooldown_skips_;
  telemetry::Counter c_responder_orphaned_;
};

}  // namespace vegvisir::node

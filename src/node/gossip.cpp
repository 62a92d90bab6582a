#include "node/gossip.h"

#include <algorithm>
#include <iterator>

#include "serial/codec.h"

namespace vegvisir::node {

Status ParseEnvelope(ByteSpan envelope, GossipEnvelope* out) {
  serial::Reader r(envelope);
  VEGVISIR_RETURN_IF_ERROR(r.ReadU8(&out->direction));
  VEGVISIR_RETURN_IF_ERROR(r.ReadU64(&out->session_id));
  if (out->direction != kEnvelopeToResponder &&
      out->direction != kEnvelopeToInitiator) {
    return InvalidArgumentError("unknown envelope direction");
  }
  out->payload = envelope.subspan(kEnvelopeHeaderBytes);
  return Status::Ok();
}

GossipEngine::GossipEngine(Node* node, sim::Simulator* simulator,
                           sim::Network* network, sim::NodeId id,
                           GossipConfig config, std::uint64_t seed)
    : node_(node),
      simulator_(simulator),
      network_(network),
      id_(id),
      config_(config),
      rng_(seed),
      c_ticks_(node->telemetry()->metrics.GetCounter("gossip.ticks")),
      c_timed_out_(node->telemetry()->metrics.GetCounter(
          "gossip.sessions_timed_out")),
      c_aborted_(node->telemetry()->metrics.GetCounter(
          "gossip.sessions_aborted")),
      c_envelopes_rejected_(node->telemetry()->metrics.GetCounter(
          "gossip.envelopes_rejected")),
      c_envelope_bytes_rejected_(node->telemetry()->metrics.GetCounter(
          "gossip.envelope_bytes_rejected")),
      c_envelopes_unsent_(node->telemetry()->metrics.GetCounter(
          "gossip.envelopes_unsent")),
      c_envelope_bytes_unsent_(node->telemetry()->metrics.GetCounter(
          "gossip.envelope_bytes_unsent")),
      c_backoffs_(node->telemetry()->metrics.GetCounter("gossip.backoffs")),
      c_retries_(node->telemetry()->metrics.GetCounter("gossip.retries")),
      c_cooldown_skips_(node->telemetry()->metrics.GetCounter(
          "gossip.cooldown_skips")),
      c_responder_orphaned_(node->telemetry()->metrics.GetCounter(
          "recon.responder.sessions_orphaned")) {
  // Session ids start at a random 32-bit offset so an engine rebuilt
  // after a crash does not reuse its predecessor's ids: replies still
  // in flight toward the old incarnation must not be mistaken for
  // answers to the new one's sessions.
  next_session_id_ = 1 + rng_.NextBelow(std::uint64_t{1} << 32);
}

void GossipEngine::Start(sim::EnergyMeter* meter) {
  running_ = true;
  network_->Register(
      id_, [this](sim::NodeId from, const Bytes& env) { OnMessage(from, env); },
      meter);
  if (ticking_) return;  // restart after Stop(): the chain is alive
  ticking_ = true;
  const sim::TimeMs first =
      config_.period_ms + rng_.NextBelow(config_.jitter_ms + 1);
  simulator_->ScheduleAfter(first, [this] { Tick(); });
}

void GossipEngine::Shutdown() {
  running_ = false;
  shutdown_ = true;
  c_aborted_.Inc(sessions_.size());
  sessions_.clear();
  c_responder_orphaned_.Inc(responders_.size());
  responders_.clear();
  backoff_.clear();
}

void GossipEngine::Tick() {
  if (shutdown_) {
    ticking_ = false;
    return;
  }
  // Maintenance runs even while stopped: in-flight sessions drain,
  // abandoned responder state is reaped, quarantined blocks whose
  // timestamps have come into tolerance get another chance.
  ExpireSessions();
  if (node_->QuarantineSize() > 0) {
    // Batch the quarantine's signature checks across the execution
    // pool before the serial retry sweep consumes them — creator
    // enrolments may have landed since the blocks were parked, and
    // already-cached entries make this a cheap no-op.
    node_->PreverifyQuarantine();
    node_->RetryQuarantine();
  }

  if (running_) {
    c_ticks_.Inc();
    node_->telemetry()->trace.RecordInstant("gossip.tick", simulator_->now(),
                                            id_);
    if (config_.enabled) {
      const sim::TimeMs now = simulator_->now();
      std::vector<sim::NodeId> neighbors = network_->NeighborsOf(id_);
      // One session per peer at a time (stacking sessions toward an
      // unresponsive peer just multiplies the eventual timeouts), and
      // peers still cooling down after recent failures are not
      // eligible: a dead neighbour should not soak up gossip rounds
      // the healthy ones could use.
      const auto ineligible = std::remove_if(
          neighbors.begin(), neighbors.end(), [&](sim::NodeId peer) {
            if (HasActiveSessionWith(peer)) return true;
            const auto it = backoff_.find(peer);
            if (it != backoff_.end() && it->second.next_ok_ms > now) {
              c_cooldown_skips_.Inc();
              return true;
            }
            return false;
          });
      neighbors.erase(ineligible, neighbors.end());
      if (!neighbors.empty()) {
        StartSessionWith(neighbors[rng_.NextBelow(neighbors.size())]);
      }
    }
  }

  const sim::TimeMs next =
      config_.period_ms + rng_.NextBelow(config_.jitter_ms + 1);
  simulator_->ScheduleAfter(next, [this] { Tick(); });
}

void GossipEngine::StartSessionWith(sim::NodeId peer) {
  const std::uint64_t session_id =
      (static_cast<std::uint64_t>(id_) << 40) |
      (next_session_id_++ & ((std::uint64_t{1} << 40) - 1));
  recon::ReconConfig session_cfg = node_->recon_config();
  if (const auto it = resume_level_.find(peer); it != resume_level_.end()) {
    session_cfg.start_level = it->second;
  }
  ActiveSession active;
  active.session =
      std::make_unique<recon::InitiatorSession>(node_, session_cfg);
  active.peer = peer;
  active.started_ms = simulator_->now();
  active.last_activity_ms = active.started_ms;
  // The session itself counts recon.initiator.sessions_started.
  const Bytes first = active.session->Start();
  sessions_.emplace(session_id, std::move(active));
  if (!SendEnvelope(peer, kEnvelopeToResponder, session_id, first)) {
    // The radio could not reach the peer at all (moved out of range,
    // or the link is flapped down): fail fast so the backoff starts
    // counting now instead of after a full session timeout.
    FinishSession(session_id, FinishReason::kAborted);
  }
}

void GossipEngine::RetryPeer(sim::NodeId peer) {
  if (shutdown_ || !running_ || !config_.enabled) return;
  const auto it = backoff_.find(peer);
  if (it == backoff_.end()) return;  // a later session already succeeded
  if (it->second.next_ok_ms > simulator_->now()) return;  // superseded
  if (HasActiveSessionWith(peer)) return;
  if (!network_->Connected(id_, peer)) return;  // still out of range
  c_retries_.Inc();
  StartSessionWith(peer);
}

void GossipEngine::OnMessage(sim::NodeId from, const Bytes& envelope) {
  if (shutdown_) return;
  GossipEnvelope env;
  if (!ParseEnvelope(envelope, &env).ok()) {
    RejectEnvelope(envelope.size());
    return;
  }
  const std::uint64_t session_id = env.session_id;
  const ByteSpan payload = env.payload;
  const sim::TimeMs now = simulator_->now();

  if (env.direction == kEnvelopeToResponder) {
    ResponderState& responder = ResponderFor(session_id, now);
    responder.last_activity_ms = now;
    std::vector<Bytes> replies;
    const Status s = responder.session.OnMessage(payload, &replies);
    for (const Bytes& reply : replies) {
      SendEnvelope(from, kEnvelopeToInitiator, session_id, reply);
    }
    if (!s.ok()) {
      // Undecodable request (initiator bug or injector damage): this
      // session will never progress, release its state immediately.
      responders_.erase(session_id);
      c_responder_orphaned_.Inc();
    }
    return;
  }

  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    // Expired, aborted or pre-crash session — or a damaged id.
    RejectEnvelope(envelope.size());
    return;
  }
  it->second.last_activity_ms = now;
  std::vector<Bytes> replies;
  const Status s = it->second.session->OnMessage(payload, &replies);
  // Record escalation progress eagerly: if the next message is lost,
  // the follow-up session resumes from here instead of level 1.
  resume_level_[from] =
      std::max(resume_level_[from], it->second.session->level());
  bool sent_all = true;
  for (const Bytes& reply : replies) {
    sent_all = SendEnvelope(from, kEnvelopeToResponder, session_id, reply) && sent_all;
  }
  const recon::SessionState state = it->second.session->state();
  if (!s.ok() || state != recon::SessionState::kRunning) {
    FinishSession(session_id, state == recon::SessionState::kDone
                                  ? FinishReason::kCompleted
                                  : FinishReason::kFailed);
  } else if (!sent_all) {
    // Our next request never hit the air; the responder cannot answer
    // a message it never saw. Abort instead of idling into timeout.
    FinishSession(session_id, FinishReason::kAborted);
  }
}

bool GossipEngine::SendEnvelope(sim::NodeId to, std::uint8_t direction,
                                std::uint64_t session_id,
                                const Bytes& payload) {
  serial::Writer w;
  w.WriteU8(direction);
  w.WriteU64(session_id);
  Bytes env = w.Take();
  Append(&env, payload);
  const std::size_t size = env.size();
  if (network_->Send(id_, to, std::move(env))) return true;
  // The session counted these bytes as sent; the network refused them
  // (unreachable / flapped link). Recorded so byte accounting stays
  // exact: session bytes = net bytes - headers + unsent payloads.
  c_envelopes_unsent_.Inc();
  c_envelope_bytes_unsent_.Inc(size);
  return false;
}

void GossipEngine::RejectEnvelope(std::size_t envelope_bytes) {
  c_envelopes_rejected_.Inc();
  c_envelope_bytes_rejected_.Inc(envelope_bytes);
}

GossipEngine::ResponderState& GossipEngine::ResponderFor(
    std::uint64_t session_id, sim::TimeMs now) {
  auto it = responders_.find(session_id);
  if (it != responders_.end()) return it->second;
  if (responders_.size() >= config_.responder_session_cap) {
    auto stalest = responders_.begin();
    for (auto jt = std::next(responders_.begin()); jt != responders_.end();
         ++jt) {
      if (jt->second.last_activity_ms < stalest->second.last_activity_ms) {
        stalest = jt;
      }
    }
    responders_.erase(stalest);
    c_responder_orphaned_.Inc();
  }
  return responders_
      .emplace(session_id,
               ResponderState{
                   recon::ResponderSession(node_, node_->recon_config()), now})
      .first->second;
}

bool GossipEngine::HasActiveSessionWith(sim::NodeId peer) const {
  for (const auto& [id, active] : sessions_) {
    if (active.peer == peer) return true;
  }
  return false;
}

void GossipEngine::FinishSession(std::uint64_t session_id,
                                 FinishReason reason) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  const sim::NodeId peer = it->second.peer;
  // Traffic and completion counters live in the session; the engine
  // records the span (peer, escalation depth reached) for the tracer.
  node_->telemetry()->trace.RecordSpan("recon.session",
                                       it->second.started_ms,
                                       simulator_->now(), peer,
                                       it->second.session->level());
  if (reason == FinishReason::kCompleted) {
    resume_level_.erase(peer);
    backoff_.erase(peer);  // the link works again; forgive the past
  } else {
    resume_level_[peer] =
        std::max(resume_level_[peer], it->second.session->level());
    if (reason == FinishReason::kAborted) c_aborted_.Inc();
  }
  sessions_.erase(it);
  if (reason != FinishReason::kCompleted) RecordFailure(peer);
}

void GossipEngine::RecordFailure(sim::NodeId peer) {
  PeerBackoff& b = backoff_[peer];
  b.failures += 1;
  const std::uint32_t shift = std::min<std::uint32_t>(b.failures - 1, 16);
  const sim::TimeMs wait =
      std::min<sim::TimeMs>(config_.backoff_max_ms,
                            config_.backoff_base_ms << shift) +
      rng_.NextBelow(config_.backoff_jitter_ms + 1);
  b.next_ok_ms = simulator_->now() + wait;
  c_backoffs_.Inc();
  if (b.failures <= config_.max_fast_retries) {
    const sim::NodeId p = peer;
    simulator_->ScheduleAfter(wait + 1, [this, p] { RetryPeer(p); });
  }
}

void GossipEngine::ExpireSessions() {
  const sim::TimeMs now = simulator_->now();
  std::vector<sim::NodeId> failed_peers;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now - it->second.last_activity_ms > config_.session_timeout_ms) {
      c_timed_out_.Inc();
      node_->telemetry()->trace.RecordSpan(
          "recon.session.timeout", it->second.started_ms, now,
          it->second.peer, it->second.session->level());
      // Resume the next session toward this peer where this one
      // stalled (lost message mid-escalation).
      resume_level_[it->second.peer] = std::max(
          resume_level_[it->second.peer], it->second.session->level());
      failed_peers.push_back(it->second.peer);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  for (const sim::NodeId peer : failed_peers) RecordFailure(peer);
  for (auto it = responders_.begin(); it != responders_.end();) {
    if (now - it->second.last_activity_ms > config_.session_timeout_ms) {
      // The initiator vanished (crashed, partitioned, gave up): its
      // responder-side state would otherwise leak forever.
      c_responder_orphaned_.Inc();
      it = responders_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace vegvisir::node

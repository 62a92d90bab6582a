#include "recon/session.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <set>

#include "crypto/sha256.h"
#include "serial/limits.h"

namespace vegvisir::recon {
namespace {

// The session salt a responder keys its stream with: 64 bits of
// SHA-256 over a domain tag, the frontier digest of the session's
// opening request and the responder's own. Deterministic, so
// same-seed runs stay byte-identical, yet it changes whenever either
// replica's frontier does, so an unlucky short-ID collision does not
// outlive the next block either side gains.
std::uint64_t SketchSalt(const chain::BlockHash& initiator_frontier,
                         const chain::BlockHash& responder_frontier) {
  serial::Writer w;
  w.WriteString("vegvisir/setdiff/salt/v2");
  w.WriteFixed(initiator_frontier);
  w.WriteFixed(responder_frontier);
  // Only the responder derives the salt (it travels in the sketch), so
  // host byte order is fine here.
  const crypto::Sha256Digest digest = crypto::Sha256::Hash(w.Take());
  std::uint64_t salt;
  std::memcpy(&salt, digest.data(), sizeof(salt));
  return salt;
}

// Fixpoint insertion, shared by both session sides: passes over
// `blocks` in the given order offer every block whose parents are
// known, and every accepted block may unblock later ones, until a
// pass makes no progress. Offered entries are nulled; what is left
// still misses parents. Returns how many the host accepted as kValid.
std::uint64_t MergeFixpoint(ReconHost* host,
                            std::vector<const chain::Block*>* blocks) {
  std::uint64_t inserted = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const chain::Block*& block : *blocks) {
      if (block == nullptr) continue;  // offered in an earlier pass
      const std::vector<chain::BlockHash>& parents = block->header().parents;
      if (!std::all_of(parents.begin(), parents.end(),
                       [&](const chain::BlockHash& p) {
                         return host->dag().Contains(p);
                       })) {
        continue;
      }
      // kReject: deterministically invalid, drop. kRetryLater with
      // parents known means the host quarantined it (unknown creator
      // or future timestamp); the host owns the retry, not us.
      if (host->OfferBlock(*block) == chain::BlockVerdict::kValid) {
        ++inserted;
      }
      block = nullptr;
      progress = true;
    }
  }
  return inserted;
}

// Hands the blocks MergeFixpoint left to the host anyway — it
// quarantines them, so the bytes a session already paid for survive a
// lost message or a timeout. Without this, escalation over deep gaps
// is all-or-nothing per session and lossy links can starve it forever
// (each level must arrive in the SAME session). The initiator still
// escalates to fetch the missing ancestry; once it lands, the
// quarantine drains everything at once. Returns true if none was left.
bool ParkUnmerged(ReconHost* host,
                  const std::vector<const chain::Block*>& blocks) {
  bool complete = true;
  for (const chain::Block* block : blocks) {
    if (block == nullptr) continue;
    (void)host->OfferBlock(*block);
    complete = false;
  }
  return complete;
}

}  // namespace

SessionMetrics SessionMetrics::Resolve(telemetry::Telemetry* sink,
                                       const char* side) {
  SessionMetrics m;
  if (sink == nullptr) return m;  // unbound handles: no-op increments
  telemetry::MetricsRegistry& reg = sink->metrics;
  // lint: metric-name recon.initiator.* recon.responder.*
  // (side is "initiator" or "responder"; every expansion is declared
  // in telemetry/metric_names.h)
  const std::string prefix = std::string("recon.") + side + ".";
  m.sessions_started = reg.GetCounter(prefix + "sessions_started");
  m.sessions_completed = reg.GetCounter(prefix + "sessions_completed");
  m.sessions_failed = reg.GetCounter(prefix + "sessions_failed");
  m.rounds = reg.GetCounter(prefix + "rounds");
  m.bytes_sent = reg.GetCounter(prefix + "bytes_sent");
  m.bytes_received = reg.GetCounter(prefix + "bytes_received");
  m.blocks_received = reg.GetCounter(prefix + "blocks_received");
  m.blocks_inserted = reg.GetCounter(prefix + "blocks_inserted");
  m.blocks_pushed = reg.GetCounter(prefix + "blocks_pushed");
  m.final_level = reg.GetHistogram(prefix + "final_level",
                                   telemetry::PowerOfTwoBounds(10));
  m.level_cap_hit = reg.GetCounter(prefix + "level_cap_hit");
  m.setdiff_probes = reg.GetCounter("setdiff.probes");
  m.setdiff_sketches_sent = reg.GetCounter("setdiff.sketches_sent");
  m.setdiff_sketch_bytes = reg.GetCounter("setdiff.sketch_bytes");
  m.setdiff_decode_success = reg.GetCounter("setdiff.decode_success");
  m.setdiff_decode_failure = reg.GetCounter("setdiff.decode_failure");
  m.setdiff_fallbacks = reg.GetCounter("setdiff.fallbacks");
  m.setdiff_want_unresolved = reg.GetCounter("setdiff.want_unresolved");
  static constexpr const char* kMessageNames[] = {
      "frontier_request", "frontier_response", "block_request",
      "block_response",   "push_blocks",       "diff_probe",
      "diff_sketch",      "diff_result",
  };
  static_assert(std::size(kMessageNames) == std::tuple_size_v<
                    decltype(m.bytes_by_type)>);
  for (std::size_t i = 0; i < m.bytes_by_type.size(); ++i) {
    // lint: metric-name recon.bytes.*
    m.bytes_by_type[i] =
        reg.GetCounter(std::string("recon.bytes.") + kMessageNames[i]);
  }
  m.reject_empty = reg.GetCounter(prefix + "reject.empty");
  m.reject_unknown_type = reg.GetCounter(prefix + "reject.unknown_type");
  m.reject_unexpected_type =
      reg.GetCounter(prefix + "reject.unexpected_type");
  m.reject_count_overflow =
      reg.GetCounter(prefix + "reject.count_overflow");
  m.reject_truncated = reg.GetCounter(prefix + "reject.truncated");
  m.reject_trailing = reg.GetCounter(prefix + "reject.trailing");
  m.reject_noncanonical = reg.GetCounter(prefix + "reject.noncanonical");
  m.reject_other = reg.GetCounter(prefix + "reject.other");
  return m;
}

const SessionMetrics& ReconHost::session_metrics(SessionSide side) {
  std::optional<SessionMetrics>& slot =
      session_metrics_[static_cast<std::size_t>(side)];
  if (!slot.has_value()) {
    slot = SessionMetrics::Resolve(
        telemetry(),
        side == SessionSide::kInitiator ? "initiator" : "responder");
  }
  return *slot;
}

void SessionMetrics::CountSent(const Bytes& message) {
  bytes_sent.Inc(message.size());
  // Every message a session sends came from EncodeMessage, so its
  // type byte is valid.
  bytes_by_type[message[0] - 1].Inc(message.size());
}

void SessionMetrics::CountDecodeReject(const Status& status) {
  const std::string_view suffix = DecodeRejectName(status);
  if (suffix == "empty") {
    reject_empty.Inc();
  } else if (suffix == "unknown_type") {
    reject_unknown_type.Inc();
  } else if (suffix == "unexpected_type") {
    reject_unexpected_type.Inc();
  } else if (suffix == "count_overflow") {
    reject_count_overflow.Inc();
  } else if (suffix == "truncated") {
    reject_truncated.Inc();
  } else if (suffix == "trailing") {
    reject_trailing.Inc();
  } else if (suffix == "noncanonical") {
    reject_noncanonical.Inc();
  } else {
    reject_other.Inc();
  }
}

// --------------------------------------------------------- Initiator

InitiatorSession::InitiatorSession(ReconHost* host, ReconConfig config)
    : host_(host),
      config_(config),
      metrics_(host->session_metrics(SessionSide::kInitiator)),
      level_(std::max<std::uint32_t>(1, config.start_level)) {}

Bytes InitiatorSession::Send(Bytes message) {
  stats_.bytes_sent += message.size();
  metrics_.CountSent(message);
  return message;
}

bool InitiatorSession::HashFirstActive() const {
  // Setdiff runs hash-first outside an open negotiation: the opening
  // frontier round and the fallback rounds after an abandoned one.
  return config_.mode == ReconConfig::Mode::kHashFirst ||
         (config_.mode == ReconConfig::Mode::kSetDiff &&
          (diff_phase_ == DiffPhase::kInactive ||
           diff_phase_ == DiffPhase::kFellBack));
}

Bytes InitiatorSession::MakeFrontierRequest() {
  FrontierRequest req;
  req.level = level_;
  // Setdiff frontier rounds are hash-first: escalation is then paid in
  // hashes, not repeated bodies.
  req.hashes_only = HashFirstActive();
  req.genesis = host_->dag().genesis_hash();
  req.frontier_digest = host_->dag().FrontierDigest();
  stats_.rounds += 1;
  metrics_.rounds.Inc();
  return Send(EncodeMessage(req));
}

Bytes InitiatorSession::MakeDiffProbe() {
  DiffProbe probe;
  probe.begin = decoder_.has_value() ? decoder_->received() : 0;
  // The set StartDecoder codes: the DAG plus the stash.
  probe.set_size = host_->dag().Size() + stash_.size();
  // Each advertised block not in the DAG is, or sits on, a block only
  // the responder holds.
  for (const chain::BlockHash& h : last_advertised_) {
    probe.missing += host_->dag().Contains(h) ? 0 : 1;
  }
  diff_phase_ = DiffPhase::kAwaitSketch;
  stats_.rounds += 1;
  metrics_.rounds.Inc();
  metrics_.setdiff_probes.Inc();
  return Send(EncodeMessage(probe));
}

Bytes InitiatorSession::Start() {
  metrics_.sessions_started.Inc();
  // Every mode opens as Algorithm 1 does, with the frontier request:
  // its digest lets identical replicas finish in one round. Setdiff
  // opens its symbol stream only if that round leaves a gap (see
  // EscalateOrFail).
  return MakeFrontierRequest();
}

void InitiatorSession::MarkFailed() {
  state_ = SessionState::kFailed;
  metrics_.sessions_failed.Inc();
  metrics_.final_level.Observe(static_cast<double>(level_));
}

Status InitiatorSession::OnMessage(ByteSpan data, std::vector<Bytes>* out) {
  if (state_ != SessionState::kRunning) {
    return FailedPreconditionError("session not running");
  }
  stats_.bytes_received += data.size();
  metrics_.bytes_received.Inc(data.size());
  const auto type = PeekType(data);
  if (!type.ok()) {
    metrics_.CountDecodeReject(type.status());
    MarkFailed();
    return type.status();
  }
  Status s;
  switch (*type) {
    case MessageType::kFrontierResponse:
      s = HandleFrontierResponse(data, out);
      break;
    case MessageType::kBlockResponse:
      s = HandleBlockResponse(data, out);
      break;
    case MessageType::kDiffSketch:
      s = HandleDiffSketch(data, out);
      break;
    default:
      s = InvalidArgumentError("unexpected message for initiator");
      metrics_.CountDecodeReject(s);
      break;
  }
  if (!s.ok()) MarkFailed();
  return s;
}

Status InitiatorSession::StashBlocks(const std::vector<Bytes>& blocks) {
  std::vector<const chain::Block*> fresh;
  for (const Bytes& raw : blocks) {
    auto block = chain::Block::Deserialize(raw);
    if (!block.ok()) return block.status();
    stats_.blocks_received += 1;
    metrics_.blocks_received.Inc();
    const chain::BlockHash h = block->hash();
    if (requested_.count(h) == 0 &&
        wanted_ids_.count(setdiff::ShortId(h, want_salt_)) == 0) {
      continue;  // unsolicited: never offer it to the host
    }
    if (host_->HasBlock(h)) continue;  // already stored or quarantined
    const auto [it, inserted] = stash_.emplace(h, *std::move(block));
    if (inserted) fresh.push_back(&it->second);
  }
  // Overlap the level's signature checks with the serial merge below
  // (and with the radio RTT for the next escalation level).
  if (!fresh.empty()) host_->PreverifyBlocks(fresh);
  return Status::Ok();
}

bool InitiatorSession::TryMerge() {
  std::vector<const chain::Block*> blocks;
  blocks.reserve(stash_.size());
  for (const auto& [hash, block] : stash_) blocks.push_back(&block);
  const std::uint64_t inserted = MergeFixpoint(host_, &blocks);
  stats_.blocks_inserted += inserted;
  metrics_.blocks_inserted.Inc(inserted);
  if (config_.mode != ReconConfig::Mode::kSetDiff ||
      diff_phase_ != DiffPhase::kInactive) {
    const bool complete = ParkUnmerged(host_, blocks);
    stash_.clear();
    return complete;
  }
  // The symbol stream comes next and its delta brings the missing
  // ancestry: keep what is left (the level-1 tips) for that merge.
  auto it = stash_.begin();
  for (const chain::Block* block : blocks) {
    it = block == nullptr ? stash_.erase(it) : std::next(it);
  }
  return stash_.empty();
}

bool InitiatorSession::CaughtUp() const {
  for (const chain::BlockHash& h : last_advertised_) {
    if (!host_->dag().Contains(h)) return false;
  }
  return true;
}

Status InitiatorSession::HandleFrontierResponse(ByteSpan data,
                                                std::vector<Bytes>* out) {
  if (config_.mode == ReconConfig::Mode::kSetDiff && !HashFirstActive()) {
    // Mid-negotiation the responder only ever sends sketches and
    // block responses; an unsolicited frontier response is hostile.
    const Status s = InvalidArgumentError("unexpected message for initiator");
    metrics_.CountDecodeReject(s);
    return s;
  }
  FrontierResponse resp;
  if (Status s = DecodeMessage(data, &resp); !s.ok()) {
    metrics_.CountDecodeReject(s);
    return s;
  }
  if (resp.genesis != host_->dag().genesis_hash()) {
    return FailedPreconditionError("peer is on a different chain");
  }
  if (!peer_frontier_known_) {
    // The level-1 frontier is a subset of every level-n set, but only
    // the first response's hash list is exactly the peer's frontier.
    peer_frontier_ = resp.hashes;
    peer_frontier_known_ = true;
  }
  // Saturation: if escalating stopped growing the advertised set, the
  // responder has nothing deeper to give; a still-open gap is not
  // bridgeable this session (e.g. a block quarantined on clock skew).
  const bool saturated =
      level_ > 1 && resp.hashes.size() <= last_level_count_;
  last_level_count_ = resp.hashes.size();
  last_advertised_ = resp.hashes;
  requested_.insert(resp.hashes.begin(), resp.hashes.end());

  if (HashFirstActive()) {
    // Request only the bodies we miss.
    BlockRequest req;
    for (const chain::BlockHash& h : resp.hashes) {
      if (!host_->HasBlock(h) && stash_.count(h) == 0) {
        req.hashes.push_back(h);
      }
    }
    if (req.hashes.empty()) {
      // Nothing new at this level; either we are already caught up or
      // bodies are parked awaiting deeper history.
      if (TryMerge() && CaughtUp()) {
        FinishMaybePush(out);
        return Status::Ok();
      }
      if (saturated) {
        return FailedPreconditionError(
            "peer's history exhausted but gap still open");
      }
      return EscalateOrFail(out);
    }
    out->push_back(Send(EncodeMessage(req)));
    return Status::Ok();
  }

  // Block-push mode: bodies arrive with the response.
  VEGVISIR_RETURN_IF_ERROR(StashBlocks(resp.blocks));
  if (TryMerge() && CaughtUp()) {
    FinishMaybePush(out);
    return Status::Ok();
  }
  if (saturated) {
    return FailedPreconditionError(
        "peer's history exhausted but gap still open");
  }
  return EscalateOrFail(out);
}

Status InitiatorSession::HandleDiffSketch(ByteSpan data,
                                          std::vector<Bytes>* out) {
  if (diff_phase_ != DiffPhase::kAwaitSketch) {
    const Status s = InvalidArgumentError("unexpected message for initiator");
    metrics_.CountDecodeReject(s);
    return s;
  }
  DiffSketch sketch;
  if (Status s = DecodeMessage(data, &sketch); !s.ok()) {
    metrics_.CountDecodeReject(s);
    return s;
  }
  if (!decoder_.has_value()) StartDecoder(sketch.seed);
  const std::vector<std::uint64_t>& own = decoder_->local();
  // Two of our hashes sharing an ID make the stream ambiguous, and a
  // chunk off the stream's salt or position cannot extend it. Each
  // counts as a failed decode: never merge on a guess.
  const bool usable =
      std::adjacent_find(own.begin(), own.end()) == own.end() &&
      sketch.seed == want_salt_ && sketch.begin == decoder_->received();
  if (usable) decoder_->Add(sketch.symbols);
  // An ours-only ID that names none of our blocks can only come from a
  // checksum coincidence or a forged stream; so can a peel claiming
  // more peer-only keys than the peer's whole set.
  if (usable && decoder_->decoded() &&
      decoder_->remote_only().size() <= sketch.set_size &&
      std::all_of(decoder_->local_only().begin(),
                  decoder_->local_only().end(), [&](std::uint64_t id) {
                    return std::binary_search(own.begin(), own.end(), id);
                  })) {
    metrics_.setdiff_decode_success.Inc();
    return SendDiffResult(out);
  }
  if (usable && !decoder_->decoded() && !decoder_->failed() &&
      !sketch.symbols.empty() &&
      decoder_->received() < std::min<std::uint64_t>(
                                 config_.max_symbols,
                                 serial::limits::kMaxSymbols)) {
    // Stuck: symbol 0 still holds keys. Read on.
    out->push_back(MakeDiffProbe());
    return Status::Ok();
  }
  metrics_.setdiff_decode_failure.Inc();
  return FallBackToLevels(out);
}

void InitiatorSession::StartDecoder(std::uint64_t salt) {
  want_salt_ = salt;
  std::vector<std::uint64_t> own;
  own.reserve(host_->dag().Size() + stash_.size());
  for (const chain::BlockHash& h : host_->dag().Hashes()) {
    own.push_back(setdiff::ShortId(h, salt));
  }
  // The stashed level-1 tips are held too: coding them keeps them out
  // of the difference, so they are never fetched twice.
  for (const auto& [h, block] : stash_) {
    own.push_back(setdiff::ShortId(h, salt));
  }
  decoder_.emplace(std::move(own));
}

Status InitiatorSession::SendDiffResult(std::vector<Bytes>* out) {
  // Advertised bodies the host already holds, parked in its
  // quarantine by an earlier session, are not asked for again.
  std::set<std::uint64_t> held;
  for (const chain::BlockHash& h : last_advertised_) {
    if (host_->HasBlock(h)) held.insert(setdiff::ShortId(h, want_salt_));
  }
  DiffResult result;
  for (const std::uint64_t id : decoder_->remote_only()) {
    if (held.count(id) == 0) result.want.push_back(id);
  }
  if (!result.want.empty()) {
    wanted_ids_.insert(result.want.begin(), result.want.end());
    out->push_back(Send(EncodeMessage(result)));
    diff_phase_ = DiffPhase::kAwaitBlocks;
    return Status::Ok();
  }
  // Empty delta (or every body already held locally).
  if (TryMerge() && CaughtUp()) {
    FinishMaybePush(out);
    return Status::Ok();
  }
  return FallBackToLevels(out);
}

Status InitiatorSession::FallBackToLevels(std::vector<Bytes>* out) {
  diff_phase_ = DiffPhase::kFellBack;
  metrics_.setdiff_fallbacks.Inc();
  // The level walk parks what the stream was to complete.
  (void)TryMerge();
  // The opening round already covered the current level; resume the
  // walk one level deeper.
  return EscalateOrFail(out);
}

Status InitiatorSession::HandleBlockResponse(ByteSpan data,
                                             std::vector<Bytes>* out) {
  const bool fetching = diff_phase_ == DiffPhase::kAwaitBlocks;
  if (!fetching && !HashFirstActive()) {
    return InvalidArgumentError("unexpected block response");
  }
  BlockResponse resp;
  if (Status s = DecodeMessage(data, &resp); !s.ok()) {
    metrics_.CountDecodeReject(s);
    return s;
  }
  VEGVISIR_RETURN_IF_ERROR(StashBlocks(resp.blocks));
  if (TryMerge() && CaughtUp()) {
    FinishMaybePush(out);
    return Status::Ok();
  }
  // After the stream's fetch, the exact difference arrived but some of
  // it is still parked (e.g. quarantined ancestry): close the rest by
  // level walking.
  return fetching ? FallBackToLevels(out) : EscalateOrFail(out);
}

Status InitiatorSession::EscalateOrFail(std::vector<Bytes>* out) {
  if (config_.mode == ReconConfig::Mode::kSetDiff &&
      diff_phase_ == DiffPhase::kInactive) {
    // The opening frontier round left a gap: negotiate the exact
    // difference instead of walking deeper levels. Once per session;
    // a failed negotiation falls back to level escalation.
    out->push_back(MakeDiffProbe());
    return Status::Ok();
  }
  if (level_ >= config_.max_level) {
    // Not an attack, but never silent either: the gap stays open this
    // session and the gossip engine resumes from this level later.
    metrics_.level_cap_hit.Inc();
    return ResourceExhaustedError("frontier level cap reached");
  }
  ++level_;
  out->push_back(MakeFrontierRequest());
  return Status::Ok();
}

void InitiatorSession::FinishMaybePush(std::vector<Bytes>* out) {
  state_ = SessionState::kDone;
  metrics_.sessions_completed.Inc();
  metrics_.final_level.Observe(static_cast<double>(level_));
  if (!config_.push_back || !peer_frontier_known_) return;

  // The peer's DAG is exactly its frontier plus that frontier's
  // ancestors; after the merge our DAG is a superset, so anything of
  // ours outside that closure is provably missing on the peer.
  std::set<chain::BlockHash> peer_known;
  const chain::Dag& dag = host_->dag();
  for (const chain::BlockHash& h : peer_frontier_) {
    if (!dag.Contains(h)) continue;
    peer_known.insert(h);
    for (const chain::BlockHash& a : dag.Ancestors(h)) peer_known.insert(a);
  }

  PushBlocks push;
  for (const chain::BlockHash& h : dag.Hashes()) {
    if (peer_known.count(h) > 0) continue;
    const chain::Block* block = dag.Find(h);
    if (block == nullptr) continue;  // evicted body; peer must ask a superpeer
    push.blocks.push_back(block->Serialize());
  }
  if (push.blocks.empty()) return;
  stats_.blocks_pushed += push.blocks.size();
  metrics_.blocks_pushed.Inc(push.blocks.size());
  out->push_back(Send(EncodeMessage(push)));
}

// --------------------------------------------------------- Responder

ResponderSession::ResponderSession(ReconHost* host, ReconConfig config)
    : host_(host),
      config_(config),
      metrics_(host->session_metrics(SessionSide::kResponder)) {}

Bytes ResponderSession::Send(Bytes message) {
  stats_.bytes_sent += message.size();
  metrics_.CountSent(message);
  return message;
}

Status ResponderSession::OnMessage(ByteSpan data, std::vector<Bytes>* out) {
  stats_.bytes_received += data.size();
  metrics_.bytes_received.Inc(data.size());
  const auto type = PeekType(data);
  if (!type.ok()) {
    metrics_.CountDecodeReject(type.status());
    return type.status();
  }
  switch (*type) {
    case MessageType::kFrontierRequest:
      return HandleFrontierRequest(data, out);
    case MessageType::kBlockRequest:
      return HandleBlockRequest(data, out);
    case MessageType::kPushBlocks:
      return HandlePushBlocks(data);
    case MessageType::kDiffProbe:
      return HandleDiffProbe(data, out);
    case MessageType::kDiffResult:
      return HandleDiffResult(data, out);
    default: {
      const Status s = InvalidArgumentError("unexpected message for responder");
      metrics_.CountDecodeReject(s);
      return s;
    }
  }
}

Status ResponderSession::HandleDiffProbe(ByteSpan data,
                                         std::vector<Bytes>* out) {
  if (!opening_digest_.has_value()) {
    // Every session opens with a FrontierRequest, which is where the
    // responder checks the initiator is on its chain; a probe before
    // one is out of order.
    const Status s = InvalidArgumentError("unexpected message for responder");
    metrics_.CountDecodeReject(s);
    return s;
  }
  DiffProbe probe;
  if (Status s = DecodeMessage(data, &probe); !s.ok()) {
    metrics_.CountDecodeReject(s);
    return s;
  }
  stats_.rounds += 1;
  metrics_.rounds.Inc();

  const chain::Dag& dag = host_->dag();
  if (!salt_.has_value()) {
    // The stream codes the slots the DAG holds now; later chunks code
    // the same set, whatever the DAG gains meanwhile.
    salt_ = SketchSalt(*opening_digest_, dag.FrontierDigest());
    sketched_ = dag.Hashes().size();
  }
  // The stream is a commutative fold, so slot order is as good as any.
  std::vector<std::uint64_t> keys;
  keys.reserve(sketched_);
  for (std::size_t i = 0; i < sketched_; ++i) {
    keys.push_back(setdiff::ShortId(dag.Hashes()[i], *salt_));
  }
  // The first chunk covers the difference the probe lets us bound.
  // Our set holds R blocks the initiator lacks, its set L we lack, and
  // the sizes give R - L; the initiator saw it lacks at least
  // `missing` of ours. Blocks both sides wrote since they last met
  // cancel in the sizes, so the bound runs low, by an even number of
  // keys: in the field workload 0 in half the decodes, 2 in a quarter.
  // With two keys of slack about one decode in six needs a second
  // chunk. Each later probe doubles the prefix.
  const std::uint64_t missing =
      std::min(probe.missing, serial::limits::kMaxSymbols);
  std::uint64_t bound = 0;
  if (sketched_ >= probe.set_size) {
    const std::uint64_t net =
        std::min(sketched_ - probe.set_size, serial::limits::kMaxSymbols);
    bound = missing > net ? 2 * missing - net : net;
  } else {
    const std::uint64_t net =
        std::min(probe.set_size - sketched_, serial::limits::kMaxSymbols);
    bound = 2 * missing + net;
  }
  const std::uint64_t cap = std::min<std::uint64_t>(
      config_.max_symbols, serial::limits::kMaxSymbols);
  const std::uint64_t begin = std::min(probe.begin, cap);
  const std::uint64_t end =
      std::min(std::max(2 * begin, setdiff::SymbolsFor(bound + 2)), cap);

  DiffSketch sketch;
  sketch.seed = *salt_;
  sketch.set_size = sketched_;
  sketch.begin = begin;
  sketch.symbols = setdiff::EncodeSymbols(keys, begin, end - begin);

  Bytes encoded = EncodeMessage(sketch);
  metrics_.setdiff_sketches_sent.Inc();
  metrics_.setdiff_sketch_bytes.Inc(encoded.size());
  out->push_back(Send(std::move(encoded)));
  return Status::Ok();
}

Status ResponderSession::HandleDiffResult(ByteSpan data,
                                          std::vector<Bytes>* out) {
  // The answer is the bodies of the IDs `want` names, resolved under
  // the salt of the stream this session sent. The initiator sends no
  // empty `want`; one is answered with nothing.
  DiffResult result;
  if (Status s = DecodeMessage(data, &result); !s.ok()) {
    metrics_.CountDecodeReject(s);
    return s;
  }
  if (result.want.empty()) return Status::Ok();
  if (!salt_.has_value()) {
    const Status s = InvalidArgumentError("unexpected message for responder");
    metrics_.CountDecodeReject(s);
    return s;
  }
  const std::set<std::uint64_t> want(result.want.begin(), result.want.end());
  std::set<std::uint64_t> found;
  // The streamed set is the DAG's first `sketched_` slots. Blocks the
  // DAG gained since were not in the stream, so no `want` ID can name
  // them. Slot order puts parents first, so the initiator can merge
  // the response as it reads it.
  const chain::Dag& dag = host_->dag();
  BlockResponse resp;
  for (std::size_t i = 0; i < sketched_; ++i) {
    const chain::BlockHash& h = dag.Hashes()[i];
    const std::uint64_t id = setdiff::ShortId(h, *salt_);
    if (want.count(id) == 0) continue;
    found.insert(id);
    // Evicted bodies cannot be served; the initiator can fetch them
    // from a superpeer / the support blockchain.
    if (const chain::Block* block = dag.Find(h)) {
      resp.blocks.push_back(block->Serialize());
    }
  }
  // An ID naming none of our blocks is skipped, not fatal: the
  // initiator's level walk closes whatever gap remains.
  metrics_.setdiff_want_unresolved.Inc(want.size() - found.size());
  stats_.blocks_pushed += resp.blocks.size();
  metrics_.blocks_pushed.Inc(resp.blocks.size());
  out->push_back(Send(EncodeMessage(resp)));
  return Status::Ok();
}

Status ResponderSession::HandleFrontierRequest(ByteSpan data,
                                               std::vector<Bytes>* out) {
  FrontierRequest req;
  if (Status s = DecodeMessage(data, &req); !s.ok()) {
    metrics_.CountDecodeReject(s);
    return s;
  }
  if (req.genesis != host_->dag().genesis_hash()) {
    return FailedPreconditionError("initiator is on a different chain");
  }
  if (req.level < 1) return InvalidArgumentError("frontier level must be >= 1");
  if (!opening_digest_.has_value()) opening_digest_ = req.frontier_digest;
  stats_.rounds += 1;
  metrics_.rounds.Inc();

  FrontierResponse resp;
  resp.level = req.level;
  resp.genesis = host_->dag().genesis_hash();

  // Identical frontiers == identical DAGs (paper §IV-G): reply with
  // the frontier hashes only, no bodies — the initiator will see all
  // hashes present and finish immediately.
  if (req.frontier_digest == host_->dag().FrontierDigest()) {
    resp.hashes = host_->dag().Frontier();
    out->push_back(Send(EncodeMessage(resp)));
    return Status::Ok();
  }

  // A corrupted (or hostile) level must not wrap negative through the
  // int cast below, nor walk arbitrarily deep per round: clamp to the
  // escalation ceiling the initiator honours AND the protocol-wide
  // cap (the configured ceiling can never legitimately exceed it).
  const std::uint32_t level = std::min(
      {req.level, config_.max_level,
       static_cast<std::uint32_t>(serial::limits::kMaxFrontierLevel)});
  resp.hashes = host_->dag().FrontierLevel(static_cast<int>(level));
  if (!req.hashes_only) {
    for (const chain::BlockHash& h : resp.hashes) {
      const chain::Block* block = host_->dag().Find(h);
      // Evicted bodies cannot be served; the initiator can fetch them
      // from a superpeer / the support blockchain.
      if (block != nullptr) resp.blocks.push_back(block->Serialize());
    }
    stats_.blocks_pushed += resp.blocks.size();
    metrics_.blocks_pushed.Inc(resp.blocks.size());
  }
  out->push_back(Send(EncodeMessage(resp)));
  return Status::Ok();
}

Status ResponderSession::HandleBlockRequest(ByteSpan data,
                                            std::vector<Bytes>* out) {
  BlockRequest req;
  if (Status s = DecodeMessage(data, &req); !s.ok()) {
    metrics_.CountDecodeReject(s);
    return s;
  }
  BlockResponse resp;
  for (const chain::BlockHash& h : req.hashes) {
    const chain::Block* block = host_->dag().Find(h);
    if (block != nullptr) resp.blocks.push_back(block->Serialize());
  }
  stats_.blocks_pushed += resp.blocks.size();
  metrics_.blocks_pushed.Inc(resp.blocks.size());
  out->push_back(Send(EncodeMessage(resp)));
  return Status::Ok();
}

Status ResponderSession::HandlePushBlocks(ByteSpan data) {
  PushBlocks push;
  if (Status s = DecodeMessage(data, &push); !s.ok()) {
    metrics_.CountDecodeReject(s);
    return s;
  }
  std::vector<chain::Block> pending;
  for (const Bytes& raw : push.blocks) {
    auto block = chain::Block::Deserialize(raw);
    if (!block.ok()) return block.status();
    stats_.blocks_received += 1;
    metrics_.blocks_received.Inc();
    if (!host_->dag().Contains(block->hash())) {
      pending.push_back(*std::move(block));
    }
  }
  std::vector<const chain::Block*> fresh;
  fresh.reserve(pending.size());
  for (const chain::Block& block : pending) fresh.push_back(&block);
  // Same pipelining as the initiator stash: signature checks fan out
  // while the serial fixpoint merge runs.
  if (!fresh.empty()) host_->PreverifyBlocks(fresh);
  const std::uint64_t inserted = MergeFixpoint(host_, &fresh);
  (void)ParkUnmerged(host_, fresh);
  stats_.blocks_inserted += inserted;
  metrics_.blocks_inserted.Inc(inserted);
  return Status::Ok();
}

// ------------------------------------------------------ local runner

SessionState RunLocalSession(ReconHost* initiator_host,
                             ReconHost* responder_host,
                             const ReconConfig& config,
                             SessionStats* initiator_stats,
                             SessionStats* responder_stats) {
  InitiatorSession initiator(initiator_host, config);
  ResponderSession responder(responder_host, config);

  std::deque<Bytes> to_responder;
  std::deque<Bytes> to_initiator;
  to_responder.push_back(initiator.Start());

  // Alternate until the initiator settles (bounded for safety).
  for (int step = 0; step < 1'000'000; ++step) {
    if (!to_responder.empty()) {
      const Bytes msg = std::move(to_responder.front());
      to_responder.pop_front();
      std::vector<Bytes> replies;
      if (!responder.OnMessage(msg, &replies).ok()) break;
      for (Bytes& r : replies) to_initiator.push_back(std::move(r));
      continue;
    }
    if (!to_initiator.empty()) {
      const Bytes msg = std::move(to_initiator.front());
      to_initiator.pop_front();
      std::vector<Bytes> replies;
      if (!initiator.OnMessage(msg, &replies).ok()) break;
      for (Bytes& r : replies) to_responder.push_back(std::move(r));
      continue;
    }
    break;  // both queues drained
  }

  if (initiator_stats != nullptr) *initiator_stats = initiator.stats();
  if (responder_stats != nullptr) *responder_stats = responder.stats();
  return initiator.state();
}

}  // namespace vegvisir::recon

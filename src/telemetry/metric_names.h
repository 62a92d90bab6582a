// The single registry table of every metric and trace name in the
// system.
//
// Invariant (enforced by tools/lint/vegvisir_lint.py and by
// telemetry tests): every name passed to MetricsRegistry::GetCounter /
// GetGauge / GetHistogram and to Tracer::RecordSpan / RecordInstant
// anywhere under src/ must appear in exactly one of the tables below.
// A metric that is not declared here does not exist — adding a
// counter means adding a row, which keeps dashboards, invariant
// checks (CounterSumByPrefix) and the exporters in sync with the
// code, and makes stray or misspelled names a lint failure instead
// of a silently-empty time series.
//
// Dynamically assembled names (e.g. "recon." + side + ".rounds" in
// recon/session.cpp) must have every expansion declared here and an
// adjacent `// lint: metric-name ...` annotation at the call site
// naming those expansions.
#pragma once

#include <algorithm>
#include <string_view>

#include "telemetry/metrics.h"

namespace vegvisir::telemetry::metric_names {

inline constexpr std::string_view kCounters[] = {
    // ---- baseline protocols (src/baseline) --------------------------
    "baseline.full_exchange.blocks_inserted",
    "baseline.full_exchange.blocks_received",
    "baseline.full_exchange.bytes_received",
    "baseline.full_exchange.bytes_sent",
    "baseline.full_exchange.runs",
    // ---- conflict-free state machine (src/csm) ----------------------
    "csm.applied_blocks",
    "csm.applied_txns",
    "csm.duplicate_creates",
    "csm.rejected_txns",
    // ---- parallel execution engine (src/exec) -----------------------
    "exec.batch_jobs",
    "exec.batches",
    "exec.presig_hits",
    "exec.presig_misses",
    "exec.tasks_executed",
    // ---- fault injector (src/sim/faults) ----------------------------
    "fault.acked_blocks_lost",
    "fault.bytes_truncated",
    "fault.crashes",
    "fault.messages_corrupted",
    "fault.messages_delayed",
    "fault.messages_dropped",
    "fault.messages_duplicated",
    "fault.messages_truncated",
    "fault.restarts",
    "fault.sends_flap_blocked",
    // ---- gossip engine (src/node/gossip) ----------------------------
    "gossip.backoffs",
    "gossip.cooldown_skips",
    "gossip.envelope_bytes_rejected",
    "gossip.envelope_bytes_unsent",
    "gossip.envelopes_rejected",
    "gossip.envelopes_unsent",
    "gossip.retries",
    "gossip.sessions_aborted",
    "gossip.sessions_timed_out",
    "gossip.ticks",
    // ---- simulated radio network (src/sim/network) ------------------
    "net.bytes_delivered",
    "net.bytes_sent",
    "net.messages_dead_letter",
    "net.messages_delivered",
    "net.messages_dropped",
    "net.messages_sent",
    "net.messages_unreachable",
    // ---- node block pipeline (src/node/node) ------------------------
    "node.blocks_accepted",
    "node.blocks_created",
    "node.blocks_quarantined",
    "node.blocks_rejected",
    "node.foreign_dropped",
    "node.quarantine_expired",
    // ---- reconciliation sessions (src/recon/session) ----------------
    "recon.initiator.blocks_inserted",
    "recon.initiator.blocks_pushed",
    "recon.initiator.blocks_received",
    "recon.initiator.bytes_received",
    "recon.initiator.bytes_sent",
    // Escalation hit the configured max_level with the gap still open
    // (both sides declared because SessionMetrics resolves per side;
    // only the initiator escalates, so the responder copy stays 0).
    "recon.initiator.level_cap_hit",
    "recon.initiator.rounds",
    "recon.initiator.sessions_completed",
    "recon.initiator.sessions_failed",
    "recon.initiator.sessions_started",
    "recon.responder.blocks_inserted",
    "recon.responder.blocks_pushed",
    "recon.responder.blocks_received",
    "recon.responder.bytes_received",
    "recon.responder.bytes_sent",
    "recon.responder.level_cap_hit",
    "recon.responder.rounds",
    "recon.responder.sessions_completed",
    "recon.responder.sessions_failed",
    "recon.responder.sessions_orphaned",
    "recon.responder.sessions_started",
    // setdiff negotiation legs (src/recon/session, src/setdiff). The
    // names are global, not per-side: each leg runs on exactly one
    // side (probes/decodes on the initiator, sketches on the
    // responder), so per-side copies would just be zeros. A probe asks
    // for one chunk of the symbol stream; a sketch carries it.
    "setdiff.decode_failure",
    "setdiff.decode_success",
    "setdiff.fallbacks",
    "setdiff.probes",
    "setdiff.sketch_bytes",
    "setdiff.sketches_sent",
    // want IDs in a DiffResult that named none of the responder's
    // blocks (skipped; the initiator's level walk covers the gap).
    "setdiff.want_unresolved",
    // Radio bytes by message type, both session sides together; the
    // eight rows sum to recon.initiator.bytes_sent +
    // recon.responder.bytes_sent (src/recon/session).
    "recon.bytes.block_request",
    "recon.bytes.block_response",
    "recon.bytes.diff_probe",
    "recon.bytes.diff_result",
    "recon.bytes.diff_sketch",
    "recon.bytes.frontier_request",
    "recon.bytes.frontier_response",
    "recon.bytes.push_blocks",
    // Decode-rejection verdicts: one counter per early-return class in
    // recon/messages.cpp (+ codec), per session side. The suffixes are
    // the stable names DecodeRejectName() returns.
    "recon.initiator.reject.count_overflow",
    "recon.initiator.reject.empty",
    "recon.initiator.reject.noncanonical",
    "recon.initiator.reject.other",
    "recon.initiator.reject.trailing",
    "recon.initiator.reject.truncated",
    "recon.initiator.reject.unexpected_type",
    "recon.initiator.reject.unknown_type",
    "recon.responder.reject.count_overflow",
    "recon.responder.reject.empty",
    "recon.responder.reject.noncanonical",
    "recon.responder.reject.other",
    "recon.responder.reject.trailing",
    "recon.responder.reject.truncated",
    "recon.responder.reject.unexpected_type",
    "recon.responder.reject.unknown_type",
    // ---- durable block-log storage engine (src/storage) -------------
    "storage.append_failures",
    "storage.appends",
    "storage.bytes_appended",
    "storage.faults.enospc",
    "storage.faults.short_writes",
    "storage.faults.torn_records",
    "storage.fsyncs",
    "storage.recovery.bytes_dropped",
    "storage.recovery.records_replayed",
    "storage.recovery.records_truncated",
    "storage.recovery.runs",
    "storage.segments_created",
    // ---- support / superpeer offload (src/support) ------------------
    "support.blocks_archived",
    "support.bytes_reclaimed",
    "support.evictions",
    "support.refetches",
};

inline constexpr std::string_view kGauges[] = {
    "exec.threads",
    "node.quarantine_size",
    "storage.cold_blocks",
    "storage.hot_blocks",
    "storage.hot_bytes",
    "storage.log_bytes",
    "storage.segments",
    "support.stored_bytes",
};

inline constexpr std::string_view kHistograms[] = {
    "exec.batch_size",
    "net.message_bytes",
    "recon.initiator.final_level",
    "recon.responder.final_level",
};

// Tracer span/instant names (telemetry/trace.h).
inline constexpr std::string_view kTraceNames[] = {
    "block.validate",
    "csm.apply",
    "gossip.tick",
    "recon.session",
    "recon.session.timeout",
};

namespace internal {
template <std::size_t N>
constexpr bool Contains(const std::string_view (&table)[N],
                        std::string_view name) {
  return std::find(std::begin(table), std::end(table), name) !=
         std::end(table);
}
}  // namespace internal

constexpr bool IsDeclaredCounter(std::string_view name) {
  return internal::Contains(kCounters, name);
}
constexpr bool IsDeclaredGauge(std::string_view name) {
  return internal::Contains(kGauges, name);
}
constexpr bool IsDeclaredHistogram(std::string_view name) {
  return internal::Contains(kHistograms, name);
}
constexpr bool IsDeclaredTraceName(std::string_view name) {
  return internal::Contains(kTraceNames, name);
}

// Runtime complement to the lint-time check: the names a live
// registry actually materialized that are missing from the tables.
// Tests run a full simulation and assert this comes back empty, so
// even a name the linter could not see (built dynamically, annotated
// incorrectly) cannot ship undeclared.
inline std::vector<std::string> UndeclaredNames(const Snapshot& snapshot) {
  std::vector<std::string> out;
  for (const auto& [name, value] : snapshot.counters) {
    if (!IsDeclaredCounter(name)) out.push_back(name);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (!IsDeclaredGauge(name)) out.push_back(name);
  }
  for (const auto& [name, value] : snapshot.histograms) {
    if (!IsDeclaredHistogram(name)) out.push_back(name);
  }
  return out;
}

}  // namespace vegvisir::telemetry::metric_names

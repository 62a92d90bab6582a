#include "sim/faults.h"

#include <algorithm>

namespace vegvisir::sim {
namespace {

double StrongerP(double a, double b) { return std::max(a, b); }

// Stateless per-(link, window) coin: the same link is down for the
// whole window, reconnects on the next one — the radio-shadow /
// interference pattern SplitMix64 gives us for free.
std::uint64_t LinkWindowHash(std::uint64_t seed, NodeId a, NodeId b,
                             std::uint64_t window) {
  const std::uint64_t lo = static_cast<std::uint64_t>(std::min(a, b));
  const std::uint64_t hi = static_cast<std::uint64_t>(std::max(a, b));
  SplitMix64 sm(seed ^ (lo * 0x9e3779b97f4a7c15ULL) ^
                (hi * 0xc2b2ae3d27d4eb4fULL) ^ (window * 0x165667b19e3779f9ULL));
  return sm.Next();
}

}  // namespace

bool IoFaultPlan::Empty() const {
  return short_write_probability == 0.0 && torn_record_probability == 0.0 &&
         enospc_after_bytes == 0;
}

IoFaultPlan& IoFaultPlan::Merge(const IoFaultPlan& other) {
  short_write_probability =
      StrongerP(short_write_probability, other.short_write_probability);
  torn_record_probability =
      StrongerP(torn_record_probability, other.torn_record_probability);
  if (other.enospc_after_bytes != 0) {
    enospc_after_bytes =
        enospc_after_bytes == 0
            ? other.enospc_after_bytes
            : std::min(enospc_after_bytes, other.enospc_after_bytes);
  }
  min_appends = std::max(min_appends, other.min_appends);
  return *this;
}

IoFaultPlan IoFaultPlan::ShortWrite(double p, std::uint64_t min_appends) {
  IoFaultPlan plan;
  plan.short_write_probability = p;
  plan.min_appends = min_appends;
  return plan;
}

IoFaultPlan IoFaultPlan::TornRecord(double p, std::uint64_t min_appends) {
  IoFaultPlan plan;
  plan.torn_record_probability = p;
  plan.min_appends = min_appends;
  return plan;
}

IoFaultPlan IoFaultPlan::Enospc(std::uint64_t after_bytes) {
  IoFaultPlan plan;
  plan.enospc_after_bytes = after_bytes;
  return plan;
}

bool FaultPlan::Empty() const {
  return corrupt_probability == 0.0 && truncate_probability == 0.0 &&
         duplicate_probability == 0.0 && drop_probability == 0.0 &&
         delay_probability == 0.0 && flap_period_ms == 0 &&
         clock_skew_max_ms == 0 && clock_skew_ms.empty() && crashes.empty() &&
         io.Empty();
}

FaultPlan& FaultPlan::Merge(const FaultPlan& other) {
  corrupt_probability = StrongerP(corrupt_probability, other.corrupt_probability);
  truncate_probability =
      StrongerP(truncate_probability, other.truncate_probability);
  duplicate_probability =
      StrongerP(duplicate_probability, other.duplicate_probability);
  drop_probability = StrongerP(drop_probability, other.drop_probability);
  delay_probability = StrongerP(delay_probability, other.delay_probability);
  delay_jitter_ms = std::max(delay_jitter_ms, other.delay_jitter_ms);
  if (other.flap_period_ms != 0) {
    flap_period_ms = flap_period_ms == 0
                         ? other.flap_period_ms
                         : std::min(flap_period_ms, other.flap_period_ms);
  }
  flap_down_probability =
      StrongerP(flap_down_probability, other.flap_down_probability);
  clock_skew_max_ms = std::max(clock_skew_max_ms, other.clock_skew_max_ms);
  for (const auto& [node, skew] : other.clock_skew_ms) {
    clock_skew_ms[node] = skew;
  }
  crashes.insert(crashes.end(), other.crashes.begin(), other.crashes.end());
  io.Merge(other.io);
  if (active_until_ms != 0 || other.active_until_ms != 0) {
    active_until_ms = std::max(active_until_ms, other.active_until_ms);
  }
  return *this;
}

FaultPlan FaultPlan::Corruption(double p) {
  FaultPlan plan;
  plan.corrupt_probability = p;
  return plan;
}

FaultPlan FaultPlan::Truncation(double p) {
  FaultPlan plan;
  plan.truncate_probability = p;
  return plan;
}

FaultPlan FaultPlan::Duplication(double p) {
  FaultPlan plan;
  plan.duplicate_probability = p;
  return plan;
}

FaultPlan FaultPlan::Loss(double p) {
  FaultPlan plan;
  plan.drop_probability = p;
  return plan;
}

FaultPlan FaultPlan::Reorder(double p, TimeMs jitter_ms) {
  FaultPlan plan;
  plan.delay_probability = p;
  plan.delay_jitter_ms = jitter_ms;
  return plan;
}

FaultPlan FaultPlan::LinkFlap(TimeMs period_ms, double down_probability) {
  FaultPlan plan;
  plan.flap_period_ms = period_ms;
  plan.flap_down_probability = down_probability;
  return plan;
}

FaultPlan FaultPlan::ClockSkew(std::int64_t max_ms) {
  FaultPlan plan;
  plan.clock_skew_max_ms = max_ms;
  return plan;
}

FaultPlan FaultPlan::CrashRestart(NodeId node, TimeMs crash_at_ms,
                                  TimeMs restart_at_ms) {
  FaultPlan plan;
  plan.crashes.push_back({node, crash_at_ms, restart_at_ms});
  return plan;
}

FaultPlan FaultPlan::Io(IoFaultPlan io_plan) {
  FaultPlan plan;
  plan.io = io_plan;
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed,
                             telemetry::Telemetry* telemetry)
    : plan_(std::move(plan)),
      rng_(seed),
      flap_seed_(SplitMix64(seed ^ 0xf1a9).Next()),
      skew_seed_(SplitMix64(seed ^ 0x5c3e).Next()),
      owned_telem_(telemetry != nullptr
                       ? nullptr
                       : std::make_unique<vegvisir::telemetry::Telemetry>()),
      telem_(telemetry != nullptr ? telemetry : owned_telem_.get()),
      c_corrupted_(telem_->metrics.GetCounter("fault.messages_corrupted")),
      c_truncated_(telem_->metrics.GetCounter("fault.messages_truncated")),
      c_duplicated_(telem_->metrics.GetCounter("fault.messages_duplicated")),
      c_dropped_(telem_->metrics.GetCounter("fault.messages_dropped")),
      c_delayed_(telem_->metrics.GetCounter("fault.messages_delayed")),
      c_flap_blocked_(telem_->metrics.GetCounter("fault.sends_flap_blocked")),
      c_bytes_truncated_(telem_->metrics.GetCounter("fault.bytes_truncated")) {}

bool FaultInjector::ActiveAt(TimeMs now) const {
  if (deactivated_) return false;
  return plan_.active_until_ms == 0 || now < plan_.active_until_ms;
}

bool FaultInjector::LinkUp(NodeId a, NodeId b, TimeMs now) {
  if (plan_.flap_period_ms == 0 || plan_.flap_down_probability <= 0.0 ||
      !ActiveAt(now)) {
    return true;
  }
  const std::uint64_t window = now / plan_.flap_period_ms;
  const double roll =
      static_cast<double>(LinkWindowHash(flap_seed_, a, b, window) >> 11) *
      0x1.0p-53;
  if (roll >= plan_.flap_down_probability) return true;
  c_flap_blocked_.Inc();
  return false;
}

std::vector<FaultInjector::Delivery> FaultInjector::OnSend(NodeId /*from*/,
                                                           NodeId /*to*/,
                                                           TimeMs now,
                                                           Bytes payload) {
  std::vector<Delivery> out;
  if (!ActiveAt(now)) {
    out.push_back({std::move(payload), 0});
    return out;
  }
  if (rng_.NextBool(plan_.drop_probability)) {
    c_dropped_.Inc();
    return out;
  }

  if (!payload.empty() && rng_.NextBool(plan_.corrupt_probability)) {
    // Flip a handful of random bytes: enough to break a signature, a
    // length field or the envelope header, depending on where they
    // land — which is the point.
    const std::size_t flips =
        1 + static_cast<std::size_t>(rng_.NextBelow(3));
    for (std::size_t i = 0; i < flips; ++i) {
      const std::size_t pos =
          static_cast<std::size_t>(rng_.NextBelow(payload.size()));
      payload[pos] ^= static_cast<std::uint8_t>(1 + rng_.NextBelow(255));
    }
    c_corrupted_.Inc();
  }
  if (!payload.empty() && rng_.NextBool(plan_.truncate_probability)) {
    const std::size_t keep =
        static_cast<std::size_t>(rng_.NextBelow(payload.size()));
    c_bytes_truncated_.Inc(payload.size() - keep);
    payload.resize(keep);
    c_truncated_.Inc();
  }

  TimeMs extra = 0;
  if (rng_.NextBool(plan_.delay_probability)) {
    extra = rng_.NextBelow(plan_.delay_jitter_ms + 1);
    c_delayed_.Inc();
  }

  const bool duplicate = rng_.NextBool(plan_.duplicate_probability);
  if (duplicate) {
    // The copy trails the original by a fresh jitter draw (plus a
    // floor so it is a genuine reordering hazard, not a no-op).
    const TimeMs dup_extra =
        extra + 1 +
        rng_.NextBelow(std::max<TimeMs>(plan_.delay_jitter_ms, 50));
    out.push_back({payload, dup_extra});
    c_duplicated_.Inc();
  }
  out.push_back({std::move(payload), extra});
  return out;
}

std::int64_t FaultInjector::ClockSkewFor(NodeId node, TimeMs now) const {
  if (!ActiveAt(now)) return 0;
  if (const auto it = plan_.clock_skew_ms.find(node);
      it != plan_.clock_skew_ms.end()) {
    return it->second;
  }
  if (plan_.clock_skew_max_ms <= 0) return 0;
  SplitMix64 sm(skew_seed_ ^
                (static_cast<std::uint64_t>(node) * 0x9e3779b97f4a7c15ULL));
  const std::uint64_t span =
      static_cast<std::uint64_t>(plan_.clock_skew_max_ms) * 2 + 1;
  return static_cast<std::int64_t>(sm.Next() % span) - plan_.clock_skew_max_ms;
}

}  // namespace vegvisir::sim

#include "sim/network.h"

namespace vegvisir::sim {

Network::Network(Simulator* simulator, const Topology* topology,
                 LinkParams params, std::uint64_t seed,
                 telemetry::Telemetry* telemetry)
    : simulator_(simulator),
      topology_(topology),
      params_(params),
      rng_(seed),
      owned_telem_(telemetry != nullptr
                       ? nullptr
                       : std::make_unique<vegvisir::telemetry::Telemetry>()),
      telem_(telemetry != nullptr ? telemetry : owned_telem_.get()),
      c_messages_sent_(telem_->metrics.GetCounter("net.messages_sent")),
      c_messages_delivered_(
          telem_->metrics.GetCounter("net.messages_delivered")),
      c_messages_dropped_(telem_->metrics.GetCounter("net.messages_dropped")),
      c_messages_unreachable_(
          telem_->metrics.GetCounter("net.messages_unreachable")),
      c_messages_dead_letter_(
          telem_->metrics.GetCounter("net.messages_dead_letter")),
      c_bytes_sent_(telem_->metrics.GetCounter("net.bytes_sent")),
      c_bytes_delivered_(telem_->metrics.GetCounter("net.bytes_delivered")),
      h_message_bytes_(telem_->metrics.GetHistogram(
          "net.message_bytes", vegvisir::telemetry::PowerOfTwoBounds(16))) {}

void Network::Register(NodeId node, Handler handler, EnergyMeter* meter) {
  endpoints_[node] = Endpoint{std::move(handler), meter};
}

void Network::Deregister(NodeId node) { endpoints_.erase(node); }

bool Network::Send(NodeId from, NodeId to, Bytes payload) {
  const TimeMs now = simulator_->now();
  if (!topology_->Connected(from, to, now) ||
      (injector_ != nullptr && !injector_->LinkUp(from, to, now))) {
    c_messages_unreachable_.Inc();
    return false;
  }

  c_messages_sent_.Inc();
  c_bytes_sent_.Inc(payload.size());
  h_message_bytes_.Observe(static_cast<double>(payload.size()));
  if (auto it = endpoints_.find(from);
      it != endpoints_.end() && it->second.meter != nullptr) {
    it->second.meter->AddTx(payload.size());
  }

  if (rng_.NextBool(params_.drop_probability)) {
    c_messages_dropped_.Inc();
    return true;  // transmitted, but lost in the air
  }

  // Transmission delay is charged for the bytes the radio carried —
  // the original payload — even if the injector then mangles them.
  const TimeMs delay =
      params_.base_latency_ms +
      static_cast<TimeMs>(static_cast<double>(payload.size()) /
                          params_.bytes_per_ms);

  if (injector_ == nullptr) {
    ScheduleDelivery(from, to, std::move(payload), delay);
    return true;
  }
  for (FaultInjector::Delivery& d :
       injector_->OnSend(from, to, now, std::move(payload))) {
    ScheduleDelivery(from, to, std::move(d.payload), delay + d.extra_delay_ms);
  }
  return true;
}

void Network::ScheduleDelivery(NodeId from, NodeId to, Bytes payload,
                               TimeMs delay) {
  simulator_->ScheduleAfter(
      delay, [this, from, to, payload = std::move(payload)]() {
        const auto it = endpoints_.find(to);
        if (it == endpoints_.end()) {
          c_messages_dead_letter_.Inc();
          return;
        }
        c_messages_delivered_.Inc();
        c_bytes_delivered_.Inc(payload.size());
        if (it->second.meter != nullptr) it->second.meter->AddRx(payload.size());
        it->second.handler(from, payload);
      });
}

}  // namespace vegvisir::sim

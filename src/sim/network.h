// The simulated radio network.
//
// Carries opaque byte payloads between nodes subject to the topology
// (connectivity at send time), link latency, per-byte transmission
// delay, and random loss. Charges the senders'/receivers' energy
// meters. Delivery callbacks fire as simulator events.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "sim/energy.h"
#include "sim/faults.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "telemetry/telemetry.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace vegvisir::sim {

struct LinkParams {
  TimeMs base_latency_ms = 5;
  double bytes_per_ms = 125.0;  // ~1 Mbit/s (BLE-ish application rate)
  double drop_probability = 0.0;
};

class Network {
 public:
  using Handler = std::function<void(NodeId from, const Bytes& payload)>;

  // `telemetry` is the sink the net.* series flow into (a Cluster
  // passes a bundle it aggregates); null means the network owns a
  // private bundle.
  Network(Simulator* simulator, const Topology* topology, LinkParams params,
          std::uint64_t seed, telemetry::Telemetry* telemetry = nullptr);

  // Registers the delivery callback and energy meter for a node.
  void Register(NodeId node, Handler handler, EnergyMeter* meter = nullptr);

  // Removes a node's endpoint (crashed / powered off). Messages
  // already in flight toward it are counted as dead letters and
  // dropped at delivery time.
  void Deregister(NodeId node);

  // Interposes a fault injector on every send (null disables). The
  // injector must outlive the network.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  // Sends `payload` from `from` to `to`. Returns false (and charges
  // nothing) if the two are not connected right now — including links
  // the fault injector currently holds down. Loss is charged to the
  // sender (the radio transmitted either way).
  bool Send(NodeId from, NodeId to, Bytes payload);

  std::vector<NodeId> NeighborsOf(NodeId n) const {
    return topology_->NeighborsOf(n, simulator_->now());
  }
  bool Connected(NodeId a, NodeId b) const {
    return topology_->Connected(a, b, simulator_->now());
  }

  telemetry::Telemetry* telemetry() const { return telem_; }
  const Topology& topology() const { return *topology_; }

 private:
  struct Endpoint {
    Handler handler;
    EnergyMeter* meter = nullptr;
  };

  void ScheduleDelivery(NodeId from, NodeId to, Bytes payload, TimeMs delay);

  Simulator* simulator_;
  const Topology* topology_;
  LinkParams params_;
  Rng rng_;
  FaultInjector* injector_ = nullptr;
  std::map<NodeId, Endpoint> endpoints_;
  std::unique_ptr<telemetry::Telemetry> owned_telem_;
  telemetry::Telemetry* telem_ = nullptr;
  telemetry::Counter c_messages_sent_;
  telemetry::Counter c_messages_delivered_;
  telemetry::Counter c_messages_dropped_;
  telemetry::Counter c_messages_unreachable_;
  telemetry::Counter c_messages_dead_letter_;
  telemetry::Counter c_bytes_sent_;
  telemetry::Counter c_bytes_delivered_;
  telemetry::Histogram h_message_bytes_;
};

}  // namespace vegvisir::sim

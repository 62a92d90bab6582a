// Deterministic fault injection for the simulated radio network.
//
// The paper's whole claim is graceful degradation under hostile IoT
// conditions (§I, §IV-G): partitions, lossy radios, crashing
// low-power devices. Uniform random loss and scheduled partitions
// (sim/topology.h) cover only the gentlest of those. This layer adds
// the rest: a FaultInjector sits between Network::Send and delivery
// and — driven by a composable FaultPlan — corrupts, truncates,
// duplicates, delays and drops messages per send, flaps individual
// links open and closed, skews node clocks, and schedules whole-node
// crash/restart cycles (executed by node::Cluster: a restarted node
// keeps only what its store fsync'd).
//
// Everything is a pure function of (plan, seed, sim time): a chaos
// run replays byte-identically, so a failing soak is a debuggable
// artifact rather than a flake. Every injected fault is counted under
// the fault.* telemetry namespace in the bundle the injector is
// handed (a Cluster passes the network's bundle).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "sim/topology.h"
#include "telemetry/telemetry.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace vegvisir::sim {

// Storage I/O faults, consumed by storage::FileIo (the engine's
// single syscall choke point). Plain data here so the sim layer
// stays free of storage dependencies; determinism comes from the
// seed the consumer mixes in. Each log append rolls independently
// once `min_appends` clean appends have gone through (lets a
// scenario bootstrap before the disk turns hostile).
struct IoFaultPlan {
  // A prefix of the record's payload reaches the disk, then the
  // write fails — the mid-payload power-loss shape.
  double short_write_probability = 0.0;
  // The cut lands inside the record header itself, leaving a tail
  // recovery cannot even size — the torn-record shape.
  double torn_record_probability = 0.0;
  // Total bytes the fake disk accepts before refusing with ENOSPC
  // (nothing written). 0 = unlimited.
  std::uint64_t enospc_after_bytes = 0;
  std::uint64_t min_appends = 0;

  bool Empty() const;
  // Probabilities take the stronger value; the byte budget takes the
  // tighter nonzero one; min_appends takes the later gate.
  IoFaultPlan& Merge(const IoFaultPlan& other);

  static IoFaultPlan ShortWrite(double p, std::uint64_t min_appends = 0);
  static IoFaultPlan TornRecord(double p, std::uint64_t min_appends = 0);
  static IoFaultPlan Enospc(std::uint64_t after_bytes);
};

// A composable description of what to break. Defaults are all-off;
// combine the preset factories with Merge:
//
//   auto plan = FaultPlan::Corruption(0.05)
//                   .Merge(FaultPlan::LinkFlap(5'000, 0.2))
//                   .Merge(FaultPlan::CrashRestart(3, 60'000, 90'000));
struct FaultPlan {
  // ---- per-message faults (each send attempt rolls independently) --
  double corrupt_probability = 0.0;    // flip random payload bytes
  double truncate_probability = 0.0;   // cut to a random prefix
  double duplicate_probability = 0.0;  // deliver a second copy, late
  double drop_probability = 0.0;       // injector loss, on top of link loss
  double delay_probability = 0.0;      // add reordering jitter
  TimeMs delay_jitter_ms = 0;          // uniform extra delay [0, jitter]

  // ---- link flapping ----------------------------------------------
  // Each undirected link is independently down with probability
  // `flap_down_probability` during each `flap_period_ms` window,
  // decided by a hash of (seed, link, window) — deterministic and
  // stateless. 0 period disables flapping.
  TimeMs flap_period_ms = 0;
  double flap_down_probability = 0.0;

  // ---- clock skew -------------------------------------------------
  // Per-node offset applied to the node's clock while faults are
  // active: explicit entries win, otherwise uniform in [-max, +max]
  // derived from the seed. Skews beyond the validator's
  // max_clock_skew_ms force quarantine traffic — exactly the path we
  // want exercised.
  std::int64_t clock_skew_max_ms = 0;
  std::map<NodeId, std::int64_t> clock_skew_ms;

  // ---- crash / restart --------------------------------------------
  // Executed by node::Cluster: at crash_at_ms the node is torn down
  // (in-flight sessions dropped, radio deregistered); at
  // restart_at_ms it is rebuilt from its store's log (from genesis
  // when it has none) and rejoins. Crashes fire regardless of
  // active_until_ms.
  struct CrashEvent {
    NodeId node = 0;
    TimeMs crash_at_ms = 0;
    TimeMs restart_at_ms = 0;
  };
  std::vector<CrashEvent> crashes;

  // ---- storage I/O --------------------------------------------------
  // Applied by every storage::FileIo a Cluster builds (per-node seed
  // derived from the cluster seed). Unlike message faults these are
  // not gated by active_until_ms: a bad flash chip does not heal on a
  // schedule.
  IoFaultPlan io;

  // Message/link/clock faults apply only before this sim time
  // (0 = forever). Chaos tests use it to assert recovery after the
  // faults cease.
  TimeMs active_until_ms = 0;

  bool Empty() const;

  // Composition: probabilities and jitters take the stronger value,
  // crash schedules concatenate, explicit skews merge (other wins on
  // conflict). active_until_ms takes the later nonzero deadline
  // unless either side says "forever" (0 stays 0 only if both are 0).
  FaultPlan& Merge(const FaultPlan& other);

  // Preset factories, one per fault class.
  static FaultPlan Corruption(double p);
  static FaultPlan Truncation(double p);
  static FaultPlan Duplication(double p);
  static FaultPlan Loss(double p);
  static FaultPlan Reorder(double p, TimeMs jitter_ms);
  static FaultPlan LinkFlap(TimeMs period_ms, double down_probability);
  static FaultPlan ClockSkew(std::int64_t max_ms);
  static FaultPlan CrashRestart(NodeId node, TimeMs crash_at_ms,
                                TimeMs restart_at_ms);
  static FaultPlan Io(IoFaultPlan io_plan);
};

class FaultInjector {
 public:
  // One delivery the network should schedule; OnSend may return zero
  // (dropped), one, or two (duplicated) of these.
  struct Delivery {
    Bytes payload;
    TimeMs extra_delay_ms = 0;
  };

  // `telemetry` is the sink the fault.* series flow into; null means
  // the injector owns a private bundle.
  FaultInjector(FaultPlan plan, std::uint64_t seed,
                telemetry::Telemetry* telemetry = nullptr);

  // True while message/link/clock faults apply at `now`.
  bool ActiveAt(TimeMs now) const;
  // Kill switch: all message/link/clock faults cease immediately
  // (scheduled crashes still fire — they are the Cluster's events).
  void Deactivate() { deactivated_ = true; }

  // Link gate consulted by Network::Send. Symmetric in (a, b);
  // deterministic per (link, window).
  bool LinkUp(NodeId a, NodeId b, TimeMs now);

  // Applies message faults to one send. The returned deliveries reuse
  // or replace `payload`; an empty vector means the injector ate the
  // message. Sizes may shrink (truncation) but never grow.
  std::vector<Delivery> OnSend(NodeId from, NodeId to, TimeMs now,
                               Bytes payload);

  // The node's clock offset while faults are active (0 afterwards —
  // a healed deployment re-syncs, and convergence assertions need
  // agreeing clocks). Deterministic per node.
  std::int64_t ClockSkewFor(NodeId node, TimeMs now) const;

  const FaultPlan& plan() const { return plan_; }
  telemetry::Telemetry* telemetry() const { return telem_; }

 private:
  FaultPlan plan_;
  Rng rng_;
  std::uint64_t flap_seed_;
  std::uint64_t skew_seed_;
  bool deactivated_ = false;
  std::unique_ptr<telemetry::Telemetry> owned_telem_;
  telemetry::Telemetry* telem_ = nullptr;
  telemetry::Counter c_corrupted_;
  telemetry::Counter c_truncated_;
  telemetry::Counter c_duplicated_;
  telemetry::Counter c_dropped_;
  telemetry::Counter c_delayed_;
  telemetry::Counter c_flap_blocked_;
  telemetry::Counter c_bytes_truncated_;
};

}  // namespace vegvisir::sim

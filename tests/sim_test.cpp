#include <gtest/gtest.h>

#include "sim/energy.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace vegvisir::sim {
namespace {

// --------------------------------------------------------------- Simulator

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(30, [&] { order.push_back(3); });
  s.ScheduleAt(10, [&] { order.push_back(1); });
  s.ScheduleAt(20, [&] { order.push_back(2); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(SimulatorTest, SameTimeEventsRunInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(5, [&] { order.push_back(1); });
  s.ScheduleAt(5, [&] { order.push_back(2); });
  s.ScheduleAt(5, [&] { order.push_back(3); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator s;
  int fired = 0;
  s.ScheduleAt(10, [&] { ++fired; });
  s.ScheduleAt(20, [&] { ++fired; });
  s.RunUntil(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 15u);
  EXPECT_EQ(s.pending_events(), 1u);
  s.RunUntil(25);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) s.ScheduleAfter(10, chain);
  };
  s.ScheduleAfter(10, chain);
  s.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 50u);
}

TEST(SimulatorTest, PastSchedulingClampsToNow) {
  Simulator s;
  s.ScheduleAt(100, [&] {
    // From inside an event at t=100, scheduling "at 50" must land at
    // 100, not travel back in time.
    s.ScheduleAt(50, [] {});
  });
  s.RunAll();
  EXPECT_EQ(s.now(), 100u);
}

// --------------------------------------------------------------- Topology

TEST(ExplicitTopologyTest, LinksAndShapes) {
  ExplicitTopology t(4);
  t.AddLink(0, 1);
  EXPECT_TRUE(t.Connected(0, 1, 0));
  EXPECT_TRUE(t.Connected(1, 0, 0));
  EXPECT_FALSE(t.Connected(0, 2, 0));
  EXPECT_FALSE(t.Connected(1, 1, 0));
  t.RemoveLink(1, 0);
  EXPECT_FALSE(t.Connected(0, 1, 0));

  ExplicitTopology clique(4);
  clique.MakeClique();
  EXPECT_EQ(clique.NeighborsOf(0, 0).size(), 3u);

  ExplicitTopology line(4);
  line.MakeLine();
  EXPECT_EQ(line.NeighborsOf(0, 0).size(), 1u);
  EXPECT_EQ(line.NeighborsOf(1, 0).size(), 2u);

  ExplicitTopology ring(4);
  ring.MakeRing();
  EXPECT_EQ(ring.NeighborsOf(0, 0).size(), 2u);

  ExplicitTopology star(4);
  star.MakeStar(0);
  EXPECT_EQ(star.NeighborsOf(0, 0).size(), 3u);
  EXPECT_EQ(star.NeighborsOf(1, 0).size(), 1u);
}

TEST(UnitDiskTopologyTest, RangeDeterminesConnectivity) {
  UnitDiskTopology::Params p;
  p.field_size = 100;
  p.radio_range = 150;  // covers the whole field: everyone connected
  UnitDiskTopology t(5, p, 42);
  for (int a = 0; a < 5; ++a) {
    for (int b = 0; b < 5; ++b) {
      if (a != b) {
        EXPECT_TRUE(t.Connected(a, b, 0));
      }
    }
  }
  UnitDiskTopology::Params tiny = p;
  tiny.radio_range = 0.001;  // nobody connected
  UnitDiskTopology t2(5, tiny, 42);
  int connected = 0;
  for (int a = 0; a < 5; ++a) {
    connected += static_cast<int>(t2.NeighborsOf(a, 0).size());
  }
  EXPECT_EQ(connected, 0);
}

TEST(UnitDiskTopologyTest, DeterministicFromSeed) {
  UnitDiskTopology::Params p;
  UnitDiskTopology t1(10, p, 7);
  UnitDiskTopology t2(10, p, 7);
  for (int n = 0; n < 10; ++n) {
    EXPECT_EQ(t1.PositionOf(n, 0).x, t2.PositionOf(n, 0).x);
    EXPECT_EQ(t1.PositionOf(n, 0).y, t2.PositionOf(n, 0).y);
  }
}

TEST(UnitDiskTopologyTest, MobilityMovesNodesDeterministically) {
  UnitDiskTopology::Params p;
  p.mobile = true;
  p.speed_mps = 10.0;
  UnitDiskTopology t(4, p, 9);
  UnitDiskTopology t_same(4, p, 9);
  bool moved = false;
  for (int n = 0; n < 4; ++n) {
    const auto p0 = t.PositionOf(n, 0);
    const auto p1 = t.PositionOf(n, 60'000);
    const auto p1_same = t_same.PositionOf(n, 60'000);
    EXPECT_EQ(p1.x, p1_same.x);
    EXPECT_EQ(p1.y, p1_same.y);
    if (p0.x != p1.x || p0.y != p1.y) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(UnitDiskTopologyTest, PositionsStayInField) {
  UnitDiskTopology::Params p;
  p.mobile = true;
  p.field_size = 500;
  UnitDiskTopology t(6, p, 3);
  for (int n = 0; n < 6; ++n) {
    for (TimeMs at : {0ull, 10'000ull, 100'000ull, 1'000'000ull}) {
      const auto pos = t.PositionOf(n, at);
      EXPECT_GE(pos.x, 0.0);
      EXPECT_LE(pos.x, 500.0);
      EXPECT_GE(pos.y, 0.0);
      EXPECT_LE(pos.y, 500.0);
    }
  }
}

TEST(PartitionedTopologyTest, SplitsAndHeals) {
  ExplicitTopology base(4);
  base.MakeClique();
  PartitionedTopology t(&base);
  t.SplitEvenly(100, 200, 2);  // {0,1} vs {2,3} during [100,200)

  EXPECT_TRUE(t.Connected(0, 2, 50));    // before: connected
  EXPECT_FALSE(t.Connected(0, 2, 150));  // during: separated
  EXPECT_TRUE(t.Connected(0, 1, 150));   // same group: still connected
  EXPECT_TRUE(t.Connected(0, 2, 250));   // healed
  EXPECT_EQ(t.NeighborsOf(0, 150).size(), 1u);
  EXPECT_EQ(t.NeighborsOf(0, 250).size(), 3u);
}

TEST(PartitionedTopologyTest, UnassignedNodesAreIsolated) {
  ExplicitTopology base(3);
  base.MakeClique();
  PartitionedTopology t(&base);
  PartitionedTopology::Interval iv;
  iv.begin_ms = 0;
  iv.end_ms = 100;
  iv.group_of[0] = 0;
  iv.group_of[1] = 0;
  // node 2 unassigned -> isolated
  t.AddInterval(iv);
  EXPECT_TRUE(t.Connected(0, 1, 50));
  EXPECT_FALSE(t.Connected(0, 2, 50));
  EXPECT_FALSE(t.Connected(1, 2, 50));
}

// ---------------------------------------------------------------- Network

TEST(NetworkTest, DeliversWithLatency) {
  Simulator s;
  ExplicitTopology topo(2);
  topo.AddLink(0, 1);
  LinkParams params;
  params.base_latency_ms = 10;
  params.bytes_per_ms = 1.0;
  Network net(&s, &topo, params, 1);

  Bytes received;
  TimeMs delivered_at = 0;
  net.Register(1, [&](NodeId from, const Bytes& payload) {
    EXPECT_EQ(from, 0);
    received = payload;
    delivered_at = s.now();
  });
  ASSERT_TRUE(net.Send(0, 1, Bytes{1, 2, 3, 4, 5}));
  s.RunAll();
  EXPECT_EQ(received, (Bytes{1, 2, 3, 4, 5}));
  EXPECT_EQ(delivered_at, 15u);  // 10 latency + 5 bytes at 1 B/ms
  const telemetry::MetricsRegistry& net_metrics = net.telemetry()->metrics;
  EXPECT_EQ(net_metrics.CounterValue("net.messages_delivered"), 1u);
}

TEST(NetworkTest, DisconnectedSendFails) {
  Simulator s;
  ExplicitTopology topo(2);  // no links
  Network net(&s, &topo, LinkParams{}, 1);
  net.Register(1, [](NodeId, const Bytes&) { FAIL(); });
  EXPECT_FALSE(net.Send(0, 1, Bytes{1}));
  s.RunAll();
  const telemetry::MetricsRegistry& net_metrics = net.telemetry()->metrics;
  EXPECT_EQ(net_metrics.CounterValue("net.messages_unreachable"), 1u);
}

TEST(NetworkTest, DropProbabilityLosesMessages) {
  Simulator s;
  ExplicitTopology topo(2);
  topo.AddLink(0, 1);
  LinkParams params;
  params.drop_probability = 1.0;  // everything lost
  Network net(&s, &topo, params, 1);
  int delivered = 0;
  net.Register(1, [&](NodeId, const Bytes&) { ++delivered; });
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(net.Send(0, 1, Bytes{1}));
  s.RunAll();
  EXPECT_EQ(delivered, 0);
  const telemetry::MetricsRegistry& net_metrics = net.telemetry()->metrics;
  EXPECT_EQ(net_metrics.CounterValue("net.messages_dropped"), 10u);
  // The radio still transmitted: bytes_sent is charged.
  EXPECT_EQ(net_metrics.CounterValue("net.bytes_sent"), 10u);
}

TEST(NetworkTest, EnergyChargedToBothEnds) {
  Simulator s;
  ExplicitTopology topo(2);
  topo.AddLink(0, 1);
  Network net(&s, &topo, LinkParams{}, 1);
  EnergyMeter sender, receiver;
  net.Register(0, [](NodeId, const Bytes&) {}, &sender);
  net.Register(1, [](NodeId, const Bytes&) {}, &receiver);
  ASSERT_TRUE(net.Send(0, 1, Bytes(100, 0)));
  s.RunAll();
  EXPECT_GT(sender.radio_nj(), 0.0);
  EXPECT_GT(receiver.radio_nj(), 0.0);
  EXPECT_GT(sender.radio_nj(), receiver.radio_nj());  // tx > rx per byte
}

// ----------------------------------------------------------- FaultInjector

TEST(FaultPlanTest, EmptyAndMerge) {
  FaultPlan plan;
  EXPECT_TRUE(plan.Empty());
  plan.Merge(FaultPlan::Corruption(0.1))
      .Merge(FaultPlan::Loss(0.3))
      .Merge(FaultPlan::LinkFlap(5'000, 0.2))
      .Merge(FaultPlan::CrashRestart(2, 10'000, 20'000));
  EXPECT_FALSE(plan.Empty());
  EXPECT_DOUBLE_EQ(plan.corrupt_probability, 0.1);
  EXPECT_DOUBLE_EQ(plan.drop_probability, 0.3);
  EXPECT_EQ(plan.flap_period_ms, 5'000u);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].node, 2);
  // Merging takes the stronger probability, never weakens.
  plan.Merge(FaultPlan::Corruption(0.05));
  EXPECT_DOUBLE_EQ(plan.corrupt_probability, 0.1);
  plan.Merge(FaultPlan::Corruption(0.5));
  EXPECT_DOUBLE_EQ(plan.corrupt_probability, 0.5);
}

TEST(FaultInjectorTest, NoFaultsPassesPayloadThrough) {
  FaultInjector inj(FaultPlan{}, 7);
  const Bytes payload{1, 2, 3, 4};
  auto out = inj.OnSend(0, 1, 0, payload);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, payload);
  EXPECT_EQ(out[0].extra_delay_ms, 0u);
  EXPECT_TRUE(inj.LinkUp(0, 1, 0));
  EXPECT_EQ(inj.ClockSkewFor(0, 0), 0);
}

TEST(FaultInjectorTest, LossDropsAndCounts) {
  FaultInjector inj(FaultPlan::Loss(1.0), 7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(inj.OnSend(0, 1, 0, Bytes{1, 2}).empty());
  }
  const telemetry::MetricsRegistry& fault_metrics = inj.telemetry()->metrics;
  EXPECT_EQ(fault_metrics.CounterValue("fault.messages_dropped"), 10u);
}

TEST(FaultInjectorTest, CorruptionMutatesBytesButNotSize) {
  FaultInjector inj(FaultPlan::Corruption(1.0), 7);
  const Bytes original(64, 0xAA);
  bool mutated = false;
  for (int i = 0; i < 8; ++i) {
    auto out = inj.OnSend(0, 1, 0, original);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].payload.size(), original.size());
    if (out[0].payload != original) mutated = true;
  }
  EXPECT_TRUE(mutated);
  const telemetry::MetricsRegistry& fault_metrics = inj.telemetry()->metrics;
  EXPECT_EQ(fault_metrics.CounterValue("fault.messages_corrupted"), 8u);
}

TEST(FaultInjectorTest, TruncationShrinksAndAccountsBytes) {
  FaultInjector inj(FaultPlan::Truncation(1.0), 7);
  std::uint64_t removed = 0;
  for (int i = 0; i < 8; ++i) {
    auto out = inj.OnSend(0, 1, 0, Bytes(100, 1));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_LT(out[0].payload.size(), 100u);
    removed += 100 - out[0].payload.size();
  }
  const telemetry::MetricsRegistry& fault_metrics = inj.telemetry()->metrics;
  EXPECT_EQ(fault_metrics.CounterValue("fault.messages_truncated"), 8u);
  EXPECT_EQ(fault_metrics.CounterValue("fault.bytes_truncated"), removed);
}

TEST(FaultInjectorTest, DuplicationDeliversTwiceWithTrailingCopy) {
  FaultInjector inj(FaultPlan::Duplication(1.0), 7);
  auto out = inj.OnSend(0, 1, 0, Bytes{9, 9, 9});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].payload, out[1].payload);
  // The copy must trail the original, else it is not a reorder hazard.
  EXPECT_GT(out[0].extra_delay_ms, out[1].extra_delay_ms);
  const telemetry::MetricsRegistry& fault_metrics = inj.telemetry()->metrics;
  EXPECT_EQ(fault_metrics.CounterValue("fault.messages_duplicated"), 1u);
}

TEST(FaultInjectorTest, FlapIsSymmetricWindowedAndEventuallyDown) {
  FaultInjector a(FaultPlan::LinkFlap(1'000, 0.5), 21);
  FaultInjector b(FaultPlan::LinkFlap(1'000, 0.5), 21);
  int down_windows = 0;
  for (TimeMs w = 0; w < 50; ++w) {
    const TimeMs t = w * 1'000;
    const bool up = a.LinkUp(2, 5, t);
    EXPECT_EQ(up, b.LinkUp(5, 2, t));        // direction-symmetric
    EXPECT_EQ(up, a.LinkUp(2, 5, t + 999));  // stable within the window
    if (!up) ++down_windows;
  }
  EXPECT_GT(down_windows, 0);
  EXPECT_LT(down_windows, 50);
}

TEST(FaultInjectorTest, ClockSkewBoundedStableAndOverridable) {
  FaultPlan plan = FaultPlan::ClockSkew(3'000);
  plan.clock_skew_ms[4] = -12'345;
  FaultInjector inj(plan, 99);
  for (NodeId n = 0; n < 4; ++n) {
    const std::int64_t skew = inj.ClockSkewFor(n, 0);
    EXPECT_LE(skew, 3'000);
    EXPECT_GE(skew, -3'000);
    EXPECT_EQ(skew, inj.ClockSkewFor(n, 500'000));  // per-node constant
  }
  EXPECT_EQ(inj.ClockSkewFor(4, 0), -12'345);  // explicit entry wins
}

TEST(FaultInjectorTest, ActiveUntilAndDeactivateEndFaults) {
  FaultPlan plan = FaultPlan::Loss(1.0).Merge(FaultPlan::ClockSkew(3'000));
  plan.active_until_ms = 1'000;
  FaultInjector inj(plan, 7);
  EXPECT_TRUE(inj.OnSend(0, 1, 0, Bytes{1}).empty());
  EXPECT_EQ(inj.OnSend(0, 1, 1'000, Bytes{1}).size(), 1u);  // expired
  EXPECT_EQ(inj.ClockSkewFor(0, 1'000), 0);

  FaultInjector forever(FaultPlan::Loss(1.0), 7);
  forever.Deactivate();
  EXPECT_EQ(forever.OnSend(0, 1, 0, Bytes{1}).size(), 1u);
}

TEST(FaultInjectorTest, DeterministicAcrossInstances) {
  FaultPlan plan = FaultPlan::Corruption(0.5)
                       .Merge(FaultPlan::Truncation(0.3))
                       .Merge(FaultPlan::Duplication(0.3))
                       .Merge(FaultPlan::Reorder(0.5, 200));
  FaultInjector a(plan, 1234), b(plan, 1234);
  for (int i = 0; i < 32; ++i) {
    const auto da = a.OnSend(0, 1, i * 10, Bytes(32, 0x5C));
    const auto db = b.OnSend(0, 1, i * 10, Bytes(32, 0x5C));
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t j = 0; j < da.size(); ++j) {
      EXPECT_EQ(da[j].payload, db[j].payload);
      EXPECT_EQ(da[j].extra_delay_ms, db[j].extra_delay_ms);
    }
  }
}

TEST(NetworkTest, DeregisteredReceiverBecomesDeadLetter) {
  Simulator s;
  ExplicitTopology topo(2);
  topo.AddLink(0, 1);
  Network net(&s, &topo, LinkParams{}, 1);
  int delivered = 0;
  net.Register(1, [&](NodeId, const Bytes&) { ++delivered; });
  ASSERT_TRUE(net.Send(0, 1, Bytes{1}));
  net.Deregister(1);  // receiver powers off with the message in flight
  s.RunAll();
  EXPECT_EQ(delivered, 0);
  const telemetry::MetricsRegistry& net_metrics = net.telemetry()->metrics;
  EXPECT_EQ(net_metrics.CounterValue("net.messages_dead_letter"), 1u);
  EXPECT_EQ(net_metrics.CounterValue("net.messages_delivered"), 0u);
}

TEST(NetworkTest, FaultInjectorInterposesOnSends) {
  Simulator s;
  ExplicitTopology topo(2);
  topo.AddLink(0, 1);
  Network net(&s, &topo, LinkParams{}, 1);
  FaultInjector inj(FaultPlan::Duplication(1.0), 3, net.telemetry());
  net.SetFaultInjector(&inj);
  int delivered = 0;
  std::uint64_t delivered_bytes = 0;
  net.Register(1, [&](NodeId, const Bytes& p) {
    ++delivered;
    delivered_bytes += p.size();
  });
  ASSERT_TRUE(net.Send(0, 1, Bytes(10, 7)));
  s.RunAll();
  EXPECT_EQ(delivered, 2);  // original + duplicate
  const telemetry::MetricsRegistry& net_metrics = net.telemetry()->metrics;
  EXPECT_EQ(net_metrics.CounterValue("net.messages_sent"), 1u);
  // The radio sent one copy.
  EXPECT_EQ(net_metrics.CounterValue("net.bytes_sent"), 10u);
  EXPECT_EQ(net_metrics.CounterValue("net.messages_delivered"), 2u);
  EXPECT_EQ(net_metrics.CounterValue("net.bytes_delivered"), delivered_bytes);
  const telemetry::MetricsRegistry& fault_metrics = inj.telemetry()->metrics;
  EXPECT_EQ(fault_metrics.CounterValue("fault.messages_duplicated"), 1u);
}

TEST(NetworkTest, FlappedLinkRefusesSends) {
  Simulator s;
  ExplicitTopology topo(2);
  topo.AddLink(0, 1);
  Network net(&s, &topo, LinkParams{}, 1);
  FaultInjector inj(FaultPlan::LinkFlap(1'000, 1.0), 3, net.telemetry());
  net.SetFaultInjector(&inj);
  net.Register(1, [](NodeId, const Bytes&) { FAIL(); });
  EXPECT_FALSE(net.Send(0, 1, Bytes{1}));
  s.RunAll();
  const telemetry::MetricsRegistry& net_metrics = net.telemetry()->metrics;
  EXPECT_EQ(net_metrics.CounterValue("net.messages_unreachable"), 1u);
  const telemetry::MetricsRegistry& fault_metrics = inj.telemetry()->metrics;
  EXPECT_EQ(fault_metrics.CounterValue("fault.sends_flap_blocked"), 1u);
}

// ----------------------------------------------------------------- Energy

TEST(EnergyMeterTest, AccumulatesPerCategory) {
  EnergyMeter m;
  m.AddTx(1000);
  m.AddRx(1000);
  m.AddHash(64);
  m.AddSign();
  m.AddVerify();
  m.AddPowHashes(1000);
  EXPECT_GT(m.radio_nj(), 0.0);
  EXPECT_GT(m.crypto_nj(), 0.0);
  EXPECT_GT(m.pow_nj(), 0.0);
  EXPECT_DOUBLE_EQ(m.total_nj(), m.radio_nj() + m.crypto_nj() + m.pow_nj());
  EXPECT_DOUBLE_EQ(m.total_mj(), m.total_nj() * 1e-6);
}

TEST(EnergyMeterTest, CustomParamsRespected) {
  EnergyParams params;
  params.tx_nj_per_byte = 1.0;
  EnergyMeter m(params);
  m.AddTx(5);
  EXPECT_DOUBLE_EQ(m.radio_nj(), 5.0);
}

}  // namespace
}  // namespace vegvisir::sim

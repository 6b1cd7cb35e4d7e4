// Shared-buffer MMU (`flow=shared`): spec parsing and geometry resolution,
// the reserved -> shared (dynamic threshold) -> headroom admission order,
// Xon/Xoff hysteresis, ECN marking extremes, the EcnReactor's cut/recovery
// dynamics, source throttling, and the end-to-end properties the regime
// guarantees — bit-identity when it is off, and zero lossless-class drops
// under incast when it is on (headroom absorbs the pause latency).

#include "mmr/mmu/mmu.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "mmr/core/simulation.hpp"
#include "mmr/fault/fault_plan.hpp"
#include "mmr/overload/spec.hpp"
#include "mmr/traffic/rogue.hpp"
#include "spec_test_util.hpp"

namespace mmr {
namespace {

using mmu::AdmitPool;
using mmu::AdmitResult;
using mmu::EcnReactor;
using mmu::FlowMode;
using mmu::MmuSpec;
using mmu::ReleaseResult;
using mmu::SharedBufferMmu;

SimConfig mmu_config(std::uint32_t ports = 2) {
  SimConfig config;
  config.ports = ports;
  config.vcs_per_link = 64;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  return config;
}

// ---------------------------------------------------------------------------
// Spec parsing and resolution

TEST(MmuSpecParse, ParsesModesAndKeys) {
  EXPECT_EQ(MmuSpec::parse("credit").mode, FlowMode::kCredit);
  const MmuSpec s = MmuSpec::parse(
      "shared,pool:128,reserved:3,headroom:6,alpha:2.0,alpha_be:0.5,"
      "xoff:16,xon:8,ecn:0,kmin:10,kmax:20,pmax:0.25,ecn_cut:0.75,"
      "ecn_floor:0.2,ecn_recover:512,ecn_step:0.1,sample:32");
  EXPECT_EQ(s.mode, FlowMode::kShared);
  EXPECT_EQ(s.pool_flits, 128u);
  EXPECT_EQ(s.reserved_per_class, 3u);
  EXPECT_EQ(s.headroom_flits, 6u);
  EXPECT_DOUBLE_EQ(s.alpha, 2.0);
  EXPECT_DOUBLE_EQ(s.alpha_be, 0.5);
  EXPECT_EQ(s.xoff_flits, 16u);
  EXPECT_EQ(s.xon_flits, 8u);
  EXPECT_FALSE(s.ecn);
  EXPECT_EQ(s.ecn_kmin, 10u);
  EXPECT_EQ(s.ecn_kmax, 20u);
  EXPECT_DOUBLE_EQ(s.ecn_pmax, 0.25);
  EXPECT_DOUBLE_EQ(s.ecn_cut, 0.75);
  EXPECT_DOUBLE_EQ(s.ecn_floor, 0.2);
  EXPECT_EQ(s.ecn_recover, 512u);
  EXPECT_DOUBLE_EQ(s.ecn_step, 0.1);
  EXPECT_EQ(s.sample_every, 32u);
}

TEST(MmuSpecParse, RejectsBadModeKeysAndCreditPoolKeys) {
  EXPECT_THROW((void)MmuSpec::parse(""), std::invalid_argument);
  EXPECT_THROW((void)MmuSpec::parse("bogus"), std::invalid_argument);
  EXPECT_THROW((void)MmuSpec::parse("shared,nope:1"), std::invalid_argument);
  EXPECT_THROW((void)MmuSpec::parse("shared,pool"), std::invalid_argument);
  EXPECT_THROW((void)MmuSpec::parse("shared,pool:abc"), std::invalid_argument);
  // Pool/pause geometry is meaningless without the shared regime.
  EXPECT_THROW((void)MmuSpec::parse("credit,pool:64"), std::invalid_argument);
}

TEST(MmuSpecResolve, DerivesDocumentedDefaults) {
  SimConfig config = mmu_config(4);
  config.credit_latency = 1;
  config.link_latency = 1;
  const MmuSpec r = MmuSpec::parse("shared").resolve(config);
  EXPECT_EQ(r.pool_flits, 48u * 4u);
  EXPECT_EQ(r.headroom_flits, 1u + 1u + 2u);
  EXPECT_EQ(r.xoff_flits, 24u);  // max(8, pool / 2P)
  EXPECT_EQ(r.xon_flits, 12u);
  EXPECT_EQ(r.ecn_kmin, 192u / 8u);
  EXPECT_EQ(r.ecn_kmax, 192u / 2u);
  // One VC may occupy a whole port's admission allowance.
  EXPECT_EQ(r.vc_slots(), 3u * r.reserved_per_class + 192u + r.headroom_flits);
}

TEST(MmuSpec, ValidateRejectsBrokenHysteresisAndEcnBands) {
  const SimConfig config = mmu_config();
  EXPECT_INVALID((void)MmuSpec::parse("shared,xoff:4,xon:4").resolve(config),
                 "hysteresis");
  EXPECT_INVALID((void)MmuSpec::parse("shared,kmin:20,kmax:10").resolve(config),
                 "kmin < kmax");
  // Range checks live in the key table: a non-positive alpha is rejected
  // at parse time, naming the key and its range.
  EXPECT_INVALID((void)MmuSpec::parse("shared,alpha:-1").resolve(config),
                 "'alpha:-1' out of range (0, max]");
}

// ---------------------------------------------------------------------------
// Admission order and dynamic threshold

TEST(MmuAdmit, ReservedThenSharedThenHeadroomThenDrop) {
  const SimConfig config = mmu_config(2);
  SharedBufferMmu mmu(
      MmuSpec::parse("shared,pool:8,reserved:1,headroom:4,xoff:100,xon:50,"
                     "ecn:0"),
      config);

  // alpha = 1: shared admission holds while used < pool - used, i.e. for
  // the first 4 of 8 pool slots when one (port, class) is the sole taker.
  std::vector<AdmitPool> pools;
  for (Cycle now = 0; now < 10; ++now) {
    pools.push_back(mmu.admit(0, TrafficClass::kCbr, now).pool);
  }
  const std::vector<AdmitPool> expected = {
      AdmitPool::kReserved, AdmitPool::kShared,   AdmitPool::kShared,
      AdmitPool::kShared,   AdmitPool::kShared,   AdmitPool::kHeadroom,
      AdmitPool::kHeadroom, AdmitPool::kHeadroom, AdmitPool::kHeadroom,
      AdmitPool::kDropped};
  EXPECT_EQ(pools, expected);
  EXPECT_EQ(mmu.admitted_reserved(), 1u);
  EXPECT_EQ(mmu.admitted_shared(), 4u);
  EXPECT_EQ(mmu.admitted_headroom(), 4u);
  EXPECT_EQ(mmu.drops_lossless(), 1u);
  EXPECT_EQ(mmu.occupancy(), 9u);
  EXPECT_EQ(mmu.headroom_highwater(), 4u);
  mmu.check_invariants();
}

TEST(MmuAdmit, BestEffortUsesLossyAlphaAndNeverTouchesHeadroom) {
  const SimConfig config = mmu_config(2);
  SharedBufferMmu mmu(
      MmuSpec::parse("shared,pool:8,reserved:1,headroom:4,alpha_be:0.25,"
                     "xoff:100,xon:50,ecn:0"),
      config);
  // Reserved first, then alpha_be = 0.25 admits two shared slots
  // (0 < 0.25*8, 1 < 0.25*7) and rejects the third (2 >= 0.25*6); best
  // effort is lossy, so the overflow is dropped instead of spilling into
  // the pause-absorption headroom.
  EXPECT_EQ(mmu.admit(0, TrafficClass::kBestEffort, 0).pool,
            AdmitPool::kReserved);
  EXPECT_EQ(mmu.admit(0, TrafficClass::kBestEffort, 1).pool,
            AdmitPool::kShared);
  EXPECT_EQ(mmu.admit(0, TrafficClass::kBestEffort, 2).pool,
            AdmitPool::kShared);
  EXPECT_EQ(mmu.admit(0, TrafficClass::kBestEffort, 3).pool,
            AdmitPool::kDropped);
  EXPECT_EQ(mmu.drops_lossy(), 1u);
  EXPECT_EQ(mmu.drops_lossless(), 0u);
  EXPECT_EQ(mmu.headroom_used(0), 0u);
  mmu.check_invariants();
}

TEST(MmuAdmit, DynamicThresholdLoosensAsThePoolDrains) {
  const SimConfig config = mmu_config(2);
  SharedBufferMmu mmu(
      MmuSpec::parse("shared,pool:8,reserved:0,headroom:4,xoff:100,xon:50,"
                     "ecn:0"),
      config);
  // Fill port 0 to its DT limit (4 of 8), then release two: the remaining
  // free pool shrinks but port 0's own usage shrank faster, so it may admit
  // again — the self-tuning the alpha rule buys.
  for (Cycle now = 0; now < 4; ++now) {
    EXPECT_EQ(mmu.admit(0, TrafficClass::kCbr, now).pool, AdmitPool::kShared);
  }
  EXPECT_NE(mmu.admit(0, TrafficClass::kCbr, 4).pool, AdmitPool::kShared);
  (void)mmu.release(0, TrafficClass::kCbr, 10);
  (void)mmu.release(0, TrafficClass::kCbr, 11);
  EXPECT_EQ(mmu.admit(0, TrafficClass::kCbr, 12).pool, AdmitPool::kShared);
  mmu.check_invariants();
}

TEST(MmuRelease, ReturnsChargesSharedFirstAndBalancesToZero) {
  const SimConfig config = mmu_config(2);
  SharedBufferMmu mmu(
      MmuSpec::parse("shared,pool:8,reserved:1,headroom:4,xoff:100,xon:50,"
                     "ecn:0"),
      config);
  for (Cycle now = 0; now < 9; ++now) {
    (void)mmu.admit(0, TrafficClass::kCbr, now);
  }
  EXPECT_EQ(mmu.occupancy(), 9u);
  // Releases drain shared, then reserved, then headroom (see the header
  // proof); after all nine the books are empty again.
  for (Cycle now = 100; now < 109; ++now) {
    (void)mmu.release(0, TrafficClass::kCbr, now);
    mmu.check_invariants();
  }
  EXPECT_EQ(mmu.occupancy(), 0u);
  EXPECT_EQ(mmu.shared_used(), 0u);
  EXPECT_EQ(mmu.headroom_used(0), 0u);
  EXPECT_EQ(mmu.port_usage(0), 0u);
}

TEST(MmuDeath, ReleaseWithoutAdmitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const SimConfig config = mmu_config(2);
  SharedBufferMmu mmu(MmuSpec::parse("shared"), config);
  EXPECT_DEATH((void)mmu.release(0, TrafficClass::kCbr, 0),
               "without a matching admit");
}

// ---------------------------------------------------------------------------
// Xon/Xoff hysteresis

TEST(MmuPause, XoffFiresOnceAndXonClosesThePause) {
  const SimConfig config = mmu_config(2);
  SharedBufferMmu mmu(
      MmuSpec::parse("shared,pool:64,reserved:0,headroom:4,xoff:6,xon:2,"
                     "ecn:0"),
      config);

  bool fired = false;
  for (Cycle now = 0; now < 6; ++now) {
    const AdmitResult r = mmu.admit(0, TrafficClass::kCbr, now);
    if (now < 5) {
      EXPECT_FALSE(r.fire_xoff) << "cycle " << now;
    } else {
      fired = r.fire_xoff;  // usage reached xoff = 6
    }
  }
  EXPECT_TRUE(fired);
  EXPECT_TRUE(mmu.pause_wanted(0));
  EXPECT_FALSE(mmu.pause_wanted(1));
  EXPECT_EQ(mmu.pause_events(), 1u);

  // Above Xoff while already paused: no re-fire.
  EXPECT_FALSE(mmu.admit(0, TrafficClass::kCbr, 6).fire_xoff);
  EXPECT_EQ(mmu.pause_events(), 1u);
  EXPECT_EQ(mmu.longest_open_pause(20), 20u - 5u);

  // Drain towards Xon = 2: usage 7 -> 3 keeps the pause, reaching 2 ends it
  // and reports the closed duration.
  ReleaseResult released;
  for (Cycle now = 30; mmu.port_usage(0) > 2; ++now) {
    released = mmu.release(0, TrafficClass::kCbr, now);
  }
  EXPECT_TRUE(released.fire_xon);
  EXPECT_EQ(released.paused_cycles, mmu.pause_cycles_max(100));
  EXPECT_FALSE(mmu.pause_wanted(0));
  EXPECT_EQ(mmu.resume_events(), 1u);
  EXPECT_EQ(mmu.longest_open_pause(100), 0u);
  mmu.check_invariants();
}

// ---------------------------------------------------------------------------
// ECN marking extremes

TEST(MmuEcn, NeverMarksBelowKminAlwaysAtOrAboveKmax) {
  const SimConfig config = mmu_config(2);
  SharedBufferMmu mmu(
      MmuSpec::parse("shared,pool:64,reserved:0,headroom:4,xoff:60,xon:30,"
                     "ecn:1,kmin:4,kmax:8,pmax:0.5"),
      config);
  // Shared occupancy 1..4 (<= kmin): the mark probability is exactly zero.
  for (Cycle now = 0; now < 4; ++now) {
    EXPECT_FALSE(mmu.admit(0, TrafficClass::kCbr, now).marked);
  }
  // Push occupancy past kmax; every further shared admission must mark.
  while (mmu.shared_used() < 8) {
    (void)mmu.admit(0, TrafficClass::kCbr, 10);
  }
  for (Cycle now = 20; now < 28; ++now) {
    const AdmitResult r = mmu.admit(1, TrafficClass::kCbr, now);
    ASSERT_EQ(r.pool, AdmitPool::kShared);
    EXPECT_TRUE(r.marked);
  }
  EXPECT_GE(mmu.ecn_marked(), 8u);
  EXPECT_GE(mmu.ecn_eligible(), 16u);
}

// ---------------------------------------------------------------------------
// EcnReactor: multiplicative cut, floor, additive recovery

TEST(EcnReactorTest, CutFloorAndRecoveryDynamics) {
  const SimConfig config = mmu_config(2);
  const MmuSpec spec =
      MmuSpec::parse("shared,ecn_cut:0.5,ecn_floor:0.125,ecn_recover:1024,"
                     "ecn_step:0.05")
          .resolve(config);
  EcnReactor reactor(2, spec);
  EXPECT_DOUBLE_EQ(reactor.factor(0), 1.0);

  EXPECT_TRUE(reactor.on_mark(0));
  EXPECT_DOUBLE_EQ(reactor.factor(0), 0.5);
  EXPECT_TRUE(reactor.on_mark(0));
  EXPECT_TRUE(reactor.on_mark(0));
  EXPECT_DOUBLE_EQ(reactor.factor(0), 0.125);  // clamped at the floor
  EXPECT_FALSE(reactor.on_mark(0));            // already at the floor
  EXPECT_EQ(reactor.cuts(), 3u);
  EXPECT_DOUBLE_EQ(reactor.factor(1), 1.0);  // untouched connection

  std::vector<ConnectionId> changed;
  reactor.on_cycle(0, changed);     // cycle 0 is skipped (determinism)
  reactor.on_cycle(1023, changed);  // off-window
  EXPECT_TRUE(changed.empty());
  reactor.on_cycle(1024, changed);
  ASSERT_EQ(changed.size(), 1u);  // only the throttled connection recovers
  EXPECT_EQ(changed[0], 0u);
  EXPECT_DOUBLE_EQ(reactor.factor(0), 0.175);

  // Recovery saturates at 1.0 and then stops reporting changes.
  for (Cycle w = 2; w < 40; ++w) reactor.on_cycle(w * 1024, changed);
  EXPECT_DOUBLE_EQ(reactor.factor(0), 1.0);
  changed.clear();
  reactor.on_cycle(41 * 1024, changed);
  EXPECT_TRUE(changed.empty());
}

// ---------------------------------------------------------------------------
// Source throttling

TEST(Throttle, CbrSourceStretchesItsInterArrivalTime) {
  const SimConfig config = mmu_config(2);
  CbrSource source(0, 55e6, config.time_base(), 0.0);
  std::vector<Flit> out;
  source.generate(0, out);
  const Cycle gap_full = source.next_emission();
  ASSERT_GT(gap_full, 0u);

  source.throttle(0.5);
  source.generate(gap_full, out);
  const double gap_halved =
      static_cast<double>(source.next_emission() - gap_full);
  EXPECT_NEAR(gap_halved, 2.0 * static_cast<double>(gap_full), 2.0);
}

TEST(Throttle, RogueSourceIgnoresEcnThrottle) {
  const SimConfig config = mmu_config(2);
  RogueSource rogue(std::make_unique<CbrSource>(0, 55e6, config.time_base()),
                    /*scale=*/2.0);
  RogueSource control(std::make_unique<CbrSource>(0, 55e6, config.time_base()),
                      /*scale=*/2.0);
  rogue.throttle(0.25);  // a rogue endpoint ignores congestion marks
  std::vector<Flit> throttled;
  std::vector<Flit> unthrottled;
  for (Cycle now = 0; now < 2'000; ++now) {
    rogue.generate(now, throttled);
    control.generate(now, unthrottled);
  }
  EXPECT_EQ(throttled.size(), unthrottled.size());
}

// ---------------------------------------------------------------------------
// End-to-end: bit-identity when off, lossless survival when on

Workload cbr_workload(const SimConfig& config, double load) {
  Rng rng(config.seed, 1);
  CbrMixSpec spec;
  spec.target_load = load;
  spec.classes = {kCbrHigh, kCbrMedium};
  spec.class_weights = {3.0, 1.0};
  return build_cbr_mix(config, spec, rng);
}

Workload incast_workload(const SimConfig& config, double hot_load) {
  Rng rng(config.seed, 1);
  CbrMixSpec spec;
  spec.target_load = hot_load;
  spec.classes = {kCbrHigh};
  spec.class_weights = {1.0};
  spec.hot_output = 0;  // every connection converges on output 0
  return build_cbr_mix(config, spec, rng);
}

void expect_identical(const SimulationMetrics& a, const SimulationMetrics& b) {
  EXPECT_EQ(a.flits_generated, b.flits_generated);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.flit_delay_us.count(), b.flit_delay_us.count());
  EXPECT_EQ(a.flit_delay_us.mean(), b.flit_delay_us.mean());
  EXPECT_EQ(a.flit_delay_us.max(), b.flit_delay_us.max());
  EXPECT_EQ(a.delivered_load, b.delivered_load);
  EXPECT_EQ(a.crossbar_utilization, b.crossbar_utilization);
}

TEST(MmuRegression, FlowUnsetAndFlowCreditAreBitIdenticalOnCbr) {
  SimConfig config = mmu_config(4);
  config.flow_spec = "";
  MmrSimulation unset(config, cbr_workload(config, 0.6));
  const SimulationMetrics a = unset.run();
  EXPECT_FALSE(a.mmu.enabled);

  config.flow_spec = "credit";
  MmrSimulation credit(config, cbr_workload(config, 0.6));
  const SimulationMetrics b = credit.run();
  EXPECT_FALSE(b.mmu.enabled);
  expect_identical(a, b);
}

TEST(MmuRegression, FlowUnsetAndFlowCreditAreBitIdenticalOnVbr) {
  SimConfig config = mmu_config(4);
  const auto vbr_workload = [](const SimConfig& c) {
    Rng rng(c.seed, 2);
    VbrMixSpec spec;
    spec.target_load = 0.6;
    return build_vbr_mix(c, spec, rng);
  };
  config.flow_spec = "";
  MmrSimulation unset(config, vbr_workload(config));
  const SimulationMetrics a = unset.run();

  config.flow_spec = "credit";
  MmrSimulation credit(config, vbr_workload(config));
  const SimulationMetrics b = credit.run();
  expect_identical(a, b);
}

TEST(MmuSimulation, SharedRegimeBalancesAdmissionsAgainstTheRouter) {
  SimConfig config = mmu_config(4);
  config.flow_spec = "shared";
  config.audit_every = 128;  // periodic MMU-aware auditor sweeps ride along
  MmrSimulation simulation(config, incast_workload(config, 1.8 / 4));
  const SimulationMetrics m = simulation.run();
  simulation.check_invariants();

  ASSERT_TRUE(m.mmu.enabled);
  // Every router-accepted flit was charged to exactly one pool.
  EXPECT_EQ(m.mmu.admitted_reserved + m.mmu.admitted_shared +
                m.mmu.admitted_headroom,
            simulation.router().flits_accepted());
  // The 1.8x incast backs up into the input buffers: pauses must fire, the
  // lossless guarantee must hold, and shared-pool pressure must mark.
  EXPECT_GT(m.mmu.pause_events, 0u);
  EXPECT_EQ(m.mmu.drops_lossless, 0u);
  EXPECT_GT(m.mmu.ecn_eligible, 0u);
  EXPECT_GT(m.mmu.ecn_marked, 0u);
  EXPECT_GE(m.mmu.pause_events, m.mmu.resume_events);
  EXPECT_GE(m.mmu.pause_cycles_total, m.mmu.pause_cycles_max);
}

// The property the headroom sizing must deliver: across pause-propagation
// latencies and port counts, an incast plus a rogue source never drops a
// lossless-class flit — the Xoff frame arrives late, but headroom absorbs
// exactly the flits committed during the window.
TEST(MmuProperty, HeadroomAbsorbsThePauseLatencyAcrossTheGrid) {
  for (const Cycle credit_latency : {1u, 3u, 7u}) {
    for (const std::uint32_t ports : {2u, 4u, 8u}) {
      SimConfig config = mmu_config(ports);
      config.credit_latency = credit_latency;
      config.flow_spec = "shared";
      config.rogue_spec = "count:1,scale:4";
      MmrSimulation simulation(config,
                               incast_workload(config, 1.8 / ports));
      const SimulationMetrics m = simulation.run();
      simulation.check_invariants();

      ASSERT_TRUE(m.mmu.enabled);
      EXPECT_EQ(m.mmu.drops_lossless, 0u)
          << "lossless drop at credit_latency=" << credit_latency
          << " ports=" << ports;
      EXPECT_GT(m.mmu.pause_events, 0u)
          << "incast never paused at credit_latency=" << credit_latency
          << " ports=" << ports;
    }
  }
}

TEST(MmuSimulation, WatchdogEscalatesOnOverlongPause) {
  SimConfig config = mmu_config(4);
  config.flow_spec = "shared";
  config.police_spec = "demote,wd_pause_limit:32";
  config.rogue_spec = "count:1,scale:6";
  MmrSimulation simulation(config, incast_workload(config, 2.4 / 4));
  const SimulationMetrics m = simulation.run();
  ASSERT_TRUE(m.mmu.enabled);
  EXPECT_GT(m.mmu.pause_cycles_max, 32u);
  EXPECT_GT(m.overload.watchdog_pause_alarms, 0u);
  EXPECT_GT(m.overload.watchdog_alarms, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: the QoS deadline default is one constant everywhere

TEST(DeadlineUnification, EveryLayerSharesTheSingleConstant) {
  EXPECT_DOUBLE_EQ(overload::PoliceSpec{}.qos_deadline_cycles,
                   kQosDeadlineCycles);
  EXPECT_DOUBLE_EQ(FaultPlan{}.qos_deadline_cycles, kQosDeadlineCycles);

  // The single-router and network saturation heuristics agree on the same
  // default threshold: a delay mean just below the deadline is healthy,
  // just above is saturated (delivery deficit held at zero).
  SimulationMetrics sim;
  sim.flit_cycle_us = 1.0;
  sim.delivered_load = 1.0;
  sim.generated_load_measured = 1.0;
  SimulationMetrics net;
  net.flit_cycle_us = 1.0;
  net.flits_generated = 100;
  net.flits_delivered = 100;
  sim.flit_delay_us.add(kQosDeadlineCycles - 1.0);
  net.flit_delay_us.add(kQosDeadlineCycles - 1.0);
  EXPECT_FALSE(sim.saturated());
  EXPECT_FALSE(net.saturated());
  sim.flit_delay_us.add(kQosDeadlineCycles + 3.0);
  net.flit_delay_us.add(kQosDeadlineCycles + 3.0);
  EXPECT_TRUE(sim.saturated());
  EXPECT_TRUE(net.saturated());
}

// The shared-buffer regime runs per router on a network too: each router's
// MMU pauses the link feeding a full port — a NIC, or the upstream router's
// channel — and nothing lossless is ever dropped.
TEST(Mmu, NetworkRunsSharedFlowLossless) {
  SimConfig config = mmu_config(4);
  config.flow_spec = "shared";
  config.warmup_cycles = 500;
  config.measure_cycles = 3'000;
  const NetworkTopology ring = NetworkTopology::bidirectional_ring(4, 4);
  Rng rng(1, 1);
  CbrMixSpec mix;
  mix.target_load = 0.6;
  mix.classes = {kCbrHigh};
  mix.class_weights = {1.0};
  Workload workload(ring);
  add_cbr_mix(workload, config, mix, rng);
  MmrSimulation simulation(config, std::move(workload));
  const SimulationMetrics metrics = simulation.run();
  EXPECT_TRUE(metrics.mmu.enabled);
  EXPECT_EQ(metrics.mmu.drops_lossless, 0u);
  EXPECT_GT(metrics.flits_delivered, 0u);
  EXPECT_EQ(metrics.router_utilization.size(), 4u);
}

}  // namespace
}  // namespace mmr

// Overload-protection subsystem: spec parsing, the rogue-source wrapper and
// its deterministic selection, the injection policer's token buckets and
// policies, the staged saturation watchdog, and the end-to-end guarantee
// that policing protects compliant traffic from rogue tenants.

#include <gtest/gtest.h>

#include <stdexcept>

#include "mmr/core/simulation.hpp"
#include "mmr/overload/policer.hpp"
#include "mmr/overload/rogue_apply.hpp"
#include "mmr/overload/spec.hpp"
#include "mmr/overload/watchdog.hpp"
#include "mmr/traffic/rogue.hpp"

namespace mmr {
namespace {

using overload::InjectionPolicer;
using overload::OverloadPolicy;
using overload::PoliceSpec;
using overload::RogueSpec;
using overload::SaturationWatchdog;
using overload::Verdict;
using overload::WatchdogStage;

// ---------------------------------------------------------------------------
// Spec parsing

TEST(PoliceSpec, ParsesPolicyAndKeys) {
  const PoliceSpec spec =
      PoliceSpec::parse("shape,burst:3,penalty:16,deadline:100,wd_window:256");
  EXPECT_EQ(spec.policy, OverloadPolicy::kShape);
  EXPECT_DOUBLE_EQ(spec.burst_rounds, 3.0);
  EXPECT_EQ(spec.penalty_flits, 16u);
  EXPECT_DOUBLE_EQ(spec.qos_deadline_cycles, 100.0);
  EXPECT_EQ(spec.wd_window, 256u);
}

TEST(PoliceSpec, RejectsMissingPolicyUnknownKeysAndDoublePolicy) {
  EXPECT_THROW((void)PoliceSpec::parse("burst:2"), std::invalid_argument);
  EXPECT_THROW((void)PoliceSpec::parse("drop,bogus:1"), std::invalid_argument);
  EXPECT_THROW((void)PoliceSpec::parse("drop,shape"), std::invalid_argument);
  EXPECT_THROW((void)PoliceSpec::parse(""), std::invalid_argument);
}

TEST(RogueSpec, ParsesAndValidates) {
  const RogueSpec spec = RogueSpec::parse("frac:0.5,scale:4,class:cbr,seed:7");
  EXPECT_DOUBLE_EQ(spec.fraction, 0.5);
  EXPECT_DOUBLE_EQ(spec.scale, 4.0);
  EXPECT_EQ(spec.classes, RogueSpec::Classes::kCbrOnly);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_THROW((void)RogueSpec::parse("frac:0.5,nope:1"),
               std::invalid_argument);
  EXPECT_THROW((void)RogueSpec::parse("class:wifi"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RogueSource wrapper

/// Deterministic inner source: one flit every `iat` cycles, frames of
/// `frame_len` flits.
class PacedSource final : public TrafficSource {
 public:
  PacedSource(ConnectionId connection, Cycle iat, std::uint64_t frame_len)
      : connection_(connection), iat_(iat), frame_len_(frame_len) {}

  [[nodiscard]] ConnectionId connection() const override { return connection_; }
  [[nodiscard]] Cycle next_emission() const override { return next_; }
  void generate(Cycle now, std::vector<Flit>& out) override {
    while (next_ <= now) {
      Flit flit;
      flit.connection = connection_;
      flit.seq = seq_++;
      flit.frame = static_cast<std::uint32_t>(seq_ / frame_len_);
      flit.last_of_frame = (seq_ % frame_len_) == 0;
      flit.generated_at = next_;
      flit.frame_origin = next_;
      out.push_back(flit);
      next_ += iat_;
    }
  }
  [[nodiscard]] double mean_bps() const override { return 1e6; }

 private:
  ConnectionId connection_;
  Cycle iat_;
  std::uint64_t frame_len_;
  Cycle next_ = 0;
  std::uint64_t seq_ = 0;
};

TEST(RogueSource, InflatesByScaleRenumbersAndKeepsFrameClosure) {
  RogueSource rogue(std::make_unique<PacedSource>(3, 4, 5), 2.0);
  std::vector<Flit> out;
  for (Cycle now = 0; now < 100; ++now) {
    if (rogue.next_emission() <= now) rogue.generate(now, out);
  }
  // 25 inner flits at scale 2 -> 50 out.
  ASSERT_EQ(out.size(), 50u);
  EXPECT_EQ(rogue.excess_emitted(), 25u);
  std::uint64_t closers = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].seq, i);  // renumbered, strictly increasing
    EXPECT_EQ(out[i].connection, 3u);
    if (out[i].last_of_frame) ++closers;
  }
  // 5 complete inner frames -> frame closure preserved, never duplicated.
  EXPECT_EQ(closers, 5u);
  // The declared rate is unchanged: the source lies to admission, not to us.
  EXPECT_DOUBLE_EQ(rogue.mean_bps(), 1e6);
}

TEST(RogueSource, BurstWindowsRaiseTheFactor) {
  RogueSource rogue(std::make_unique<PacedSource>(0, 1, 4), 2.0,
                    /*burst_scale=*/3.0, /*burst_period=*/100,
                    /*burst_len=*/10, /*phase=*/5);
  EXPECT_DOUBLE_EQ(rogue.factor_at(0), 2.0);   // before phase
  EXPECT_DOUBLE_EQ(rogue.factor_at(5), 6.0);   // in window
  EXPECT_DOUBLE_EQ(rogue.factor_at(14), 6.0);  // last window cycle
  EXPECT_DOUBLE_EQ(rogue.factor_at(15), 2.0);  // after window
  EXPECT_DOUBLE_EQ(rogue.factor_at(105), 6.0);  // next period
}

// ---------------------------------------------------------------------------
// Rogue selection on a real workload

Workload small_cbr_workload(const SimConfig& config, double load) {
  Rng rng(config.seed, 1);
  CbrMixSpec spec;
  spec.target_load = load;
  spec.classes = {kCbrHigh, kCbrMedium};
  spec.class_weights = {3.0, 1.0};
  return build_cbr_mix(config, spec, rng);
}

SimConfig small_config() {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 2'000;
  config.measure_cycles = 20'000;
  return config;
}

TEST(ApplyRogue, SelectionIsDeterministicAndSorted) {
  const SimConfig config = small_config();
  RogueSpec spec;
  spec.fraction = 0.5;
  spec.scale = 2.0;

  Workload a = small_cbr_workload(config, 0.5);
  Workload b = small_cbr_workload(config, 0.5);
  const auto rogues_a = overload::apply_rogue(a, spec);
  const auto rogues_b = overload::apply_rogue(b, spec);
  EXPECT_EQ(rogues_a, rogues_b);
  ASSERT_FALSE(rogues_a.empty());
  EXPECT_TRUE(std::is_sorted(rogues_a.begin(), rogues_a.end()));
  EXPECT_LT(rogues_a.size(), a.size());
  for (const ConnectionId id : rogues_a) {
    EXPECT_TRUE(a.table.get(id).is_qos());
    EXPECT_NE(dynamic_cast<const RogueSource*>(a.sources[id].get()), nullptr);
  }
}

TEST(ApplyRogue, CountOverridesFractionAndClassFilterHolds) {
  const SimConfig config = small_config();
  Workload workload = small_cbr_workload(config, 0.5);
  RogueSpec spec;
  spec.fraction = 0.0;
  spec.count = 2;
  spec.classes = RogueSpec::Classes::kCbrOnly;
  const auto rogues = overload::apply_rogue(workload, spec);
  ASSERT_EQ(rogues.size(), 2u);
  for (const ConnectionId id : rogues)
    EXPECT_EQ(workload.table.get(id).traffic_class, TrafficClass::kCbr);
}

// ---------------------------------------------------------------------------
// Injection policer

/// One CBR connection (4/32 slots), one VBR (mean 2, peak 8), one BE.
struct PolicerFixture {
  PolicerFixture() : table(4) {
    config.ports = 4;
    config.vcs_per_link = 8;
    config.round_multiple = 4;  // round = 32 flit cycles
    config.concurrency_factor = 3.0;

    ConnectionDescriptor cbr;
    cbr.traffic_class = TrafficClass::kCbr;
    cbr.input_link = 0;
    cbr.output_link = 1;
    cbr.mean_bandwidth_bps = 1e6;
    cbr.peak_bandwidth_bps = 1e6;
    cbr.slots_per_round = 4;
    cbr.peak_slots_per_round = 4;
    cbr_id = table.add(cbr, config.vcs_per_link);

    ConnectionDescriptor vbr;
    vbr.traffic_class = TrafficClass::kVbr;
    vbr.input_link = 1;
    vbr.output_link = 2;
    vbr.mean_bandwidth_bps = 1e6;
    vbr.peak_bandwidth_bps = 4e6;
    vbr.slots_per_round = 2;
    vbr.peak_slots_per_round = 8;
    vbr_id = table.add(vbr, config.vcs_per_link);

    ConnectionDescriptor be;
    be.traffic_class = TrafficClass::kBestEffort;
    be.input_link = 2;
    be.output_link = 3;
    be_id = table.add(be, config.vcs_per_link);
  }

  [[nodiscard]] Flit flit_of(ConnectionId id, std::uint64_t seq,
                             Cycle now) const {
    Flit flit;
    flit.connection = id;
    flit.seq = seq;
    flit.generated_at = now;
    return flit;
  }

  SimConfig config;
  ConnectionTable table;
  ConnectionId cbr_id = 0, vbr_id = 0, be_id = 0;
};

TEST(Policer, CompliantCbrPacingIsNeverPoliced) {
  PolicerFixture fx;
  PoliceSpec spec;
  spec.policy = OverloadPolicy::kDrop;
  InjectionPolicer policer(fx.table, fx.config, spec);
  // 4 slots per 32-cycle round = one flit every 8 cycles.
  std::uint64_t seq = 0;
  for (Cycle now = 0; now < 4000; now += 8) {
    EXPECT_EQ(policer.police(fx.flit_of(fx.cbr_id, seq++, now), now),
              Verdict::kPass);
  }
  EXPECT_EQ(policer.tally(TrafficClass::kCbr).dropped, 0u);
  EXPECT_EQ(policer.noncompliant_connections(), 0u);
  policer.check_invariants();
}

TEST(Policer, SustainedExcessIsPolicedAtTheContractRate) {
  PolicerFixture fx;
  PoliceSpec spec;
  spec.policy = OverloadPolicy::kDemote;
  InjectionPolicer policer(fx.table, fx.config, spec);
  // One flit per cycle = 8x the contract (rate 4/32 = 0.125).
  std::uint64_t pass = 0, demoted = 0;
  for (Cycle now = 0; now < 800; ++now) {
    switch (policer.police(fx.flit_of(fx.cbr_id, now, now), now)) {
      case Verdict::kPass: ++pass; break;
      case Verdict::kDemoted: ++demoted; break;
      default: FAIL() << "unexpected verdict";
    }
  }
  // Initial burst credit (depth = 2 rounds x 4 slots = 8) plus refills.
  const double expected_pass = 8.0 + 0.125 * 800.0;
  EXPECT_NEAR(static_cast<double>(pass), expected_pass, 2.0);
  EXPECT_EQ(pass + demoted, 800u);
  EXPECT_EQ(policer.tally(TrafficClass::kCbr).demoted, demoted);
  EXPECT_EQ(policer.noncompliant_connections(), 1u);
  EXPECT_EQ(policer.policed_per_connection()[fx.cbr_id], demoted);
  policer.check_invariants();
}

TEST(Policer, VbrEnvelopeAdmitsDeclaredBursts) {
  PolicerFixture fx;
  PoliceSpec spec;
  spec.policy = OverloadPolicy::kDrop;
  InjectionPolicer policer(fx.table, fx.config, spec);
  // Depth = 24 rounds x 8 peak slots = 192: a declared-peak burst of one
  // frame's worth of flits passes untouched.
  for (Cycle now = 0; now < 100; ++now) {
    EXPECT_EQ(policer.police(fx.flit_of(fx.vbr_id, now, now), now),
              Verdict::kPass);
  }
  EXPECT_EQ(policer.tally(TrafficClass::kVbr).dropped, 0u);
}

TEST(Policer, ShapeDelaysExcessAndPreservesFifo) {
  PolicerFixture fx;
  PoliceSpec spec;
  spec.policy = OverloadPolicy::kShape;
  spec.burst_rounds = 0.5;  // depth = max(2, 0.5 x 4) = 2
  spec.penalty_flits = 8;
  InjectionPolicer policer(fx.table, fx.config, spec);

  // Burst of 5 at t=0: 2 pass on burst credit, 3 shaped.
  std::vector<Verdict> verdicts;
  for (std::uint64_t i = 0; i < 5; ++i)
    verdicts.push_back(policer.police(fx.flit_of(fx.cbr_id, i, 0), 0));
  EXPECT_EQ(verdicts[0], Verdict::kPass);
  EXPECT_EQ(verdicts[1], Verdict::kPass);
  EXPECT_EQ(verdicts[2], Verdict::kShaped);
  EXPECT_EQ(verdicts[3], Verdict::kShaped);
  EXPECT_EQ(verdicts[4], Verdict::kShaped);
  EXPECT_EQ(policer.penalty_backlog(), 3u);

  // Nothing is due the same cycle (no tokens accrued at t=0).
  std::vector<Flit> released;
  policer.release_due(0, released);
  EXPECT_TRUE(released.empty());

  // A later arrival must queue BEHIND the shaped flits even once tokens
  // exist again, or release would reorder the connection's stream.
  const Verdict behind = policer.police(fx.flit_of(fx.cbr_id, 5, 40), 40);
  EXPECT_EQ(behind, Verdict::kShaped);

  // Tokens accrue at 0.125/cycle but cap at the bucket depth (2), so the
  // queue drains two flits per refill window, in seq order.
  policer.release_due(40, released);
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0].seq, 2u);
  EXPECT_EQ(released[1].seq, 3u);

  released.clear();
  policer.release_due(60, released);
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0].seq, 4u);
  EXPECT_EQ(released[1].seq, 5u);
  EXPECT_EQ(policer.penalty_backlog(), 0u);
  policer.check_invariants();
}

TEST(Policer, ShapeQueueOverflowDrops) {
  PolicerFixture fx;
  PoliceSpec spec;
  spec.policy = OverloadPolicy::kShape;
  spec.burst_rounds = 0.5;  // depth 2
  spec.penalty_flits = 2;
  InjectionPolicer policer(fx.table, fx.config, spec);
  std::uint64_t dropped = 0;
  for (std::uint64_t i = 0; i < 6; ++i) {
    if (policer.police(fx.flit_of(fx.cbr_id, i, 0), 0) == Verdict::kDropped)
      ++dropped;
  }
  // 2 pass, 2 queue, 2 overflow.
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(policer.tally(TrafficClass::kCbr).penalty_overflow, 2u);
  EXPECT_EQ(policer.penalty_backlog(), 2u);
  policer.check_invariants();
}

TEST(Policer, ShedDropsBestEffortOnly) {
  PolicerFixture fx;
  PoliceSpec spec;
  InjectionPolicer policer(fx.table, fx.config, spec);
  EXPECT_EQ(policer.police(fx.flit_of(fx.be_id, 0, 0), 0), Verdict::kPass);
  policer.set_shed_best_effort(true);
  EXPECT_EQ(policer.police(fx.flit_of(fx.be_id, 1, 1), 1), Verdict::kDropped);
  // QoS traffic within contract is untouched by shedding.
  EXPECT_EQ(policer.police(fx.flit_of(fx.cbr_id, 0, 8), 8), Verdict::kPass);
  EXPECT_EQ(policer.tally(TrafficClass::kBestEffort).shed, 1u);
  policer.set_shed_best_effort(false);
  EXPECT_EQ(policer.police(fx.flit_of(fx.be_id, 2, 9), 9), Verdict::kPass);
}

TEST(Policer, ClampForcesDropOnNoncompliantConnections) {
  PolicerFixture fx;
  PoliceSpec spec;
  spec.policy = OverloadPolicy::kDemote;
  InjectionPolicer policer(fx.table, fx.config, spec);
  // Drain the CBR bucket so the connection is marked noncompliant.
  for (std::uint64_t i = 0; i < 10; ++i)
    (void)policer.police(fx.flit_of(fx.cbr_id, i, 0), 0);
  EXPECT_EQ(policer.noncompliant_connections(), 1u);

  policer.set_clamp_noncompliant(true);
  // Demote policy notwithstanding, clamped excess is dropped.
  EXPECT_EQ(policer.police(fx.flit_of(fx.cbr_id, 10, 1), 1),
            Verdict::kDropped);
  // A compliant connection keeps its normal envelope under clamping.
  EXPECT_EQ(policer.police(fx.flit_of(fx.vbr_id, 0, 1), 1), Verdict::kPass);
  policer.check_invariants();
}

// ---------------------------------------------------------------------------
// Saturation watchdog

PoliceSpec fast_watchdog_spec() {
  PoliceSpec spec;
  spec.wd_window = 4;
  spec.wd_alpha = 1.0;  // no smoothing: each window sees the raw sample
  spec.wd_high = 10.0;
  spec.wd_low = 2.0;
  spec.wd_escalate_after = 2;
  spec.wd_recover_after = 2;
  return spec;
}

void run_windows(SaturationWatchdog& wd, InjectionPolicer& policer,
                 Cycle& now, std::uint32_t windows, std::uint64_t backlog) {
  const Cycle end = now + windows * 4;
  for (; now < end; ++now) {
    wd.on_cycle(now, wd.wants_sample(now) ? backlog : 0, policer);
  }
}

TEST(Watchdog, EscalatesThroughStagesAndRecoversWithHysteresis) {
  PolicerFixture fx;
  const PoliceSpec spec = fast_watchdog_spec();
  InjectionPolicer policer(fx.table, fx.config, spec);
  SaturationWatchdog wd(spec, /*ports=*/2);
  Cycle now = 0;

  // Backlog 50/port: two windows over high -> shed stage.
  run_windows(wd, policer, now, 2, 100);
  EXPECT_EQ(wd.stage(), WatchdogStage::kShedBestEffort);
  EXPECT_TRUE(policer.shedding());
  EXPECT_FALSE(policer.clamping());

  run_windows(wd, policer, now, 2, 100);
  EXPECT_EQ(wd.stage(), WatchdogStage::kClampNoncompliant);
  EXPECT_TRUE(policer.clamping());

  run_windows(wd, policer, now, 2, 100);
  EXPECT_EQ(wd.stage(), WatchdogStage::kAlarm);
  EXPECT_EQ(wd.alarms(), 1u);
  EXPECT_EQ(wd.escalations(), 3u);

  // Stuck at the top: further high windows do not escalate past alarm.
  run_windows(wd, policer, now, 4, 100);
  EXPECT_EQ(wd.stage(), WatchdogStage::kAlarm);

  // Backlog in the dead band (between low and high): nothing moves.
  run_windows(wd, policer, now, 8, 10);  // 5/port
  EXPECT_EQ(wd.stage(), WatchdogStage::kAlarm);
  EXPECT_EQ(wd.recoveries(), 0u);

  // Calm backlog: one stage down per 2 calm windows, flags follow.
  run_windows(wd, policer, now, 2, 0);
  EXPECT_EQ(wd.stage(), WatchdogStage::kClampNoncompliant);
  run_windows(wd, policer, now, 2, 0);
  EXPECT_EQ(wd.stage(), WatchdogStage::kShedBestEffort);
  EXPECT_FALSE(policer.clamping());
  EXPECT_TRUE(policer.shedding());
  run_windows(wd, policer, now, 2, 0);
  EXPECT_EQ(wd.stage(), WatchdogStage::kNormal);
  EXPECT_FALSE(policer.shedding());
  EXPECT_EQ(wd.recoveries(), 3u);

  EXPECT_EQ(wd.cycles_in_stage(WatchdogStage::kNormal) +
                wd.cycles_in_stage(WatchdogStage::kShedBestEffort) +
                wd.cycles_in_stage(WatchdogStage::kClampNoncompliant) +
                wd.cycles_in_stage(WatchdogStage::kAlarm),
            now);
}

TEST(Watchdog, DisabledWindowNeverSamples) {
  PolicerFixture fx;
  PoliceSpec spec = fast_watchdog_spec();
  spec.wd_window = 0;
  InjectionPolicer policer(fx.table, fx.config, spec);
  SaturationWatchdog wd(spec, 2);
  for (Cycle now = 0; now < 100; ++now) {
    EXPECT_FALSE(wd.wants_sample(now));
    wd.on_cycle(now, 1'000'000, policer);
  }
  EXPECT_EQ(wd.stage(), WatchdogStage::kNormal);
  EXPECT_EQ(wd.escalations(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: simulation integration

TEST(OverloadSim, DisabledSpecsLeaveMetricsDisabledAndDeterministic) {
  const SimConfig config = small_config();
  MmrSimulation a(config, small_cbr_workload(config, 0.5));
  MmrSimulation b(config, small_cbr_workload(config, 0.5));
  const SimulationMetrics ma = a.run();
  const SimulationMetrics mb = b.run();
  EXPECT_FALSE(ma.overload.enabled);
  EXPECT_EQ(a.policer(), nullptr);
  EXPECT_EQ(a.watchdog(), nullptr);
  EXPECT_TRUE(a.rogue_connections().empty());
  // Bit-identical repeatability of the disabled path.
  EXPECT_EQ(ma.flits_generated, mb.flits_generated);
  EXPECT_EQ(ma.flits_delivered, mb.flits_delivered);
  EXPECT_DOUBLE_EQ(ma.flit_delay_us.mean(), mb.flit_delay_us.mean());
}

TEST(OverloadSim, RogueSourcesInflateMeasuredLoad) {
  SimConfig config = small_config();
  MmrSimulation baseline(config, small_cbr_workload(config, 0.4));
  const SimulationMetrics base = baseline.run();

  config.rogue_spec = "frac:0.5,scale:3";
  MmrSimulation rogue_sim(config, small_cbr_workload(config, 0.4));
  EXPECT_FALSE(rogue_sim.rogue_connections().empty());
  const SimulationMetrics rogue = rogue_sim.run();
  EXPECT_TRUE(rogue.overload.enabled);
  EXPECT_EQ(rogue.overload.policy, "off");
  EXPECT_GT(rogue.overload.rogue_connections, 0u);
  // Roughly frac x (scale - 1) extra offered load on top of the declared.
  EXPECT_GT(rogue.generated_load_measured,
            base.generated_load_measured * 1.5);
  // Nominal load reports the *declared* contracts, not the inflated truth.
  EXPECT_DOUBLE_EQ(rogue.generated_load_nominal, base.generated_load_nominal);
}

TEST(OverloadSim, PolicingDropsRogueExcessAndSparesCompliant) {
  SimConfig config = small_config();
  config.rogue_spec = "frac:0.4,scale:4";
  config.police_spec = "drop,wd_window:0";
  config.audit_every = 512;  // per-VC FIFO + credit sweeps stay on
  MmrSimulation sim(config, small_cbr_workload(config, 0.5));
  const SimulationMetrics m = sim.run();

  EXPECT_TRUE(m.overload.enabled);
  EXPECT_EQ(m.overload.policy, "drop");
  const PolicedClassTally& cbr =
      m.overload.policed[static_cast<std::size_t>(TrafficClass::kCbr)];
  EXPECT_GT(cbr.dropped, 0u);
  EXPECT_GT(cbr.conforming, 0u);
  // Compliant CBR pacing never exceeds its contract: every policed action
  // lands on a rogue connection.
  EXPECT_EQ(m.overload.compliant_policed, 0u);
  EXPECT_GT(m.overload.rogue_policed, 0u);
  EXPECT_EQ(m.overload.noncompliant_connections,
            m.overload.rogue_connections);
  // With the excess gone at injection the router itself never congests:
  // compliant traffic keeps its deadlines and nothing piles up.  (Note
  // saturated() is NOT the right probe here — generated load deliberately
  // includes the rogue excess the policer then drops, so its
  // delivered-vs-generated deficit triggers by construction.)
  EXPECT_EQ(m.overload.compliant_violations, 0u);
  EXPECT_LT(m.backlog_flits, 200u);
}

TEST(OverloadSim, ShapePolicyAccountsPenaltyBacklogAndDelay) {
  SimConfig config = small_config();
  config.rogue_spec = "count:2,scale:3";
  config.police_spec = "shape,penalty:32,wd_window:0";
  MmrSimulation sim(config, small_cbr_workload(config, 0.5));
  const SimulationMetrics m = sim.run();
  const PolicedClassTally& cbr =
      m.overload.policed[static_cast<std::size_t>(TrafficClass::kCbr)];
  EXPECT_GT(cbr.shaped, 0u);
  EXPECT_FALSE(m.overload.shape_delay_us.empty());
  EXPECT_GT(m.overload.shape_delay_us.mean(), 0.0);
}

TEST(OverloadSim, WatchdogEngagesUnderRogueSaturation) {
  SimConfig config = small_config();
  // Heavy rogue load, demote policy (keeps the excess in the network so
  // backlog actually builds), twitchy watchdog.
  config.rogue_spec = "frac:0.6,scale:6";
  config.police_spec =
      "demote,wd_window:256,wd_high:8,wd_low:1,wd_escalate:2,wd_recover:64";
  MmrSimulation sim(config, small_cbr_workload(config, 0.7));
  const SimulationMetrics m = sim.run();
  EXPECT_GT(m.overload.watchdog_escalations, 0u);
  EXPECT_GT(m.overload.degraded_fraction(), 0.0);
  const std::uint64_t total =
      m.overload.cycles_in_stage[0] + m.overload.cycles_in_stage[1] +
      m.overload.cycles_in_stage[2] + m.overload.cycles_in_stage[3];
  EXPECT_EQ(total, config.total_cycles());
}

}  // namespace
}  // namespace mmr

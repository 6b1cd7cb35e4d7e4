// Queue-discipline axis (`qd=`, ISSUE 10 tentpole): spec parsing, the VOQ
// router (per-input virtual output queues under the unchanged SwitchArbiter
// API), and the CICQ router (crosspoint buffers + RR/RR scheduling) — in
// particular Gunther's burst instability: with the base one-credit regime a
// burst serializes on the credit round-trip, and the stabilization protocol
// (`stab:1`) recovers the lost throughput.  Plus the resume and bit-identity
// guarantees: explicit `qd=vc` equals an unset spec hash-for-hash, and all
// three disciplines checkpoint/resume bit-identically.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmr/core/simulation.hpp"
#include "mmr/router/qd_spec.hpp"
#include "mmr/router/router.hpp"
#include "mmr/snapshot/manager.hpp"
#include "mmr/snapshot/walker.hpp"
#include "mmr/traffic/mix.hpp"
#include "spec_test_util.hpp"

namespace mmr {
namespace {

// --------------------------------------------------------------------------
// QdSpec parsing.

TEST(QdSpec, EmptyAndVcParseToTheDefaultDiscipline) {
  EXPECT_EQ(QdSpec::parse("").discipline, QueueDiscipline::kVc);
  EXPECT_EQ(QdSpec::parse("vc").discipline, QueueDiscipline::kVc);
  EXPECT_EQ(QdSpec::parse("voq").discipline, QueueDiscipline::kVoq);
}

TEST(QdSpec, CicqDefaultsAndOverrides) {
  const QdSpec defaults = QdSpec::parse("cicq");
  EXPECT_EQ(defaults.discipline, QueueDiscipline::kCicq);
  EXPECT_TRUE(defaults.stabilize);
  EXPECT_EQ(defaults.crosspoint_flits, 2u);
  EXPECT_EQ(defaults.burst_threshold, 4u);

  const QdSpec custom = QdSpec::parse("cicq,stab:0,xp:3,thresh:2");
  EXPECT_FALSE(custom.stabilize);
  EXPECT_EQ(custom.crosspoint_flits, 3u);
  EXPECT_EQ(custom.burst_threshold, 2u);
}

TEST(QdSpec, ToStringRoundTrips) {
  EXPECT_STREQ(to_string(QueueDiscipline::kVc), "vc");
  EXPECT_STREQ(to_string(QueueDiscipline::kVoq), "voq");
  EXPECT_STREQ(to_string(QueueDiscipline::kCicq), "cicq");
}

TEST(QdSpec, MalformedSpecsThrowAtParse) {
  // Messages name the spec but carry no "error:" prefix — the example mains
  // prepend it exactly once (the trace=/flow= convention).
  const auto expect_error = [](const std::string& spec) {
    try {
      (void)QdSpec::parse(spec);
      FAIL() << "expected throw for: " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("qd spec", 0), 0u) << e.what();
    }
  };
  expect_error("ciq");                // unknown discipline
  expect_error("cicq,stab");          // missing :value
  expect_error("cicq,stab:yes");      // non-integer value
  expect_error("cicq,depth:3");       // unknown key
  expect_error("vc,stab:1");          // cicq-only key on vc
  expect_error("voq,xp:4");           // cicq-only key on voq
}

TEST(QdSpec, DegenerateCicqGeometryIsRejected) {
  // The key table holds the ranges: xp and thresh start at 1.
  EXPECT_INVALID((void)QdSpec::parse("cicq,xp:0"),
                 "'xp:0' out of range [1, 4294967295]");
  EXPECT_INVALID((void)QdSpec::parse("cicq,thresh:0"),
                 "'thresh:0' out of range [1, 4294967295]");
}

// --------------------------------------------------------------------------
// Router-level fixtures (mirrors test_crossbar_router.cpp).

class QdRouterTest : public ::testing::Test {
 protected:
  SimConfig config_ = [] {
    SimConfig config;
    config.ports = 4;
    config.vcs_per_link = 8;
    config.arbiter = "coa";
    return config;
  }();

  ConnectionTable table_ = ConnectionTable(4);

  ConnectionId add_connection(std::uint32_t in, std::uint32_t out,
                              double bps = 55e6) {
    ConnectionDescriptor c;
    c.traffic_class = TrafficClass::kCbr;
    c.input_link = in;
    c.output_link = out;
    c.mean_bandwidth_bps = bps;
    c.peak_bandwidth_bps = bps;
    c.slots_per_round = 24;
    return table_.add(c, config_.vcs_per_link);
  }

  Flit make_flit(ConnectionId connection, std::uint64_t seq = 0) {
    Flit flit;
    flit.connection = connection;
    flit.seq = seq;
    flit.generated_at = 0;
    return flit;
  }
};

// --------------------------------------------------------------------------
// qd=voq.

TEST_F(QdRouterTest, VoqSingleFlitTraversesInOneStep) {
  config_.qd_spec = "voq";
  const ConnectionId c = add_connection(0, 2);
  MmrRouter router(config_, table_, Rng(1, 1));
  EXPECT_EQ(router.queue_discipline(), QueueDiscipline::kVoq);
  EXPECT_EQ(router.cicq(), nullptr);
  router.accept(0, table_.get(c).vc, make_flit(c), 0);
  EXPECT_EQ(router.flits_buffered(), 1u);
  EXPECT_EQ(router.vc_occupancy(0, table_.get(c).vc), 1u);
  std::vector<MmrRouter::Departure> departures;
  router.step(0, true, departures);
  ASSERT_EQ(departures.size(), 1u);
  EXPECT_EQ(departures[0].input, 0u);
  EXPECT_EQ(departures[0].output, 2u);
  EXPECT_EQ(departures[0].vc, table_.get(c).vc);
  EXPECT_EQ(router.flits_buffered(), 0u);
  router.check_invariants();
}

TEST_F(QdRouterTest, VoqDisjointFlowsForwardInParallel) {
  config_.qd_spec = "voq";
  std::vector<ConnectionId> ids;
  for (std::uint32_t p = 0; p < 4; ++p)
    ids.push_back(add_connection(p, (p + 1) % 4));
  MmrRouter router(config_, table_, Rng(3, 3));
  for (std::uint32_t p = 0; p < 4; ++p)
    router.accept(p, table_.get(ids[p]).vc, make_flit(ids[p]), 0);
  std::vector<MmrRouter::Departure> departures;
  router.step(0, true, departures);
  EXPECT_EQ(departures.size(), 4u);
  EXPECT_DOUBLE_EQ(router.crossbar().utilization(), 1.0);
}

TEST_F(QdRouterTest, VoqMergesVcsPerOutputInArrivalOrder) {
  // The defining semantic difference from per-VC queueing: two VCs headed
  // for the same output share one VOQ, so only the FIFO head competes — a
  // younger flit pushed first departs before an older (higher-priority) one
  // pushed second.  Under qd=vc both heads would be candidates and COA
  // would pick the older flit.
  config_.qd_spec = "voq";
  const ConnectionId young = add_connection(0, 1);
  const ConnectionId old = add_connection(0, 1);
  MmrRouter router(config_, table_, Rng(4, 4));
  router.accept(0, table_.get(young).vc, make_flit(young), /*now=*/10);
  router.accept(0, table_.get(old).vc, make_flit(old), /*now=*/0);
  std::vector<MmrRouter::Departure> departures;
  router.step(10, true, departures);
  router.step(11, true, departures);
  ASSERT_EQ(departures.size(), 2u);
  EXPECT_EQ(departures[0].flit.connection, young)
      << "VOQ head order must decide, not priority";
  EXPECT_EQ(departures[1].flit.connection, old);
  router.check_invariants();
}

TEST_F(QdRouterTest, VoqPerVcFifoOrderPreserved) {
  config_.qd_spec = "voq";
  const ConnectionId c = add_connection(1, 3);
  MmrRouter router(config_, table_, Rng(4, 4));
  router.accept(1, table_.get(c).vc, make_flit(c, 0), 0);
  router.accept(1, table_.get(c).vc, make_flit(c, 1), 1);
  std::vector<MmrRouter::Departure> departures;
  router.step(1, true, departures);
  router.step(2, true, departures);
  ASSERT_EQ(departures.size(), 2u);
  EXPECT_EQ(departures[0].flit.seq, 0u);
  EXPECT_EQ(departures[1].flit.seq, 1u);
}

TEST_F(QdRouterTest, VoqAdmissionBudgetStaysPerVc) {
  // Flits spread across VOQs but the NIC credit loop is per VC: the budget
  // must bind on VC occupancy, not on VOQ occupancy.
  config_.qd_spec = "voq";
  const ConnectionId c = add_connection(0, 1);
  MmrRouter router(config_, table_, Rng(5, 5));
  const std::uint32_t vc = table_.get(c).vc;
  for (std::uint32_t i = 0; i < config_.buffer_flits_per_vc; ++i) {
    ASSERT_TRUE(router.can_accept(0, vc));
    router.accept(0, vc, make_flit(c, i), 0);
  }
  EXPECT_FALSE(router.can_accept(0, vc));
  EXPECT_EQ(router.vc_occupancy(0, vc), config_.buffer_flits_per_vc);
}

// One buffer type under every discipline: keyed by VC under qd=vc and by
// output otherwise, over the same vcs x buffer_flits pool.
TEST_F(QdRouterTest, BufferKeyingFollowsTheDiscipline) {
  (void)add_connection(0, 1);
  for (const char* qd : {"vc", "voq", "cicq"}) {
    SCOPED_TRACE(qd);
    config_.qd_spec = qd;
    const MmrRouter router(config_, table_, Rng(6, 6));
    const bool by_vc = std::string(qd) == "vc";
    for (std::uint32_t input = 0; input < config_.ports; ++input) {
      const InputBuffer& buffer = router.buffer(input);
      EXPECT_EQ(buffer.keys(), by_vc ? config_.vcs_per_link : config_.ports);
      EXPECT_EQ(buffer.vcs(), config_.vcs_per_link);
      EXPECT_EQ(buffer.slots(),
                config_.vcs_per_link * config_.buffer_flits_per_vc);
    }
  }
}

// Fault teardown drains a VC wherever the discipline holds its flits: the
// VOQs, and under CICQ the crosspoints too (returning their credits).
TEST_F(QdRouterTest, DrainVcEmptiesVoqsAndCrosspoints) {
  for (const char* qd : {"voq", "cicq"}) {
    SCOPED_TRACE(qd);
    config_.qd_spec = qd;
    table_ = ConnectionTable(config_.ports);
    const ConnectionId drained = add_connection(0, 2);
    const ConnectionId kept = add_connection(0, 2);
    MmrRouter router(config_, table_, Rng(7, 7));
    const std::uint32_t vc = table_.get(drained).vc;
    router.accept(0, vc, make_flit(drained, 0), 0);
    std::vector<MmrRouter::Departure> departures;
    if (router.cicq() != nullptr) {
      router.step(0, true, departures);  // the head moves to the crosspoint
      ASSERT_TRUE(departures.empty());
    }
    router.accept(0, vc, make_flit(drained, 1), 1);
    router.accept(0, table_.get(kept).vc, make_flit(kept, 0), 1);
    EXPECT_EQ(router.drain_vc(0, vc, 1).size(), 2u);
    EXPECT_EQ(router.vc_occupancy(0, vc), 0u);
    EXPECT_EQ(router.flits_buffered(), 1u);
    EXPECT_EQ(router.flits_drained(), 2u);
    router.check_invariants();
    for (Cycle now = 2; router.flits_buffered() > 0 && now < 8; ++now)
      router.step(now, true, departures);
    ASSERT_EQ(departures.size(), 1u);
    EXPECT_EQ(departures[0].flit.connection, kept);
  }
}

// --------------------------------------------------------------------------
// qd=cicq.

TEST_F(QdRouterTest, CicqFlitCrossesInTwoSteps) {
  // The crosspoint is a registered buffer: fill on the arrival cycle, drain
  // (and depart) on the next.
  config_.qd_spec = "cicq";
  const ConnectionId c = add_connection(0, 2);
  MmrRouter router(config_, table_, Rng(1, 1));
  ASSERT_NE(router.cicq(), nullptr);
  router.accept(0, table_.get(c).vc, make_flit(c), 0);
  std::vector<MmrRouter::Departure> departures;
  router.step(0, true, departures);
  EXPECT_TRUE(departures.empty());
  EXPECT_EQ(router.cicq()->xp_occupancy(0, 2), 1u);
  EXPECT_EQ(router.vc_occupancy(0, table_.get(c).vc), 1u)
      << "crosspoint residency still counts against the VC";
  router.step(1, true, departures);
  ASSERT_EQ(departures.size(), 1u);
  EXPECT_EQ(departures[0].input, 0u);
  EXPECT_EQ(departures[0].output, 2u);
  EXPECT_EQ(router.flits_buffered(), 0u);
  EXPECT_EQ(router.cicq()->transfers(), 1u);
  router.check_invariants();
}

TEST_F(QdRouterTest, CicqDecouplesOutputsOfOneInput) {
  // A matching-based switch forwards at most one flit per input per cycle;
  // CICQ crosspoints drain independently, so one input can depart on two
  // outputs in the same cycle (this is exactly why the runtime auditor's
  // per-input uniqueness check is scoped to matching disciplines).
  config_.qd_spec = "cicq";
  const ConnectionId a1 = add_connection(0, 1);
  const ConnectionId a2 = add_connection(0, 2);
  const ConnectionId b = add_connection(1, 1);
  const ConnectionId c = add_connection(2, 1);
  MmrRouter router(config_, table_, Rng(2, 2));
  std::vector<MmrRouter::Departure> departures;

  // Cycle 0: inputs 1 and 2 stake out output 1's crosspoints.
  router.accept(1, table_.get(b).vc, make_flit(b), 0);
  router.accept(2, table_.get(c).vc, make_flit(c), 0);
  router.step(0, true, departures);
  // Cycle 1: output 1 drains input 1; input 0 fills its output-1 crosspoint.
  router.accept(0, table_.get(a1).vc, make_flit(a1), 1);
  router.step(1, true, departures);
  // Cycle 2: output 1 drains input 2; input 0 fills its output-2 crosspoint.
  router.accept(0, table_.get(a2).vc, make_flit(a2), 2);
  router.step(2, true, departures);
  ASSERT_EQ(departures.size(), 2u);
  departures.clear();

  // Cycle 3: both of input 0's crosspoints are occupied and both outputs
  // are free — two same-cycle departures from one input.
  router.step(3, true, departures);
  ASSERT_EQ(departures.size(), 2u);
  EXPECT_EQ(departures[0].input, 0u);
  EXPECT_EQ(departures[1].input, 0u);
  EXPECT_EQ(departures[0].output, 1u);
  EXPECT_EQ(departures[1].output, 2u);
  router.check_invariants();
}

// Drives a single connection with back-to-back arrivals and returns the
// departure count over `cycles`.
std::uint64_t run_hot_flow(const SimConfig& config, ConnectionTable& table,
                           ConnectionId c, Cycle cycles) {
  MmrRouter router(config, table, Rng(7, 7));
  const std::uint32_t vc = table.get(c).vc;
  std::vector<MmrRouter::Departure> departures;
  std::uint64_t seq = 0;
  for (Cycle now = 0; now < cycles; ++now) {
    if (router.can_accept(0, vc)) {
      Flit flit;
      flit.connection = c;
      flit.seq = seq++;
      flit.generated_at = now;
      router.accept(0, vc, flit, now);
    }
    router.step(now, true, departures);
    router.check_invariants();
  }
  return departures.size();
}

TEST_F(QdRouterTest, CicqBurstCollapsesWithoutStabilizationAndRecoversWithIt) {
  // Gunther's instability in miniature: the base regime exposes one credit
  // per crosspoint, so a saturated flow serializes on the credit round-trip
  // and throughput collapses to 1/(1 + RTT) — here 1/2 with the default
  // 1-cycle return latency.  Stabilization unlocks the full crosspoint
  // depth once the VOQ backs up, pipelining the round-trip back to ~100%.
  config_.buffer_flits_per_vc = 8;
  const ConnectionId c = add_connection(0, 1);
  const Cycle cycles = 60;

  config_.qd_spec = "cicq,stab:0,xp:3,thresh:2";
  const std::uint64_t collapsed = run_hot_flow(config_, table_, c, cycles);
  EXPECT_LE(collapsed, cycles / 2 + 1) << "one credit must serialize the flow";
  EXPECT_GE(collapsed, cycles / 2 - 2);

  config_.qd_spec = "cicq,stab:1,xp:3,thresh:2";
  const std::uint64_t stabilized = run_hot_flow(config_, table_, c, cycles);
  EXPECT_GE(stabilized, cycles - 5) << "burst credits must pipeline the RTT";
}

TEST_F(QdRouterTest, CicqCountersAttributeTheCollapse) {
  config_.buffer_flits_per_vc = 8;
  const ConnectionId c = add_connection(0, 1);
  const std::uint32_t vc = table_.get(c).vc;
  const auto drive = [&](MmrRouter& router) {
    std::vector<MmrRouter::Departure> departures;
    std::uint64_t seq = 0;
    for (Cycle now = 0; now < 40; ++now) {
      if (router.can_accept(0, vc)) router.accept(0, vc, make_flit(c, seq++), now);
      router.step(now, true, departures);
    }
  };

  config_.qd_spec = "cicq,stab:0,xp:3,thresh:2";
  MmrRouter unstable(config_, table_, Rng(8, 8));
  drive(unstable);
  EXPECT_GT(unstable.cicq()->credit_stalls(), 0u)
      << "the collapse must be visible as credit stalls";
  EXPECT_EQ(unstable.cicq()->burst_activations(), 0u);

  config_.qd_spec = "cicq,stab:1,xp:3,thresh:2";
  MmrRouter stable(config_, table_, Rng(8, 8));
  drive(stable);
  EXPECT_GE(stable.cicq()->burst_activations(), 1u);
  EXPECT_LT(stable.cicq()->credit_stalls(), unstable.cicq()->credit_stalls());
}

TEST_F(QdRouterTest, CicqStabilizationNeverTripsInvariants) {
  // Property sweep (satellite 4): bursty traffic cycling burst regimes on
  // and off must keep every invariant — credit conservation per crosspoint,
  // VC residency accounting, flit conservation — intact on every cycle.
  config_.buffer_flits_per_vc = 8;
  config_.qd_spec = "cicq,stab:1,xp:3,thresh:2";
  std::vector<ConnectionId> hot, cross;
  for (std::uint32_t in = 0; in < 4; ++in) {
    hot.push_back(add_connection(in, 3));            // everyone bursts at 3
    cross.push_back(add_connection(in, (in + 1) % 4));
  }
  MmrRouter router(config_, table_, Rng(9, 9));
  std::vector<MmrRouter::Departure> departures;
  std::uint64_t seq = 0;
  for (Cycle now = 0; now < 600; ++now) {
    // Deterministic on/off bursts, phase-shifted per input: 12 cycles of
    // back-to-back arrivals to the hot output, then 20 idle; a trickle of
    // cross traffic keeps the RR scan from degenerating.
    for (std::uint32_t in = 0; in < 4; ++in) {
      const Cycle phase = (now + 8 * in) % 32;
      const ConnectionId c = phase < 12 ? hot[in] : cross[in];
      const bool inject = phase < 12 || phase % 4 == 0;
      const std::uint32_t vc = table_.get(c).vc;
      if (inject && router.can_accept(in, vc))
        router.accept(in, vc, make_flit(c, seq++), now);
    }
    departures.clear();
    router.step(now, true, departures);
    router.check_invariants();
  }
  EXPECT_GT(router.cicq()->burst_activations(), 0u);
  EXPECT_GT(router.cicq()->burst_deactivations(), 0u);
  // Drain: once arrivals stop, everything buffered must leave.
  for (Cycle now = 600; now < 700 && router.flits_buffered() > 0; ++now) {
    departures.clear();
    router.step(now, true, departures);
    router.check_invariants();
  }
  EXPECT_EQ(router.flits_buffered(), 0u);
}

// --------------------------------------------------------------------------
// Simulation-level guarantees.

SimConfig qd_sim_config(const std::string& qd) {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 500;
  config.measure_cycles = 1'500;
  config.arbiter = "coa";
  config.qd_spec = qd;
  return config;
}

Workload qd_workload(const SimConfig& config) {
  Rng rng(config.seed, 1);
  VbrMixSpec spec;
  spec.target_load = 0.5;
  spec.trace_gops = 2;
  return build_vbr_mix(config, spec, rng);
}

TEST(QdSimulation, ExplicitVcIsBitIdenticalToUnset) {
  // `qd=vc` must not just behave like the default — it must BE the default:
  // same final state hash, same metrics.
  MmrSimulation unset(qd_sim_config(""), qd_workload(qd_sim_config("")));
  const SimulationMetrics unset_metrics = unset.run();
  MmrSimulation explicit_vc(qd_sim_config("vc"),
                            qd_workload(qd_sim_config("vc")));
  const SimulationMetrics vc_metrics = explicit_vc.run();
  EXPECT_EQ(explicit_vc.state_hash(), unset.state_hash());
  EXPECT_EQ(vc_metrics.flits_delivered, unset_metrics.flits_delivered);
  EXPECT_DOUBLE_EQ(vc_metrics.flit_delay_us.mean(),
                   unset_metrics.flit_delay_us.mean());
  EXPECT_EQ(unset_metrics.queue_discipline, "vc");
  EXPECT_EQ(vc_metrics.queue_discipline, "vc");
  EXPECT_FALSE(vc_metrics.cicq.enabled);
}

TEST(QdSimulation, AllDisciplinesRunAndReportTheirDiscipline) {
  for (const char* qd : {"voq", "cicq,stab:1", "cicq,stab:0"}) {
    const SimConfig config = qd_sim_config(qd);
    MmrSimulation sim(config, qd_workload(config));
    const SimulationMetrics metrics = sim.run();
    EXPECT_GT(metrics.flits_delivered, 0u) << qd;
    const std::string want = std::string(qd).rfind("cicq", 0) == 0 ? "cicq"
                                                                   : "voq";
    EXPECT_EQ(metrics.queue_discipline, want) << qd;
    if (want == "cicq") {
      EXPECT_TRUE(metrics.cicq.enabled) << qd;
      EXPECT_GT(metrics.cicq.transfers, 0u) << qd;
    }
  }
}

TEST(QdSimulation, SnapshotResumeBitIdenticalAcrossDisciplines) {
  // The ISSUE 8 resume guarantee extends to the new disciplines: resuming a
  // mid-run checkpoint matches the uninterrupted run hash-for-hash.
  for (const char* qd : {"voq", "cicq,stab:0", "cicq,stab:1,xp:3,thresh:2"}) {
    const std::string tag(qd);
    std::string slug = tag;
    for (char& ch : slug)
      if (ch == ',' || ch == ':') ch = '_';
    const std::string prefix = ::testing::TempDir() + "/mmr_qd_" + slug;

    const SimConfig config = qd_sim_config(qd);

    SimConfig ref_config = config;
    ref_config.snap_spec = "hash_every:500,prefix:" + prefix + "-ref";
    MmrSimulation reference(ref_config, qd_workload(ref_config));
    const SimulationMetrics ref_metrics = reference.run();
    const std::uint64_t ref_hash = reference.state_hash();

    SimConfig ck_config = config;
    ck_config.snap_spec = "every:1000,prefix:" + prefix + "-ck";
    MmrSimulation interrupted(ck_config, qd_workload(ck_config));
    (void)interrupted.run();
    EXPECT_EQ(interrupted.state_hash(), ref_hash) << tag;
    const auto paths = interrupted.snapshot_manager()->checkpoints_written();
    ASSERT_FALSE(paths.empty()) << tag;

    SimConfig resume_config = config;
    resume_config.snap_spec =
        "hash_every:500,prefix:" + prefix + "-re,resume:" + paths[0];
    MmrSimulation resumed(resume_config, qd_workload(resume_config));
    EXPECT_EQ(resumed.now(), 1000u) << tag;
    const SimulationMetrics resumed_metrics = resumed.run();
    EXPECT_EQ(resumed.state_hash(), ref_hash) << tag;
    EXPECT_EQ(resumed_metrics.flits_delivered, ref_metrics.flits_delivered)
        << tag;
    EXPECT_DOUBLE_EQ(resumed_metrics.flit_delay_us.mean(),
                     ref_metrics.flit_delay_us.mean())
        << tag;

    for (const std::string& path : paths) std::remove(path.c_str());
  }
}

TEST(QdSimulation, SnapshotRefusesToResumeUnderADifferentDiscipline) {
  // qd_spec is folded into the config digest: a VOQ checkpoint must never
  // silently resume as a CICQ (or per-VC) run.
  const std::string prefix = ::testing::TempDir() + "/mmr_qd_digest";
  SimConfig ck_config = qd_sim_config("voq");
  ck_config.snap_spec = "every:1000,prefix:" + prefix;
  MmrSimulation interrupted(ck_config, qd_workload(ck_config));
  (void)interrupted.run();
  const auto paths = interrupted.snapshot_manager()->checkpoints_written();
  ASSERT_FALSE(paths.empty());

  SimConfig resume_config = qd_sim_config("cicq");
  resume_config.snap_spec = "resume:" + paths[0];
  EXPECT_THROW(
      {
        MmrSimulation resumed(resume_config, qd_workload(resume_config));
      },
      snapshot::SnapshotError);
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace mmr

// Simulation-level checkpoint/restore (ISSUE 8 tentpole): resume from a
// mid-run checkpoint must be bit-identical to never having stopped — final
// metrics, the mmr-trace-v1 output bytes, and the full StateHash sequence —
// across arbiters x {credit, shared} x {CBR, VBR}.  Plus the crash-recovery
// plumbing: post-mortem checkpoints on MMR_ASSERT death and SIGTERM, the
// config-digest guard, and the periodic checkpoint/hash-log duties.

#include "mmr/core/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/format.hpp"
#include "mmr/snapshot/manager.hpp"
#include "mmr/snapshot/signals.hpp"
#include "mmr/snapshot/spec.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {
namespace {

using snapshot::SnapshotError;

SimConfig snap_config(const std::string& arbiter, bool shared) {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 1'000;
  config.measure_cycles = 3'000;
  config.arbiter = arbiter;
  config.flow_spec = shared ? "shared" : "";
  return config;
}

Workload make_workload(const SimConfig& config, bool vbr) {
  Rng rng(config.seed, 1);
  if (vbr) {
    VbrMixSpec spec;
    spec.target_load = 0.5;
    spec.trace_gops = 2;
    return build_vbr_mix(config, spec, rng);
  }
  CbrMixSpec spec;
  spec.target_load = 0.6;
  spec.classes = {kCbrHigh, kCbrMedium};
  spec.class_weights = {3.0, 1.0};
  return build_cbr_mix(config, spec, rng);
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void expect_same_metrics(const SimulationMetrics& a,
                         const SimulationMetrics& b,
                         const std::string& tag) {
  EXPECT_EQ(a.flits_generated, b.flits_generated) << tag;
  EXPECT_EQ(a.flits_delivered, b.flits_delivered) << tag;
  EXPECT_EQ(a.frames_completed, b.frames_completed) << tag;
  EXPECT_DOUBLE_EQ(a.flit_delay_us.mean(), b.flit_delay_us.mean()) << tag;
  EXPECT_DOUBLE_EQ(a.delivered_load, b.delivered_load) << tag;
  EXPECT_DOUBLE_EQ(a.crossbar_utilization, b.crossbar_utilization) << tag;
}

// The tentpole acceptance sweep: checkpoint at cycle 2000, resume, and the
// resumed run must be indistinguishable from the uninterrupted one — same
// final metrics, same final state hash, and the resumed StateHash sequence
// equals the uninterrupted sequence's suffix.
TEST(SnapshotResume, BitIdenticalAcrossArbitersFlowsAndTrafficKinds) {
  for (const char* arbiter : {"coa", "wfa"}) {
    for (const bool shared : {false, true}) {
      for (const bool vbr : {false, true}) {
        const std::string tag = std::string(arbiter) +
                                (shared ? "/shared" : "/credit") +
                                (vbr ? "/vbr" : "/cbr");
        const std::string prefix =
            ::testing::TempDir() + "/mmr_snap_" + std::string(arbiter) +
            (shared ? "_s" : "_c") + (vbr ? "_v" : "_b");

        SimConfig config = snap_config(arbiter, shared);

        // Uninterrupted reference, hashes recorded every 500 cycles.
        SimConfig ref_config = config;
        ref_config.snap_spec = "hash_every:500,prefix:" + prefix + "-ref";
        MmrSimulation reference(ref_config, make_workload(ref_config, vbr));
        const SimulationMetrics ref_metrics = reference.run();
        const std::uint64_t ref_hash = reference.state_hash();
        const auto& ref_seq = reference.snapshot_manager()->hash_sequence();
        ASSERT_EQ(ref_seq.size(), 8u) << tag;  // 500..4000

        // Checkpointing run: same policy plus a checkpoint every 2000.
        SimConfig ck_config = config;
        ck_config.snap_spec =
            "every:2000,hash_every:500,prefix:" + prefix + "-ck";
        MmrSimulation interrupted(ck_config, make_workload(ck_config, vbr));
        const SimulationMetrics ck_metrics = interrupted.run();
        expect_same_metrics(ref_metrics, ck_metrics, tag + " (checkpointing)");
        EXPECT_EQ(interrupted.state_hash(), ref_hash) << tag;
        const auto paths = interrupted.snapshot_manager()->checkpoints_written();
        ASSERT_EQ(paths.size(), 2u) << tag;  // cycles 2000 and 4000
        EXPECT_NE(paths[0].find("-2000.snap"), std::string::npos);

        // Resume from the mid-run checkpoint.
        SimConfig resume_config = config;
        resume_config.snap_spec =
            "hash_every:500,prefix:" + prefix + "-re,resume:" + paths[0];
        MmrSimulation resumed(resume_config, make_workload(resume_config, vbr));
        EXPECT_EQ(resumed.now(), 2000u) << tag;
        const SimulationMetrics resumed_metrics = resumed.run();

        expect_same_metrics(ref_metrics, resumed_metrics, tag + " (resumed)");
        EXPECT_EQ(resumed.state_hash(), ref_hash) << tag;

        // StateHash sequence: the resumed run's recording equals the
        // uninterrupted run's post-checkpoint suffix (2500..4000).
        const auto& resumed_seq =
            resumed.snapshot_manager()->hash_sequence();
        std::vector<std::pair<std::uint64_t, std::uint64_t>> suffix;
        for (const auto& entry : ref_seq) {
          if (entry.first > 2000) suffix.push_back(entry);
        }
        EXPECT_EQ(resumed_seq, suffix) << tag;

        for (const std::string& path : paths) std::remove(path.c_str());
      }
    }
  }
}

// `snap=` only observes: enabling checkpoints and hashes must not perturb a
// run relative to one with no snapshot machinery constructed at all.
TEST(SnapshotResume, SnapMachineryDoesNotPerturbTheRun) {
  const SimConfig bare_config = snap_config("coa", false);
  MmrSimulation bare(bare_config, make_workload(bare_config, false));
  const SimulationMetrics bare_metrics = bare.run();

  SimConfig snap_cfg = bare_config;
  snap_cfg.snap_spec = "every:1500,hash_every:500,prefix:" +
                       ::testing::TempDir() + "/mmr_snap_perturb";
  MmrSimulation snapped(snap_cfg, make_workload(snap_cfg, false));
  const SimulationMetrics snap_metrics = snapped.run();

  expect_same_metrics(bare_metrics, snap_metrics, "snap on vs off");
  EXPECT_EQ(bare.state_hash(), snapped.state_hash());
  for (const std::string& path :
       snapped.snapshot_manager()->checkpoints_written()) {
    std::remove(path.c_str());
  }
}

// The mmr-trace-v1 output of a resumed run is byte-identical to the
// uninterrupted run's: the tracer's buffers ride in the checkpoint.  Both
// runs share one trace_spec (it enters the config digest — traced events
// are behaviour the digest must pin), so the reference bytes are captured
// before the resumed run rewrites the same output path.
TEST(SnapshotResume, TraceOutputBytesIdenticalAfterResume) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_out = dir + "/mmr_snap_trace.jsonl";
  SimConfig config = snap_config("coa", false);
  config.trace_spec = "stream,out:" + trace_out;

  SimConfig ref_config = config;
  ref_config.snap_spec = "prefix:" + dir + "/mmr_snap_trace,every:2000";
  MmrSimulation reference(ref_config, make_workload(ref_config, false));
  (void)reference.run();
  const auto paths = reference.snapshot_manager()->checkpoints_written();
  ASSERT_EQ(paths.size(), 2u);
  const std::string ref_bytes = read_all(trace_out);
  ASSERT_FALSE(ref_bytes.empty());
  std::remove(trace_out.c_str());

  SimConfig resume_config = config;
  resume_config.snap_spec =
      "prefix:" + dir + "/mmr_snap_trace_re,resume:" + paths[0];
  MmrSimulation resumed(resume_config, make_workload(resume_config, false));
  (void)resumed.run();

  EXPECT_EQ(read_all(trace_out), ref_bytes);
  for (const std::string& path : paths) std::remove(path.c_str());
  std::remove(trace_out.c_str());
}

// Direct save/restore API: the state hash is a per-cycle divergence oracle —
// equal after restore, and equal after every subsequent lockstep cycle.
TEST(SnapshotResume, SaveRestoreRoundTripHashOracle) {
  const std::string path = ::testing::TempDir() + "/mmr_snap_oracle.snap";
  const SimConfig config = snap_config("wfa", false);

  MmrSimulation a(config, make_workload(config, false));
  for (int i = 0; i < 1'500; ++i) a.step_one();
  a.save_checkpoint(path);

  MmrSimulation b(config, make_workload(config, false));
  b.restore_checkpoint(path);
  EXPECT_EQ(b.now(), 1'500u);
  EXPECT_EQ(b.state_hash(), a.state_hash());

  for (int i = 0; i < 200; ++i) {
    a.step_one();
    b.step_one();
    ASSERT_EQ(b.state_hash(), a.state_hash()) << "diverged at cycle " << i;
  }
  std::remove(path.c_str());
}

TEST(SnapshotResume, DigestMismatchIsRejected) {
  const std::string path = ::testing::TempDir() + "/mmr_snap_digest.snap";
  const SimConfig config = snap_config("coa", false);
  MmrSimulation a(config, make_workload(config, false));
  for (int i = 0; i < 100; ++i) a.step_one();
  a.save_checkpoint(path);

  SimConfig other = config;
  other.seed = config.seed + 1;
  other.snap_spec = "resume:" + path;
  EXPECT_THROW(MmrSimulation(other, make_workload(other, false)),
               SnapshotError);
  std::remove(path.c_str());
}

// validate() checks a resume: digest against the config the simulation is
// built from — with flow=shared that is the flow-resolved one, so the
// pre-check in the mains accepts exactly the checkpoints construction does.
TEST(SnapshotResume, PrecheckMatchesConstructionUnderSharedFlow) {
  const std::string path = ::testing::TempDir() + "/mmr_snap_precheck.snap";
  const SimConfig config = snap_config("coa", /*shared=*/true);
  MmrSimulation a(config, make_workload(config, false));
  for (int i = 0; i < 100; ++i) a.step_one();
  a.save_checkpoint(path);

  SimConfig resume = config;
  resume.snap_spec = "resume:" + path;
  const NetworkTopology router = NetworkTopology::single(resume.ports);
  EXPECT_NO_THROW(validate(resume, router));
  EXPECT_NO_THROW(MmrSimulation(resume, make_workload(resume, false)));
  resume.seed = config.seed + 1;
  EXPECT_THROW(validate(resume, router), SnapshotError);
  std::remove(path.c_str());
}

// Crash path: an MMR_ASSERT death with a CrashScope armed writes the
// post-mortem checkpoint before the process dies, and the file decodes.
TEST(SnapshotCrashDeath, AssertWritesPostmortemCheckpoint) {
  const std::string prefix = ::testing::TempDir() + "/mmr_snap_crash";
  const std::string expected = prefix + "-crash-7.snap";
  std::remove(expected.c_str());

  EXPECT_DEATH(
      {
        snapshot::SnapshotManager manager(
            snapshot::SnapSpec::parse("prefix:" + prefix), 42);
        std::uint64_t state = 0xABCD;
        const auto walk = [&state](snapshot::Walker& w) {
          w.section("state");
          snapshot::value(w, state);
        };
        snapshot::CrashScope scope([&] {
          (void)manager.write_checkpoint(7, walk, "crash", true);
        });
        MMR_ASSERT_MSG(false, "deliberate crash-path death");
      },
      "deliberate crash-path death");

  const snapshot::Snapshot snap = snapshot::load_file(expected);
  EXPECT_EQ(snap.cycle, 7u);
  EXPECT_EQ(snap.config_digest, 42u);
  ASSERT_EQ(snap.sections.size(), 1u);
  EXPECT_EQ(snap.sections[0].name, "state");
  std::remove(expected.c_str());
}

// Watchdog-alarm post-mortems: one bundle per alarm-count increase, capped.
TEST(SnapshotCrash, AlarmPostmortemsAreCappedPerRun) {
  const std::string prefix = ::testing::TempDir() + "/mmr_snap_alarm";
  snapshot::SnapshotManager manager(
      snapshot::SnapSpec::parse("prefix:" + prefix), 1);
  std::uint64_t state = 1;
  const auto walk = [&state](snapshot::Walker& w) {
    w.section("state");
    snapshot::value(w, state);
  };
  manager.on_alarm_count(10, walk, 0, "watchdog");  // no alarms yet
  EXPECT_TRUE(manager.checkpoints_written().empty());
  for (std::uint64_t alarms = 1; alarms <= snapshot::kMaxPostmortems + 3;
       ++alarms) {
    manager.on_alarm_count(10 + alarms, walk, alarms, "watchdog");
    manager.on_alarm_count(10 + alarms, walk, alarms, "watchdog");  // no dup
  }
  EXPECT_EQ(manager.checkpoints_written().size(), snapshot::kMaxPostmortems);
  for (const std::string& path : manager.checkpoints_written()) {
    EXPECT_NE(path.find("-watchdog-"), std::string::npos);
    std::remove(path.c_str());
  }
}

// SIGTERM mid-run: the managed loop writes a signal-tagged post-mortem
// checkpoint, throws Interrupted, and the bundle resumes to the same final
// state as a never-interrupted run.
TEST(SnapshotSignals, SigtermWritesPostmortemAndResumeCompletes) {
  const SimConfig config = snap_config("coa", false);
  MmrSimulation reference(config, make_workload(config, false));
  const SimulationMetrics ref_metrics = reference.run();
  const std::uint64_t ref_hash = reference.state_hash();

  SimConfig victim_config = config;
  victim_config.snap_spec =
      "prefix:" + ::testing::TempDir() + "/mmr_snap_sig,crash:1";
  MmrSimulation victim(victim_config, make_workload(victim_config, false));

  std::string checkpoint;
  {
    snapshot::SignalGuard guard;  // keep the raise from killing the test
    ASSERT_EQ(::raise(SIGTERM), 0);
    try {
      (void)victim.run();
      FAIL() << "run() must not complete after SIGTERM";
    } catch (const snapshot::Interrupted& stop) {
      EXPECT_EQ(stop.signal_number(), SIGTERM);
      EXPECT_EQ(snapshot::exit_status_for_signal(stop.signal_number()), 143);
      checkpoint = stop.checkpoint();
    }
  }
  ASSERT_FALSE(checkpoint.empty());
  EXPECT_NE(checkpoint.find("-signal-"), std::string::npos);

  SimConfig resume_config = config;
  resume_config.snap_spec = "resume:" + checkpoint;
  MmrSimulation resumed(resume_config, make_workload(resume_config, false));
  const SimulationMetrics resumed_metrics = resumed.run();
  expect_same_metrics(ref_metrics, resumed_metrics, "post-SIGTERM resume");
  EXPECT_EQ(resumed.state_hash(), ref_hash);
  std::remove(checkpoint.c_str());
}

// Periodic duties: the hash log is written as parseable JSONL and the
// checkpoint files land where the prefix says.
TEST(SnapshotManagerDuties, HashLogAndCheckpointsAreWritten) {
  const std::string dir = ::testing::TempDir();
  SimConfig config = snap_config("coa", false);
  config.snap_spec = "every:2000,hash_every:1000,prefix:" + dir +
                     "/mmr_snap_duties,hash_out:" + dir +
                     "/mmr_snap_hashes.jsonl";
  MmrSimulation simulation(config, make_workload(config, false));
  (void)simulation.run();

  const std::string log = read_all(dir + "/mmr_snap_hashes.jsonl");
  ASSERT_FALSE(log.empty());
  std::istringstream lines(log);
  std::string line;
  std::size_t entries = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("{\"cycle\":", 0), 0u) << line;
    EXPECT_NE(line.find("\"hash\":"), std::string::npos) << line;
    ++entries;
  }
  EXPECT_EQ(entries, 4u);  // 1000, 2000, 3000, 4000

  for (const std::string& path :
       simulation.snapshot_manager()->checkpoints_written()) {
    const snapshot::Snapshot snap = snapshot::load_file(path);
    EXPECT_EQ(snap.config_digest, snapshot::config_digest(config));
    std::remove(path.c_str());
  }
  std::remove((dir + "/mmr_snap_hashes.jsonl").c_str());
}

// The multi-router network simulation carries the same guarantee, including
// under an active fault plan (injector RNG lanes, re-admission tables and
// rewritten routing state all ride in the checkpoint), under every queue
// discipline.
TEST(SnapshotNetwork, ResumeBitIdenticalWithFaults) {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 1'000;
  config.measure_cycles = 3'000;
  config.fault_spec = "drop:0.005,resync_period:256,resync_timeout:512";

  const auto make_net_workload = [&config]() {
    const NetworkTopology ring = NetworkTopology::bidirectional_ring(3, 4);
    Rng rng(config.seed, 5);
    CbrMixSpec mix;
    mix.target_load = 0.4;
    mix.classes = {kCbrHigh, kCbrMedium};
    mix.class_weights = {3.0, 1.0};
    Workload workload(ring);
    add_cbr_mix(workload, config, mix, rng);
    return workload;
  };

  SimConfig ref_config = config;
  ref_config.snap_spec = "hash_every:500,prefix:" + ::testing::TempDir() +
                         "/mmr_snap_net_ref";
  MmrSimulation reference(ref_config, make_net_workload());
  const SimulationMetrics ref_metrics = reference.run();
  const std::uint64_t ref_hash = reference.state_hash();

  SimConfig ck_config = config;
  ck_config.snap_spec = "every:2000,prefix:" + ::testing::TempDir() +
                        "/mmr_snap_net_ck";
  MmrSimulation interrupted(ck_config, make_net_workload());
  (void)interrupted.run();
  const auto paths = interrupted.snapshot_manager()->checkpoints_written();
  ASSERT_EQ(paths.size(), 2u);

  SimConfig resume_config = config;
  resume_config.snap_spec = "hash_every:500,resume:" + paths[0] +
                            ",prefix:" + ::testing::TempDir() +
                            "/mmr_snap_net_re";
  MmrSimulation resumed(resume_config, make_net_workload());
  EXPECT_EQ(resumed.now(), 2000u);
  const SimulationMetrics resumed_metrics = resumed.run();

  EXPECT_EQ(resumed_metrics.flits_delivered, ref_metrics.flits_delivered);
  EXPECT_EQ(resumed_metrics.frames_completed, ref_metrics.frames_completed);
  EXPECT_DOUBLE_EQ(resumed_metrics.flit_delay_us.mean(),
                   ref_metrics.flit_delay_us.mean());
  EXPECT_EQ(resumed_metrics.degradation.flits_dropped,
            ref_metrics.degradation.flits_dropped);
  EXPECT_EQ(resumed.state_hash(), ref_hash);

  // The suffix property holds across the network walk too.
  const auto& ref_seq = reference.snapshot_manager()->hash_sequence();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> suffix;
  for (const auto& entry : ref_seq) {
    if (entry.first > 2000) suffix.push_back(entry);
  }
  EXPECT_EQ(resumed.snapshot_manager()->hash_sequence(), suffix);
  for (const std::string& path : paths) std::remove(path.c_str());

  // Link-down windows on a torus under every queue discipline: torn-down
  // connections are re-admitted on fresh VCs before the checkpoint, so the
  // resumed routers must route those VCs by the checkpointed bindings.
  for (const char* qd : {"vc", "voq", "cicq"}) {
    SimConfig torus_config;
    torus_config.ports = 5;
    torus_config.vcs_per_link = 32;
    torus_config.warmup_cycles = 300;
    torus_config.measure_cycles = 1'700;
    torus_config.qd_spec = qd;
    torus_config.fault_spec =
        "down:0:400:900,down:9:300:1200,resync_period:128,"
        "resync_timeout:256";
    const std::string tag = std::string("qd=") + qd;
    const std::string dir = ::testing::TempDir() + "/mmr_snap_torus_" + qd;

    const auto make_torus_workload = [&torus_config]() {
      const NetworkTopology torus =
          NetworkTopology::torus2d(4, 4, torus_config.ports);
      Rng rng(torus_config.seed, 5);
      CbrMixSpec mix;
      mix.target_load = 0.35;
      mix.classes = {kCbrHigh, kCbrMedium};
      mix.class_weights = {3.0, 1.0};
      Workload workload(torus);
      add_cbr_mix(workload, torus_config, mix, rng);
      return workload;
    };

    SimConfig torus_ref_config = torus_config;
    torus_ref_config.snap_spec = "hash_every:250,prefix:" + dir + "_ref";
    MmrSimulation torus_ref(torus_ref_config, make_torus_workload());
    const SimulationMetrics torus_ref_metrics = torus_ref.run();
    EXPECT_GT(torus_ref_metrics.degradation.reroutes, 0u) << tag;

    SimConfig torus_ck_config = torus_config;
    torus_ck_config.snap_spec = "every:1000,prefix:" + dir + "_ck";
    MmrSimulation torus_ck(torus_ck_config, make_torus_workload());
    (void)torus_ck.run();
    const auto torus_paths =
        torus_ck.snapshot_manager()->checkpoints_written();
    ASSERT_FALSE(torus_paths.empty()) << tag;

    SimConfig torus_re_config = torus_config;
    torus_re_config.snap_spec = "hash_every:250,resume:" + torus_paths[0] +
                                ",prefix:" + dir + "_re";
    MmrSimulation torus_re(torus_re_config, make_torus_workload());
    EXPECT_EQ(torus_re.now(), 1000u) << tag;
    const SimulationMetrics torus_re_metrics = torus_re.run();

    EXPECT_EQ(torus_re_metrics.flits_generated,
              torus_ref_metrics.flits_generated) << tag;
    EXPECT_EQ(torus_re_metrics.flits_delivered,
              torus_ref_metrics.flits_delivered) << tag;
    EXPECT_EQ(torus_re_metrics.flit_delay_us.mean(),
              torus_ref_metrics.flit_delay_us.mean()) << tag;
    EXPECT_EQ(torus_re_metrics.degradation.reroutes,
              torus_ref_metrics.degradation.reroutes) << tag;
    EXPECT_EQ(torus_re_metrics.degradation.flits_dropped,
              torus_ref_metrics.degradation.flits_dropped) << tag;
    EXPECT_EQ(torus_re.state_hash(), torus_ref.state_hash()) << tag;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> torus_suffix;
    for (const auto& entry : torus_ref.snapshot_manager()->hash_sequence()) {
      if (entry.first > 1000) torus_suffix.push_back(entry);
    }
    EXPECT_EQ(torus_re.snapshot_manager()->hash_sequence(), torus_suffix)
        << tag;
    for (const std::string& path : torus_paths) std::remove(path.c_str());
  }
}

// Sharded engine (ISSUE 9): a checkpoint written under one `net_threads=`
// setting must resume bit-identically under any other, because the
// execution strategy is excluded from the config digest and the sharded
// engine is bit-identical to the serial one.  Covers torus and fat-tree
// fabrics, with fault injection on the torus leg.
TEST(SnapshotNetwork, ShardedResumeBitIdenticalAcrossThreadCounts) {
  const std::uint32_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  for (const bool torus : {true, false}) {
    SimConfig config;
    config.ports = 5;
    config.vcs_per_link = 32;
    config.warmup_cycles = 500;
    config.measure_cycles = 2'500;
    if (torus) {
      config.fault_spec =
          "drop:0.01,credit_loss:0.005,resync_period:256,resync_timeout:512";
    }

    const auto make_net_workload = [&config, torus]() {
      const NetworkTopology topology =
          torus ? NetworkTopology::torus2d(3, 3, config.ports)
                : NetworkTopology::fat_tree(4, config.ports);
      Rng rng(config.seed, 7);
      CbrMixSpec mix;
      mix.target_load = 0.35;
      mix.classes = {kCbrHigh, kCbrMedium};
      mix.class_weights = {3.0, 1.0};
      Workload workload(topology);
      add_cbr_mix(workload, config, mix, rng);
      return workload;
    };
    const std::string tag = torus ? "torus" : "fattree";

    // Serial reference: final metrics + state hash.
    SimConfig ref_config = config;
    MmrSimulation reference(ref_config, make_net_workload());
    const SimulationMetrics ref_metrics = reference.run();
    const std::uint64_t ref_hash = reference.state_hash();

    // Checkpoint under the sharded engine...
    SimConfig ck_config = config;
    ck_config.net_threads = 2;
    ck_config.snap_spec = "every:2000,prefix:" + ::testing::TempDir() +
                          "/mmr_snap_shard_ck_" + tag;
    MmrSimulation interrupted(ck_config, make_net_workload());
    (void)interrupted.run();
    const auto paths = interrupted.snapshot_manager()->checkpoints_written();
    ASSERT_FALSE(paths.empty());

    // ...and resume under serial, 2-shard and hardware-width engines: every
    // combination must land on the serial reference bit for bit.
    for (const std::uint32_t threads : {0u, 2u, hw}) {
      SimConfig resume_config = config;
      resume_config.net_threads = threads;
      resume_config.snap_spec = "resume:" + paths[0] +
                                ",prefix:" + ::testing::TempDir() +
                                "/mmr_snap_shard_re_" + tag;
      MmrSimulation resumed(resume_config, make_net_workload());
      EXPECT_EQ(resumed.now(), 2000u);
      const SimulationMetrics resumed_metrics = resumed.run();
      EXPECT_EQ(resumed_metrics.flits_delivered, ref_metrics.flits_delivered)
          << tag << " threads=" << threads;
      EXPECT_EQ(resumed_metrics.flits_generated, ref_metrics.flits_generated);
      EXPECT_EQ(resumed_metrics.flit_delay_us.mean(),
                ref_metrics.flit_delay_us.mean());
      EXPECT_EQ(resumed_metrics.degradation.flits_dropped,
                ref_metrics.degradation.flits_dropped);
      EXPECT_EQ(resumed.state_hash(), ref_hash)
          << tag << " threads=" << threads;
    }
    for (const std::string& path : paths) std::remove(path.c_str());
  }
}

// --- snapshot layout pins ----------------------------------------------------
//
// The walk of the per-VC buffers (VCM rings, NIC queues) is the checkpoint
// byte layout: per VC a count, then the flits in FIFO order.  These hashes
// were recorded from the deque-backed buffers, so any change to what the
// walk emits — or to the simulated behaviour — moves them.

// The paper's 4x4 CBR mix of the engine golden (cbr4, COA), past many ring
// wrap-arounds of the 2-flit VC buffers.
SimConfig cbr4_config() {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 128;
  config.arbiter = "coa";
  config.seed = 11;
  config.warmup_cycles = 1'000;
  config.measure_cycles = 8'000;
  return config;
}

Workload cbr4_workload(const SimConfig& config) {
  Rng rng(config.seed, 1);
  CbrMixSpec mix;
  mix.target_load = 0.70;
  mix.destinations = DestinationPolicy::kBalanced;
  return build_cbr_mix(config, mix, rng);
}

// A 3x3 torus whose rogue sources inject far above the link rate, so the
// NICs hold a standing backlog behind exhausted credits.
SimConfig rogue_torus_config() {
  SimConfig config;
  config.ports = 5;
  config.vcs_per_link = 32;
  config.warmup_cycles = 500;
  config.measure_cycles = 2'500;
  config.rogue_spec = "frac:0.25,scale:6";
  return config;
}

Workload rogue_torus_workload(const SimConfig& config) {
  const NetworkTopology torus = NetworkTopology::torus2d(3, 3, config.ports);
  Rng rng(config.seed, 7);
  CbrMixSpec mix;
  mix.target_load = 0.35;
  mix.classes = {kCbrHigh, kCbrMedium};
  mix.class_weights = {3.0, 1.0};
  Workload workload(torus);
  add_cbr_mix(workload, config, mix, rng);
  return workload;
}

TEST(SnapshotLayout, PinnedStateHashes) {
  {
    const SimConfig config = cbr4_config();
    MmrSimulation sim(config, cbr4_workload(config));
    while (sim.now() < 3'000) sim.step_one();
    EXPECT_EQ(sim.state_hash(), 0x6f3781e61a19cf8dull);
  }
  {
    const SimConfig config = rogue_torus_config();
    MmrSimulation sim(config, rogue_torus_workload(config));
    while (sim.now() < 2'000) sim.step_one();
    EXPECT_EQ(sim.state_hash(), 0xf8dac4fd7a905de6ull);
  }
}

// Save where NIC queues hold a backlog and the input buffers' slot pools
// have churned, restore into a freshly constructed simulation — whose
// buffers lay the FIFOs out key by key from slot 0 — and the two runs stay
// bit-identical to the end.
TEST(SnapshotLayout, ResumeWithNicBacklogAndWrappedRings) {
  const std::string path = ::testing::TempDir() + "/mmr_snap_layout.snap";
  const SimConfig config = rogue_torus_config();
  // Heads away from the slot a restore would give them.
  const auto ring_heads = [&config](const MmrSimulation& sim) {
    std::uint64_t off_fresh = 0;
    for (std::uint32_t r = 0; r < sim.topology().routers(); ++r) {
      for (std::uint32_t input = 0; input < config.ports; ++input) {
        const InputBuffer& buffer = sim.router(r).buffer(input);
        std::uint32_t fresh = 0;
        for (std::uint32_t key = 0; key < buffer.keys(); ++key) {
          if (buffer.empty(key)) continue;
          if (buffer.head_index(key) != fresh) ++off_fresh;
          fresh += buffer.occupancy(key);
        }
      }
    }
    return off_fresh;
  };

  MmrSimulation a(config, rogue_torus_workload(config));
  while (a.now() < 2'000) a.step_one();
  std::uint64_t in_routers = 0;
  for (std::uint32_t r = 0; r < a.topology().routers(); ++r)
    in_routers += a.router(r).flits_buffered();
  // The rest of the backlog is on links (a flit or two per link) and in
  // the NICs; the rogue overload keeps hundreds of flits in the NICs.
  EXPECT_GT(a.backlog(), in_routers + 500);
  EXPECT_GT(ring_heads(a), 0u);
  a.save_checkpoint(path);

  MmrSimulation b(config, rogue_torus_workload(config));
  b.restore_checkpoint(path);
  EXPECT_EQ(ring_heads(b), 0u);
  EXPECT_EQ(b.now(), a.now());
  EXPECT_EQ(b.state_hash(), a.state_hash());
  for (int i = 0; i < 300; ++i) {
    a.step_one();
    b.step_one();
    ASSERT_EQ(b.state_hash(), a.state_hash()) << "diverged at cycle " << i;
  }
  const SimulationMetrics a_metrics = a.run();
  const SimulationMetrics b_metrics = b.run();
  expect_same_metrics(a_metrics, b_metrics, "rogue torus resume");
  EXPECT_EQ(b.state_hash(), a.state_hash());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mmr

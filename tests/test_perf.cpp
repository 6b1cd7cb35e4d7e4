// Perf-probe layer: accumulation, thread-local arming, JSON schema, and —
// the property everything else rests on — that arming probes never perturbs
// simulation results.

#include "mmr/perf/probe.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

#include "mmr/core/simulation.hpp"
#include "mmr/perf/report.hpp"

namespace mmr {
namespace {

using perf::Counter;
using perf::PerfProbe;
using perf::Phase;
using perf::ProbeScope;

TEST(PerfProbe, AccumulatesTimeCallsAndCounters) {
  PerfProbe probe;
  probe.add_time(Phase::kArbitration, 100);
  probe.add_time(Phase::kArbitration, 50);
  probe.add_time(Phase::kCrossbar, 25);
  probe.add_count(Counter::kMatchingAlloc);
  probe.add_count(Counter::kScratchRealloc, 3);
  probe.add_run(1'000, 500);

  EXPECT_EQ(probe.phase_ns(Phase::kArbitration), 150u);
  EXPECT_EQ(probe.phase_calls(Phase::kArbitration), 2u);
  EXPECT_EQ(probe.phase_ns(Phase::kCrossbar), 25u);
  EXPECT_EQ(probe.phase_ns(Phase::kTraffic), 0u);
  EXPECT_EQ(probe.count(Counter::kMatchingAlloc), 1u);
  EXPECT_EQ(probe.count(Counter::kScratchRealloc), 3u);
  EXPECT_EQ(probe.attributed_ns(), 175u);
  EXPECT_EQ(probe.simulated_cycles(), 1'000u);
  EXPECT_DOUBLE_EQ(probe.cycles_per_second(), 1'000.0 / 500e-9);
  EXPECT_DOUBLE_EQ(probe.phase_share(Phase::kArbitration), 150.0 / 500.0);
}

TEST(PerfProbe, MergeAndResetComposeRuns) {
  PerfProbe a;
  a.add_time(Phase::kTraffic, 10);
  a.add_run(100, 40);
  PerfProbe b;
  b.add_time(Phase::kTraffic, 30);
  b.add_count(Counter::kCandidateRealloc);
  b.add_run(200, 60);

  a.merge(b);
  EXPECT_EQ(a.phase_ns(Phase::kTraffic), 40u);
  EXPECT_EQ(a.phase_calls(Phase::kTraffic), 2u);
  EXPECT_EQ(a.count(Counter::kCandidateRealloc), 1u);
  EXPECT_EQ(a.simulated_cycles(), 300u);
  EXPECT_EQ(a.run_wall_ns(), 100u);

  a.reset();
  EXPECT_EQ(a.phase_ns(Phase::kTraffic), 0u);
  EXPECT_EQ(a.attributed_ns(), 0u);
  EXPECT_EQ(a.simulated_cycles(), 0u);
  EXPECT_DOUBLE_EQ(a.cycles_per_second(), 0.0);
  EXPECT_DOUBLE_EQ(a.phase_share(Phase::kTraffic), 0.0);
}

TEST(PerfProbe, ProbeScopeArmsPerThreadAndNests) {
  EXPECT_EQ(perf::current(), nullptr);
  PerfProbe outer;
  {
    ProbeScope arm_outer(&outer);
    EXPECT_EQ(perf::current(), &outer);
    PerfProbe inner;
    {
      ProbeScope arm_inner(&inner);
      EXPECT_EQ(perf::current(), &inner);
      ProbeScope disarm(nullptr);
      EXPECT_EQ(perf::current(), nullptr);
    }
    EXPECT_EQ(perf::current(), &outer);

    // Arming is thread-local: a different thread stays unarmed.
    PerfProbe* seen = &outer;
    std::thread([&seen] { seen = perf::current(); }).join();
    EXPECT_EQ(seen, nullptr);
  }
  EXPECT_EQ(perf::current(), nullptr);
}

TEST(PerfProbe, ScopedTimerChargesArmedProbeOnly) {
  PerfProbe probe;
  {
    ProbeScope arm(&probe);
    MMR_PERF_SCOPE(Phase::kOther);
  }
  MMR_PERF_SCOPE(Phase::kOther);  // unarmed: must be a no-op
  MMR_PERF_COUNT(Counter::kMatchingAlloc, 1);
  EXPECT_EQ(probe.phase_calls(Phase::kOther), 1u);
  EXPECT_EQ(probe.count(Counter::kMatchingAlloc), 0u);
}

TEST(PerfReport, JsonCarriesSchemaRecordsAndPhases) {
  perf::PerfRecord record;
  record.label = "sim-cbr/coa/p4";
  record.kind = "sim-cbr";
  record.arbiter = "coa";
  record.ports = 4;
  record.probe.add_time(Phase::kArbitration, 1'000'000);
  record.probe.add_run(50'000, 2'000'000);
  record.probe.add_count(Counter::kScratchRealloc, 2);

  perf::PerfReportMeta meta;
  meta.mode = "quick";
  meta.threads = 3;
  std::ostringstream out;
  perf::write_perf_json(out, meta, {record});
  const std::string json = out.str();

  EXPECT_NE(json.find("\"schema\": \"mmr-perf-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"quick\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"sim-cbr/coa/p4\""), std::string::npos);
  EXPECT_NE(json.find("\"arbiter\": \"coa\""), std::string::npos);
  EXPECT_NE(json.find("\"simulated_cycles\": 50000"), std::string::npos);
  EXPECT_NE(json.find("\"arbitration\""), std::string::npos);
  EXPECT_NE(json.find("\"scratch_realloc\": 2"), std::string::npos);

  const std::string summary = perf::render_phase_summary(record);
  EXPECT_NE(summary.find("arbitration"), std::string::npos);
}

SimConfig golden_config(const std::string& arbiter) {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 2'000;
  config.measure_cycles = 10'000;
  config.arbiter = arbiter;
  return config;
}

SimulationMetrics run_golden(const std::string& arbiter, PerfProbe* probe) {
  const SimConfig config = golden_config(arbiter);
  Rng rng(config.seed, 1);
  CbrMixSpec spec;
  spec.target_load = 0.6;
  spec.classes = {kCbrHigh, kCbrMedium};
  spec.class_weights = {3.0, 1.0};
  MmrSimulation simulation(config, build_cbr_mix(config, spec, rng));
  ProbeScope arm(probe);
  return simulation.run();
}

// The determinism proof: arming a probe must not perturb the simulation in
// any way — golden-seed metrics are bit-identical with probes on and off.
TEST(PerfProbe, ArmedProbeLeavesMetricsBitIdentical) {
  for (const std::string arbiter : {"coa", "wfa-fixed", "islip"}) {
    const SimulationMetrics off = run_golden(arbiter, nullptr);
    PerfProbe probe;
    const SimulationMetrics on = run_golden(arbiter, &probe);

    EXPECT_EQ(off.flits_generated, on.flits_generated);
    EXPECT_EQ(off.flits_delivered, on.flits_delivered);
    EXPECT_EQ(off.flit_delay_us.mean(), on.flit_delay_us.mean());
    EXPECT_EQ(off.flit_delay_us.max(), on.flit_delay_us.max());
    EXPECT_EQ(off.delivered_load, on.delivered_load);
    EXPECT_EQ(off.crossbar_utilization, on.crossbar_utilization);

    // The armed run must actually have measured the hot phases.
    EXPECT_GT(probe.phase_calls(Phase::kArbitration), 0u);
    EXPECT_GT(probe.phase_calls(Phase::kTraffic), 0u);
    EXPECT_GT(probe.attributed_ns(), 0u);
  }
}

}  // namespace
}  // namespace mmr

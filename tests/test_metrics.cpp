#include "mmr/core/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mmr/core/simulation.hpp"

namespace mmr {
namespace {

ConnectionDescriptor descriptor(TrafficClass cls, double bps) {
  ConnectionDescriptor c;
  c.traffic_class = cls;
  c.mean_bandwidth_bps = bps;
  c.peak_bandwidth_bps = bps;
  return c;
}

TEST(ClassLabel, NamesThePaperClasses) {
  EXPECT_EQ(class_label(descriptor(TrafficClass::kCbr, 64e3)),
            "CBR 64 Kbps");
  EXPECT_EQ(class_label(descriptor(TrafficClass::kCbr, 1.54e6)),
            "CBR 1.54 Mbps");
  EXPECT_EQ(class_label(descriptor(TrafficClass::kCbr, 55e6)),
            "CBR 55 Mbps");
  EXPECT_EQ(class_label(descriptor(TrafficClass::kVbr, 12e6)), "VBR");
  EXPECT_EQ(class_label(descriptor(TrafficClass::kBestEffort, 1e6)), "BE");
}

TEST(ClassLabel, FormatsUnknownCbrRates) {
  EXPECT_EQ(class_label(descriptor(TrafficClass::kCbr, 10e6)),
            "CBR 10 Mbps");
}

TEST(SimulationMetrics, FindClass) {
  SimulationMetrics m;
  ClassMetrics cls;
  cls.label = "VBR";
  m.per_class.push_back(cls);
  EXPECT_NE(m.find_class("VBR"), nullptr);
  EXPECT_EQ(m.find_class("BE"), nullptr);
}

TEST(SimulationMetrics, SaturationHeuristics) {
  SimulationMetrics m;
  m.flit_cycle_us = 1.7067;
  m.generated_load_measured = 0.80;
  m.delivered_load = 0.80;
  EXPECT_FALSE(m.saturated());
  m.delivered_load = 0.75;  // measurable deficit
  EXPECT_TRUE(m.saturated());
  m.delivered_load = 0.7999;  // within tolerance
  EXPECT_FALSE(m.saturated());
  // Exploded delays also count as saturation.
  m.flit_delay_us = DelayStats(m.flit_cycle_us);
  for (int i = 0; i < 10; ++i) m.flit_delay_us.add(6'000);
  EXPECT_TRUE(m.saturated());
}

TEST(MergeRuns, SingleRunIsIdentity) {
  SimulationMetrics run;
  run.arbiter = "coa";
  run.delivered_load = 0.5;
  run.flits_delivered = 100;
  const SimulationMetrics merged = merge_runs({run});
  EXPECT_EQ(merged.merged_runs, 1u);
  EXPECT_DOUBLE_EQ(merged.delivered_load, 0.5);
}

TEST(MergeRuns, AveragesRatiosAndPoolsSamples) {
  SimulationMetrics a;
  a.arbiter = "coa";
  a.delivered_load = 0.4;
  a.crossbar_utilization = 0.4;
  a.flits_delivered = 10;
  a.flit_delay_us.add(10);
  ClassMetrics cls_a;
  cls_a.label = "VBR";
  cls_a.flits_delivered = 10;
  cls_a.flit_delay_us.add(10);
  a.per_class.push_back(cls_a);

  SimulationMetrics b = a;
  b.delivered_load = 0.6;
  b.crossbar_utilization = 0.6;
  b.flit_delay_us = DelayStats();
  b.flit_delay_us.add(30);
  b.per_class[0].flit_delay_us = DelayStats();
  b.per_class[0].flit_delay_us.add(30);

  const SimulationMetrics merged = merge_runs({a, b});
  EXPECT_EQ(merged.merged_runs, 2u);
  EXPECT_DOUBLE_EQ(merged.delivered_load, 0.5);
  EXPECT_DOUBLE_EQ(merged.crossbar_utilization, 0.5);
  EXPECT_EQ(merged.flits_delivered, 20u);
  EXPECT_DOUBLE_EQ(merged.flit_delay_us.mean(), 20.0);
  ASSERT_EQ(merged.per_class.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.per_class[0].flit_delay_us.mean(), 20.0);
  EXPECT_EQ(merged.per_class[0].flits_delivered, 20u);
}

SimulationMetrics vbr_run(std::uint64_t seed) {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 2'000;
  config.measure_cycles = 60'000;  // ~3 frame periods: jitter samples
  config.seed = seed;
  Rng rng(seed, 9);
  VbrMixSpec spec;
  spec.target_load = 0.5;
  spec.trace_gops = 2;
  MmrSimulation simulation(config, build_vbr_mix(config, spec, rng));
  return simulation.run();
}

// Every pooled field is exact, so merging the same runs in the other order
// gives the same bits.
TEST(MergeRuns, OrderDoesNotChangeABit) {
  const SimulationMetrics a = vbr_run(1);
  const SimulationMetrics b = vbr_run(2);
  ASSERT_GT(a.frame_jitter_us.count(), 0u);
  ASSERT_NE(a.flit_delay_us, b.flit_delay_us);
  const SimulationMetrics ab = merge_runs({a, b});
  const SimulationMetrics ba = merge_runs({b, a});

  EXPECT_TRUE(ab == ba);

  // Pooled, not averaged: the merge holds every sample of both runs.
  EXPECT_EQ(ab.flit_delay_us.count(),
            a.flit_delay_us.count() + b.flit_delay_us.count());
  EXPECT_EQ(ab.frame_jitter_us.count(),
            a.frame_jitter_us.count() + b.frame_jitter_us.count());
}

SimulationMetrics faulty_ring_run(std::uint64_t seed) {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 1'000;
  config.measure_cycles = 8'000;
  config.seed = seed;
  config.fault_spec = "drop:0.01,resync_period:256,resync_timeout:512";
  Rng rng(seed, 3);
  CbrMixSpec mix;
  mix.target_load = 0.3;
  Workload workload(NetworkTopology::bidirectional_ring(3, config.ports));
  add_cbr_mix(workload, config, mix, rng);
  MmrSimulation simulation(config, std::move(workload));
  return simulation.run();
}

// Fault counters and per-router utilization pool across runs like every
// other field, in either order.
TEST(MergeRuns, PoolsDegradationAndRouterUtilization) {
  const SimulationMetrics a = faulty_ring_run(1);
  const SimulationMetrics b = faulty_ring_run(2);
  ASSERT_GT(a.degradation.flits_dropped, 0u);
  ASSERT_GT(b.degradation.credits_restored, 0u);
  ASSERT_EQ(a.router_utilization.size(), 3u);
  ASSERT_NE(a.router_utilization, b.router_utilization);
  const SimulationMetrics ab = merge_runs({a, b});
  const SimulationMetrics ba = merge_runs({b, a});

  const auto sum = [&](auto field) {
    return a.degradation.*field + b.degradation.*field;
  };
  for (const SimulationMetrics* m : {&ab, &ba}) {
    const DegradationMetrics& d = m->degradation;
    EXPECT_TRUE(d.enabled);
    EXPECT_EQ(d.flits_dropped, sum(&DegradationMetrics::flits_dropped));
    EXPECT_EQ(d.flits_corrupted, sum(&DegradationMetrics::flits_corrupted));
    EXPECT_EQ(d.credits_lost, sum(&DegradationMetrics::credits_lost));
    EXPECT_EQ(d.credits_restored, sum(&DegradationMetrics::credits_restored));
    EXPECT_EQ(d.resync_events, sum(&DegradationMetrics::resync_events));
    EXPECT_EQ(d.delivered_outside_fault,
              sum(&DegradationMetrics::delivered_outside_fault));
    EXPECT_EQ(d.recovery_latency_us.count(),
              a.degradation.recovery_latency_us.count() +
                  b.degradation.recovery_latency_us.count());
    ASSERT_EQ(m->router_utilization.size(), 3u);
    for (std::size_t r = 0; r < 3; ++r)
      EXPECT_DOUBLE_EQ(m->router_utilization[r],
                       (a.router_utilization[r] + b.router_utilization[r]) /
                           2.0);
  }
  EXPECT_EQ(ab.degradation.flits_flushed, ba.degradation.flits_flushed);
  EXPECT_EQ(ab.degradation.teardowns, ba.degradation.teardowns);
  EXPECT_EQ(ab.degradation.qos_violations_outside_fault,
            ba.degradation.qos_violations_outside_fault);
  EXPECT_EQ(ab.degradation.recovery_latency_us,
            ba.degradation.recovery_latency_us);
  EXPECT_EQ(ab.router_utilization, ba.router_utilization);
}

// Averaged ratios are summed once in one canonical order and classes are
// listed by label, so three runs merged in any of their six orders give
// the same record, bit for bit.
TEST(MergeRuns, EveryOrderOfThreeRunsGivesTheSameRecord) {
  const std::vector<SimulationMetrics> runs = {
      faulty_ring_run(1), faulty_ring_run(2), faulty_ring_run(3)};
  ASSERT_NE(runs[0].delivered_load, runs[1].delivered_load);
  const SimulationMetrics reference = merge_runs(runs);
  EXPECT_EQ(reference.merged_runs, 3u);
  std::vector<std::size_t> order = {0, 1, 2};
  while (std::next_permutation(order.begin(), order.end())) {
    const SimulationMetrics merged =
        merge_runs({runs[order[0]], runs[order[1]], runs[order[2]]});
    EXPECT_TRUE(merged == reference)
        << "order " << order[0] << order[1] << order[2];
  }
}

TEST(MergeRuns, UnionsDistinctClasses) {
  SimulationMetrics a;
  a.arbiter = "wfa";
  ClassMetrics cls_a;
  cls_a.label = "CBR 55 Mbps";
  a.per_class.push_back(cls_a);
  SimulationMetrics b;
  b.arbiter = "wfa";
  ClassMetrics cls_b;
  cls_b.label = "VBR";
  b.per_class.push_back(cls_b);
  const SimulationMetrics merged = merge_runs({a, b});
  EXPECT_EQ(merged.per_class.size(), 2u);
}

TEST(MergeRuns, ThreeWayAverageIsUniform) {
  std::vector<SimulationMetrics> runs(3);
  for (std::size_t i = 0; i < 3; ++i) {
    runs[i].arbiter = "coa";
    runs[i].delivered_load = 0.3 * static_cast<double>(i + 1);
  }
  const SimulationMetrics merged = merge_runs(runs);
  EXPECT_NEAR(merged.delivered_load, 0.6, 1e-12);
  EXPECT_EQ(merged.merged_runs, 3u);
}

TEST(MergeRunsDeath, RejectsMixedArbiters) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SimulationMetrics a;
  a.arbiter = "coa";
  SimulationMetrics b;
  b.arbiter = "wfa";
  EXPECT_DEATH((void)merge_runs({a, b}), "same arbiter");
}

}  // namespace
}  // namespace mmr

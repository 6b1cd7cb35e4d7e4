#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "mmr/core/experiment.hpp"
#include "mmr/core/report.hpp"

namespace mmr {
namespace {

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.base.ports = 4;
  spec.base.vcs_per_link = 48;
  spec.base.warmup_cycles = 1'000;
  spec.base.measure_cycles = 8'000;
  spec.loads = {0.3, 0.6};
  spec.arbiters = {"coa", "wfa"};
  spec.kind = WorkloadKind::kCbr;
  spec.cbr.classes = {kCbrHigh};
  spec.cbr.class_weights = {1.0};
  spec.threads = 2;
  return spec;
}

TEST(Sweep, PointOrderIsArbiterMajorLoadAscending) {
  const SweepSpec spec = tiny_spec();
  const std::vector<SweepPoint> points = run_sweep(spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].arbiter, "coa");
  EXPECT_DOUBLE_EQ(points[0].target_load, 0.3);
  EXPECT_EQ(points[1].arbiter, "coa");
  EXPECT_DOUBLE_EQ(points[1].target_load, 0.6);
  EXPECT_EQ(points[2].arbiter, "wfa");
  EXPECT_EQ(points[3].arbiter, "wfa");
  for (const SweepPoint& point : points) {
    EXPECT_EQ(point.metrics.arbiter, point.arbiter);
    EXPECT_GT(point.metrics.flits_delivered, 0u);
  }
}

TEST(Sweep, SameWorkloadAcrossArbiters) {
  const SweepSpec spec = tiny_spec();
  const Workload a = build_sweep_workload(spec, 0);
  const Workload b = build_sweep_workload(spec, 0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto id = static_cast<ConnectionId>(i);
    EXPECT_EQ(a.table.get(id).output_link, b.table.get(id).output_link);
    EXPECT_EQ(a.table.get(id).mean_bandwidth_bps,
              b.table.get(id).mean_bandwidth_bps);
  }
}

TEST(Sweep, ReplicationsChangeTheWorkload) {
  const SweepSpec spec = tiny_spec();
  const Workload rep0 = build_sweep_workload(spec, 0, 0);
  const Workload rep1 = build_sweep_workload(spec, 0, 1);
  bool any_difference = rep0.size() != rep1.size();
  const std::size_t common = std::min(rep0.size(), rep1.size());
  for (std::size_t i = 0; i < common && !any_difference; ++i) {
    const auto id = static_cast<ConnectionId>(i);
    any_difference |=
        rep0.table.get(id).output_link != rep1.table.get(id).output_link;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Sweep, ReplicatedPointsMergeRuns) {
  SweepSpec spec = tiny_spec();
  spec.loads = {0.4};
  spec.arbiters = {"coa"};
  spec.replications = 3;
  const std::vector<SweepPoint> points = run_sweep(spec);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].metrics.merged_runs, 3u);
}

TEST(Sweep, ResultsIndependentOfThreadCount) {
  SweepSpec spec = tiny_spec();
  spec.threads = 1;
  const std::vector<SweepPoint> serial = run_sweep(spec);
  spec.threads = 4;
  const std::vector<SweepPoint> parallel = run_sweep(spec);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].metrics.flits_delivered,
              parallel[i].metrics.flits_delivered);
    EXPECT_DOUBLE_EQ(serial[i].metrics.flit_delay_us.mean(),
                     parallel[i].metrics.flit_delay_us.mean());
  }
}

// Bit-identical SweepPoint metrics between a single worker and full
// hardware concurrency, for both workload kinds.  EXPECT_EQ on the doubles
// (not EXPECT_DOUBLE_EQ / near) is deliberate: determinism here means the
// same bits, not approximately the same value.
void expect_thread_count_invariance(SweepSpec spec) {
  spec.threads = 1;
  const std::vector<SweepPoint> serial = run_sweep(spec);
  spec.threads = 0;  // 0 = hardware concurrency
  const std::vector<SweepPoint> parallel = run_sweep(spec);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const SimulationMetrics& a = serial[i].metrics;
    const SimulationMetrics& b = parallel[i].metrics;
    EXPECT_EQ(serial[i].arbiter, parallel[i].arbiter);
    EXPECT_EQ(a.flits_generated, b.flits_generated);
    EXPECT_EQ(a.flits_delivered, b.flits_delivered);
    EXPECT_EQ(a.flit_delay_us.mean(), b.flit_delay_us.mean());
    EXPECT_EQ(a.flit_delay_us.max(), b.flit_delay_us.max());
    EXPECT_EQ(a.delivered_load, b.delivered_load);
    EXPECT_EQ(a.crossbar_utilization, b.crossbar_utilization);
  }
}

TEST(Sweep, CbrMetricsBitIdenticalAcrossThreadCounts) {
  SweepSpec spec = tiny_spec();
  spec.replications = 2;
  expect_thread_count_invariance(spec);
}

TEST(Sweep, VbrMetricsBitIdenticalAcrossThreadCounts) {
  SweepSpec spec = tiny_spec();
  spec.kind = WorkloadKind::kVbr;
  spec.replications = 2;
  expect_thread_count_invariance(spec);
}

TEST(Sweep, ValidateRejectsDuplicateLoads) {
  SweepSpec spec = tiny_spec();
  spec.loads = {0.3, 0.6, 0.6, 0.9};
  try {
    (void)run_sweep(spec);
    FAIL() << "duplicate load must throw";
  } catch (const std::invalid_argument& e) {
    // The message must name the offending entry.
    EXPECT_NE(std::string(e.what()).find("loads[2]"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicates"), std::string::npos)
        << e.what();
  }
}

TEST(Sweep, ValidateRejectsNonAscendingLoads) {
  SweepSpec spec = tiny_spec();
  spec.loads = {0.6, 0.3};
  try {
    (void)run_sweep(spec);
    FAIL() << "descending loads must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("loads[1]"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("ascending"), std::string::npos)
        << e.what();
  }
}

// run_sweep validates every run's config on its one router, fault windows
// included, and throws in the caller before any point runs.
TEST(Sweep, RejectsAConfigItsRouterCannotRun) {
  SweepSpec spec = tiny_spec();
  spec.base.fault_spec = "down:0:10:20";  // one router has no channels
  try {
    (void)run_sweep(spec);
    FAIL() << "a fault window off the router must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown channel 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(Sweep, ValidateRejectsOutOfRangeAndEmptyLoads) {
  SweepSpec spec = tiny_spec();
  spec.loads = {};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.loads = {0.0};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.loads = {-0.5};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.loads = {2.5};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.loads = {0.3, 0.6};
  EXPECT_NO_THROW(spec.validate());
}

TEST(SaturationLoad, DetectsFirstSaturatedPoint) {
  std::vector<SweepPoint> points(3);
  for (std::size_t i = 0; i < 3; ++i) {
    points[i].arbiter = "coa";
    points[i].target_load = 0.5 + 0.1 * static_cast<double>(i);
    points[i].metrics.arbiter = "coa";
    points[i].metrics.flit_cycle_us = 1.7;
    points[i].metrics.generated_load_measured = points[i].target_load;
    points[i].metrics.delivered_load = points[i].target_load;
  }
  EXPECT_TRUE(std::isnan(saturation_load(points, "coa")));
  points[2].metrics.delivered_load = 0.5;  // big deficit at load 0.7
  EXPECT_DOUBLE_EQ(saturation_load(points, "coa"), 0.7);
  EXPECT_TRUE(std::isnan(saturation_load(points, "wfa")));
}

TEST(Report, SweepTableShapesRowsByLoadAndColumnsByArbiter) {
  std::vector<SweepPoint> points(4);
  const char* arbiters[] = {"coa", "coa", "wfa", "wfa"};
  const double loads[] = {0.3, 0.6, 0.3, 0.6};
  for (std::size_t i = 0; i < 4; ++i) {
    points[i].arbiter = arbiters[i];
    points[i].target_load = loads[i];
    points[i].metrics.delivered_load = loads[i] - 0.01;
  }
  const AsciiTable table =
      sweep_table(points, delivered_load_pct(), /*precision=*/1);
  const std::string out = table.render();
  EXPECT_NE(out.find("coa"), std::string::npos);
  EXPECT_NE(out.find("wfa"), std::string::npos);
  EXPECT_NE(out.find("30"), std::string::npos);
  EXPECT_NE(out.find("59.0"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);  // two loads
}

TEST(Report, MissingPointsRenderAsDash) {
  std::vector<SweepPoint> points(3);
  points[0] = {0.3, "coa", {}};
  points[1] = {0.6, "coa", {}};
  points[2] = {0.3, "wfa", {}};  // wfa @ 0.6 missing
  const AsciiTable table = sweep_table(points, delivered_load_pct());
  EXPECT_NE(table.render().find(" - "), std::string::npos);
}

TEST(Report, CsvContainsOneRowPerPoint) {
  std::vector<SweepPoint> points(2);
  points[0] = {0.3, "coa", {}};
  points[1] = {0.6, "coa", {}};
  std::ostringstream out;
  write_sweep_csv(out, points,
                  {{"delivered_pct", delivered_load_pct()},
                   {"util", crossbar_utilization_pct()}});
  std::istringstream in(out.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3u);  // header + 2 points
  EXPECT_EQ(out.str().substr(0, 28), "arbiter,target_load,delivere");
}

TEST(Report, ClassDelayExtractorHandlesMissingClass) {
  SimulationMetrics metrics;
  EXPECT_TRUE(std::isnan(class_delay_us("CBR 55 Mbps")(metrics)));
  ClassMetrics cls;
  cls.label = "CBR 55 Mbps";
  cls.flit_delay_us.add(12.0);
  metrics.per_class.push_back(cls);
  EXPECT_DOUBLE_EQ(class_delay_us("CBR 55 Mbps")(metrics), 12.0);
}

TEST(Report, FrameExtractorsHandleEmptyStats) {
  SimulationMetrics metrics;
  EXPECT_TRUE(std::isnan(frame_delay_us()(metrics)));
  EXPECT_TRUE(std::isnan(frame_jitter_us()(metrics)));
  metrics.frame_delay_us.add(100.0);
  metrics.frame_jitter_us.add(4.0);
  EXPECT_DOUBLE_EQ(frame_delay_us()(metrics), 100.0);
  EXPECT_DOUBLE_EQ(frame_jitter_us()(metrics), 4.0);
}

TEST(Report, SaturationSummaryPrints) {
  std::vector<SweepPoint> points(1);
  points[0].arbiter = "coa";
  points[0].target_load = 0.8;
  points[0].metrics.arbiter = "coa";
  points[0].metrics.generated_load_measured = 0.8;
  points[0].metrics.delivered_load = 0.6;
  std::ostringstream out;
  print_saturation_summary(out, points, {"coa", "wfa"});
  EXPECT_NE(out.str().find("coa: 80%"), std::string::npos);
  EXPECT_NE(out.str().find("wfa: not reached"), std::string::npos);
}

}  // namespace
}  // namespace mmr

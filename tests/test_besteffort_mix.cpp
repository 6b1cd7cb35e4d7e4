#include <gtest/gtest.h>

#include <map>

#include "mmr/sim/config.hpp"
#include "mmr/traffic/besteffort.hpp"
#include "mmr/traffic/mix.hpp"

namespace mmr {
namespace {

TimeBase tb() { return TimeBase(2.4e9, 4096, 16); }

TEST(BestEffortSource, LongRunRateMatchesMean) {
  BestEffortSource source(0, 100e6, 8.0, tb(), Rng(71, 0));
  std::vector<Flit> flits;
  const Cycle window = 500'000;
  source.generate(window, flits);
  const double measured_bps = static_cast<double>(flits.size()) * 4096.0 /
                              tb().cycles_to_seconds(window);
  EXPECT_NEAR(measured_bps / 100e6, 1.0, 0.1);
}

TEST(BestEffortSource, MessageLengthsAreGeometricWithMean) {
  BestEffortSource source(0, 50e6, 6.0, tb(), Rng(72, 0));
  std::vector<Flit> flits;
  source.generate(2'000'000, flits);
  std::map<std::uint32_t, std::uint32_t> lengths;
  for (const Flit& flit : flits) ++lengths[flit.frame];
  ASSERT_GT(lengths.size(), 100u);
  double sum = 0.0;
  for (const auto& [message, length] : lengths) {
    EXPECT_GE(length, 1u);
    sum += length;
  }
  EXPECT_NEAR(sum / static_cast<double>(lengths.size()), 6.0, 0.5);
}

TEST(BestEffortSource, MessagesShareArrivalTimestamp) {
  BestEffortSource source(0, 50e6, 8.0, tb(), Rng(73, 0));
  std::vector<Flit> flits;
  source.generate(500'000, flits);
  std::uint32_t last_marks = 0;
  for (std::size_t i = 1; i < flits.size(); ++i) {
    if (flits[i].frame == flits[i - 1].frame) {
      EXPECT_EQ(flits[i].generated_at, flits[i - 1].generated_at);
    }
    if (flits[i].last_of_frame) ++last_marks;
  }
  EXPECT_GT(last_marks, 0u);
}

TEST(CbrMix, HitsTargetLoadPerLink) {
  SimConfig config;
  Rng rng(74, 0);
  CbrMixSpec spec;
  spec.target_load = 0.7;
  const Workload workload = build_cbr_mix(config, spec, rng);
  for (std::uint32_t link = 0; link < config.ports; ++link) {
    const double load =
        workload.generated_load_on_input(link, config.time_base());
    EXPECT_GT(load, 0.67) << link;
    EXPECT_LE(load, 0.7 + 1e-9) << link;
  }
  EXPECT_NEAR(workload.generated_load(config.time_base()), 0.7, 0.03);
}

TEST(CbrMix, ContainsAllThreeClasses) {
  SimConfig config;
  Rng rng(75, 0);
  CbrMixSpec spec;
  spec.target_load = 0.6;
  const Workload workload = build_cbr_mix(config, spec, rng);
  std::map<double, int> by_rate;
  for (const ConnectionDescriptor& c : workload.table.all()) {
    EXPECT_EQ(c.traffic_class, TrafficClass::kCbr);
    ++by_rate[c.mean_bandwidth_bps];
  }
  EXPECT_GT(by_rate[64e3], 0);
  EXPECT_GT(by_rate[1.54e6], 0);
  EXPECT_GT(by_rate[55e6], 0);
}

TEST(CbrMix, SlotsAreFilledEvenWithoutAdmission) {
  SimConfig config;
  Rng rng(76, 0);
  CbrMixSpec spec;
  spec.target_load = 0.5;
  spec.enforce_admission = false;
  const Workload workload = build_cbr_mix(config, spec, rng);
  for (const ConnectionDescriptor& c : workload.table.all()) {
    EXPECT_GE(c.slots_per_round, 1u);
  }
}

TEST(CbrMix, DeterministicForSameRngStream) {
  SimConfig config;
  CbrMixSpec spec;
  spec.target_load = 0.55;
  Rng rng_a(77, 3);
  Rng rng_b(77, 3);
  const Workload a = build_cbr_mix(config, spec, rng_a);
  const Workload b = build_cbr_mix(config, spec, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.table.get(static_cast<ConnectionId>(i)).output_link,
              b.table.get(static_cast<ConnectionId>(i)).output_link);
    EXPECT_EQ(a.table.get(static_cast<ConnectionId>(i)).mean_bandwidth_bps,
              b.table.get(static_cast<ConnectionId>(i)).mean_bandwidth_bps);
  }
}

TEST(CbrMix, LowerLoadIsPrefixOfHigherLoad) {
  // Common-random-numbers property the sweeps rely on.
  SimConfig config;
  CbrMixSpec low_spec;
  low_spec.target_load = 0.4;
  CbrMixSpec high_spec;
  high_spec.target_load = 0.8;
  Rng rng_a(78, 5);
  Rng rng_b(78, 5);
  const Workload low = build_cbr_mix(config, low_spec, rng_a);
  const Workload high = build_cbr_mix(config, high_spec, rng_b);
  ASSERT_GT(high.size(), low.size());
  for (std::uint32_t link = 0; link < config.ports; ++link) {
    const auto& low_ids = low.table.on_input_link(link);
    const auto& high_ids = high.table.on_input_link(link);
    ASSERT_GE(high_ids.size(), low_ids.size());
    // Destinations come from aligned draws for the whole shared prefix;
    // classes match until the low build's remaining budget forces it to
    // fall back to smaller classes (a suffix-only effect).
    bool class_diverged = false;
    for (std::size_t i = 0; i < low_ids.size(); ++i) {
      const ConnectionDescriptor& a = low.table.get(low_ids[i]);
      const ConnectionDescriptor& b = high.table.get(high_ids[i]);
      EXPECT_EQ(a.output_link, b.output_link) << "link " << link << " #" << i;
      if (a.mean_bandwidth_bps != b.mean_bandwidth_bps) {
        class_diverged = true;
        // Once diverged, the low build can only pick classes no larger
        // than the high build's draw (budget-constrained fallback).
        EXPECT_LE(a.mean_bandwidth_bps, b.mean_bandwidth_bps);
      } else {
        EXPECT_FALSE(class_diverged && a.mean_bandwidth_bps == kCbrHigh.bps)
            << "full-rate connection after the fallback region began";
      }
    }
  }
}

TEST(CbrMix, BalancedDestinationsEqualiseOutputLoads) {
  SimConfig config;
  Rng rng(79, 0);
  CbrMixSpec spec;
  spec.target_load = 0.8;
  spec.destinations = DestinationPolicy::kBalanced;
  const Workload workload = build_cbr_mix(config, spec, rng);
  std::vector<double> out_bps(config.ports, 0.0);
  for (const ConnectionDescriptor& c : workload.table.all()) {
    out_bps[c.output_link] += c.mean_bandwidth_bps;
  }
  const double total = 0.8 * 4 * 2.4e9;
  for (double bps : out_bps) {
    EXPECT_NEAR(bps / (total / 4), 1.0, 0.05);
  }
}

TEST(CbrMix, AdmissionEnforcementKeepsBudgets) {
  SimConfig config;
  Rng rng(80, 0);
  CbrMixSpec spec;
  spec.target_load = 1.0;  // admission must keep every link within a round
  spec.enforce_admission = true;
  const Workload workload = build_cbr_mix(config, spec, rng);
  std::vector<std::uint64_t> out_slots(config.ports, 0);
  for (const ConnectionDescriptor& c : workload.table.all()) {
    out_slots[c.output_link] += c.slots_per_round;
  }
  for (std::uint64_t slots : out_slots) {
    EXPECT_LE(slots, config.flit_cycles_per_round());
  }
}

TEST(VbrMix, HitsTargetLoadApproximately) {
  SimConfig config;
  Rng rng(81, 0);
  VbrMixSpec spec;
  spec.target_load = 0.6;
  spec.trace_gops = 2;
  const Workload workload = build_vbr_mix(config, spec, rng);
  EXPECT_NEAR(workload.generated_load(config.time_base()), 0.6, 0.05);
  for (const ConnectionDescriptor& c : workload.table.all()) {
    EXPECT_EQ(c.traffic_class, TrafficClass::kVbr);
    EXPECT_GT(c.peak_bandwidth_bps, c.mean_bandwidth_bps);
  }
}

TEST(VbrMix, TracesAreIndependentPerConnection) {
  SimConfig config;
  Rng rng(82, 0);
  VbrMixSpec spec;
  spec.target_load = 0.3;
  spec.trace_gops = 2;
  const Workload workload = build_vbr_mix(config, spec, rng);
  ASSERT_GE(workload.size(), 2u);
  const auto* a = dynamic_cast<const VbrSource*>(workload.sources[0].get());
  const auto* b = dynamic_cast<const VbrSource*>(workload.sources[1].get());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->trace().frame_bits, b->trace().frame_bits);
}

TEST(AddBestEffort, AppendsConnectionsOnEveryLink) {
  SimConfig config;
  Rng rng(83, 0);
  CbrMixSpec cbr_spec;
  cbr_spec.target_load = 0.3;
  Workload workload = build_cbr_mix(config, cbr_spec, rng);
  const std::size_t before = workload.size();
  BestEffortSpec be;
  be.load = 0.2;
  be.connections_per_link = 3;
  add_best_effort(workload, config, be, rng);
  EXPECT_EQ(workload.size(), before + 3 * config.ports);
  std::uint32_t be_count = 0;
  for (const ConnectionDescriptor& c : workload.table.all()) {
    if (c.traffic_class == TrafficClass::kBestEffort) {
      ++be_count;
      EXPECT_EQ(c.slots_per_round, 0u);
    }
  }
  EXPECT_EQ(be_count, 3 * config.ports);
}

TEST(Workload, CheckInvariantsPassesOnBuiltWorkloads) {
  SimConfig config;
  Rng rng(84, 0);
  CbrMixSpec spec;
  spec.target_load = 0.4;
  const Workload workload = build_cbr_mix(config, spec, rng);
  workload.check_invariants();
  SUCCEED();
}

}  // namespace
}  // namespace mmr

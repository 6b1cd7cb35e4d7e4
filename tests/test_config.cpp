#include "mmr/sim/config.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "mmr/core/simulation.hpp"
#include "spec_test_util.hpp"

namespace mmr {
namespace {

TEST(TimeBase, PaperConstants) {
  const TimeBase tb(2.4e9, 4096, 16);
  EXPECT_EQ(tb.phits_per_flit(), 256u);
  EXPECT_NEAR(tb.flit_cycle_us(), 1.70667, 1e-4);
  EXPECT_NEAR(tb.router_cycle_seconds(), 16.0 / 2.4e9, 1e-18);
}

TEST(TimeBase, RoundTripConversions) {
  const TimeBase tb(2.4e9, 4096, 16);
  const double cycles = 12345.0;
  EXPECT_NEAR(tb.seconds_to_cycles(tb.cycles_to_seconds(cycles)), cycles,
              1e-6);
  EXPECT_NEAR(tb.cycles_to_us(1.0), tb.flit_cycle_us(), 1e-12);
}

TEST(TimeBase, LoadFraction) {
  const TimeBase tb(2.4e9, 4096, 16);
  EXPECT_NEAR(tb.load_fraction(2.4e9), 1.0, 1e-12);
  EXPECT_NEAR(tb.load_fraction(55e6), 55.0 / 2400.0, 1e-12);
  EXPECT_NEAR(tb.flits_per_second(4096.0), 1.0, 1e-12);
}

TEST(SimConfig, DefaultsAreValid) {
  SimConfig config;
  config.validate();  // throws on violation
  EXPECT_EQ(config.flit_cycles_per_round(), 4u * 256u);
  EXPECT_EQ(config.total_cycles(), config.warmup_cycles + config.measure_cycles);
}

TEST(SimConfig, OverridesApply) {
  SimConfig config;
  apply_overrides(
      config, {"ports=8", "vcs=64", "arbiter=wfa", "priority=iabp",
               "link_bps=1.2e9", "buffer_flits=4", "levels=2", "seed=77",
               "warmup=100", "measure=200", "round_multiple=8",
               "concurrency_factor=2.5", "flit_bits=2048", "phit_bits=8",
               "link_latency=2", "credit_latency=3"});
  EXPECT_EQ(config.ports, 8u);
  EXPECT_EQ(config.vcs_per_link, 64u);
  EXPECT_EQ(config.arbiter, "wfa");
  EXPECT_EQ(config.priority_scheme, PriorityScheme::kIabp);
  EXPECT_DOUBLE_EQ(config.link_bandwidth_bps, 1.2e9);
  EXPECT_EQ(config.buffer_flits_per_vc, 4u);
  EXPECT_EQ(config.candidate_levels, 2u);
  EXPECT_EQ(config.seed, 77u);
  EXPECT_EQ(config.warmup_cycles, 100u);
  EXPECT_EQ(config.measure_cycles, 200u);
  EXPECT_EQ(config.round_multiple, 8u);
  EXPECT_DOUBLE_EQ(config.concurrency_factor, 2.5);
  EXPECT_EQ(config.flit_bits, 2048u);
  EXPECT_EQ(config.phit_bits, 8u);
  EXPECT_EQ(config.link_latency, 2u);
  EXPECT_EQ(config.credit_latency, 3u);
  config.validate();
}

TEST(SimConfig, UnknownKeyThrowsListingValidKeys) {
  SimConfig config;
  try {
    apply_overrides(config, {"bogus=1"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("bogus"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("arbiter"), std::string::npos);
  }
}

TEST(SimConfig, MalformedOverrideThrows) {
  SimConfig config;
  EXPECT_THROW(apply_overrides(config, {"ports"}), std::invalid_argument);
  EXPECT_THROW(apply_overrides(config, {"ports=abc"}), std::invalid_argument);
  EXPECT_THROW(apply_overrides(config, {"link_bps=xyz"}),
               std::invalid_argument);
}

// Regression: "link_bps=nan", "link_bps=inf" and negative rates used to
// parse cleanly and only blow up (or silently poison time conversions)
// deep inside a run.  They are rejected at parse time now.
TEST(SimConfig, RejectsNonFiniteAndNonPositiveRates) {
  SimConfig config;
  for (const char* bad :
       {"link_bps=nan", "link_bps=inf", "link_bps=-inf", "link_bps=-1e9",
        "link_bps=0"}) {
    EXPECT_THROW(apply_overrides(config, {bad}), std::invalid_argument)
        << bad;
  }
  for (const char* bad :
       {"concurrency_factor=nan", "concurrency_factor=inf",
        "concurrency_factor=0.5", "concurrency_factor=-2"}) {
    EXPECT_THROW(apply_overrides(config, {bad}), std::invalid_argument)
        << bad;
  }
  // The rejected overrides left the config untouched and valid.
  config.validate();
}

TEST(SimConfig, ValidateRejectsNonFiniteFields) {
  SimConfig config;
  config.link_bandwidth_bps = std::numeric_limits<double>::infinity();
  EXPECT_INVALID(config.validate(), "finite");
  config = SimConfig{};
  config.concurrency_factor = std::numeric_limits<double>::quiet_NaN();
  EXPECT_INVALID(config.validate(), "finite");
}

TEST(SimConfig, AuditOverrideEnablesTheAuditor) {
  SimConfig config;
  EXPECT_EQ(config.audit_every, 0u);
  apply_overrides(config, {"audit=256"});
  EXPECT_EQ(config.audit_every, 256u);
  config.validate();
}

TEST(SimConfig, NetThreadsOverrideParses) {
  SimConfig config;
  EXPECT_EQ(config.net_threads, 0u);  // unset: serial engine
  apply_overrides(config, {"net_threads=4"});
  EXPECT_EQ(config.net_threads, 4u);
  apply_overrides(config, {"net_threads=0"});
  EXPECT_EQ(config.net_threads, 0u);
  apply_overrides(config, {"net_threads=hw"});
  EXPECT_GE(config.net_threads, 1u);  // resolved at parse time
  config.validate();

  try {
    apply_overrides(config, {"net_threads=5000"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("out of range"),
              std::string::npos);
  }
  EXPECT_THROW(apply_overrides(config, {"net_threads=abc"}),
               std::invalid_argument);

  // The unknown-key listing advertises the knob.
  try {
    apply_overrides(config, {"bogus=1"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("net_threads"),
              std::string::npos);
  }
}

TEST(SimConfig, PrioritySchemeRoundTrips) {
  SimConfig config;
  for (PriorityScheme scheme :
       {PriorityScheme::kSiabp, PriorityScheme::kIabp,
        PriorityScheme::kFifoAge, PriorityScheme::kStatic}) {
    apply_overrides(config, {std::string("priority=") + to_string(scheme)});
    EXPECT_EQ(config.priority_scheme, scheme);
  }
  EXPECT_INVALID(apply_overrides(config, {"priority=nope"}),
                 "siabp|iabp|fifo-age|static");
}

TEST(SimConfig, ValidateRejectsNonsense) {
  SimConfig config;
  config.ports = 1;
  EXPECT_INVALID(config.validate(), "ports");
  config = SimConfig{};
  config.flit_bits = 100;  // not a multiple of phit_bits
  EXPECT_INVALID(config.validate(), "phit");
  config = SimConfig{};
  config.candidate_levels = 0;
  EXPECT_INVALID(config.validate(), "level");
  config = SimConfig{};
  config.candidate_levels = config.vcs_per_link + 1;
  EXPECT_INVALID(config.validate(), "levels");
  // One 64-bit word holds every level (link-scheduler selection buffer,
  // COA level masks): 65 levels fail validation, not a run mid-way.
  config = SimConfig{};
  config.vcs_per_link = 128;
  config.candidate_levels = 64;
  EXPECT_NO_THROW(config.validate());
  config.candidate_levels = 65;
  EXPECT_INVALID(config.validate(), "levels");
  config = SimConfig{};
  EXPECT_INVALID(apply_overrides(config, {"levels=65", "vcs=128"}), "levels");
  config = SimConfig{};
  config.concurrency_factor = 0.5;
  EXPECT_INVALID(config.validate(), "concurrency");
  config = SimConfig{};
  config.measure_cycles = 0;
  EXPECT_INVALID(config.validate(), "measure");
}

RunSpecs validate_single(const SimConfig& config) {
  return validate(config, NetworkTopology::single(config.ports));
}

// Input buffer pools are allocated up front: 2^24 slots per router at most.
// The bound is checked on the built config, where the flow regime is known.
TEST(Validate, BoundsTheBufferSlotsOfOneRouter) {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 1u << 20;
  config.buffer_flits_per_vc = 4;
  EXPECT_NO_THROW(validate_single(config));
  config.buffer_flits_per_vc = 5;
  EXPECT_NO_THROW(config.validate());
  EXPECT_INVALID(validate_single(config), "buffer slots of one router");
  config.round_multiple = 1;
  config.vcs_per_link = ~0u;  // the product must not wrap
  config.buffer_flits_per_vc = ~0u;
  EXPECT_INVALID(validate_single(config), "buffer slots of one router");
}

// A ring of routers that each fit the per-router bound can still exceed
// the bound on one run; the simulation refuses it before building anything.
TEST(Validate, BoundsTheBufferSlotsOfOneRun) {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 256;
  config.buffer_flits_per_vc = 4096;  // 4 x 256 x 4096 = 2^22 per router
  const NetworkTopology ring = NetworkTopology::bidirectional_ring(4, 4);
  EXPECT_NO_THROW(validate(config, ring));
  config.buffer_flits_per_vc = 4097;  // four routers: just over 2^24
  EXPECT_NO_THROW(validate_single(config));
  EXPECT_INVALID(validate(config, ring), "buffer slots of one run");
  EXPECT_INVALID((void)MmrSimulation(config, Workload(ring)),
                 "buffer slots of one run");
}

// The checks that need the topology: its routers' port count and its
// channels, which a fault= window must name.  A 4-router ring of 4-port
// routers has 8 channels; one router has none.
TEST(Validate, ChecksPortsAndFaultChannelsAgainstTheTopology) {
  SimConfig config;
  const NetworkTopology ring = NetworkTopology::bidirectional_ring(4, 4);
  EXPECT_INVALID(validate(config, NetworkTopology::single(5)),
                 "ports = 4, but the topology's routers have 5");
  EXPECT_INVALID((void)MmrSimulation(config, Workload(5)), "ports = 4");
  config.fault_spec = "down:7:10:20";
  EXPECT_NO_THROW(validate(config, ring));
  EXPECT_INVALID(validate_single(config), "unknown channel 7 (the topology "
                                          "has 0)");
  config.fault_spec = "down:8:10:20";
  EXPECT_INVALID(validate(config, ring), "unknown channel 8");
  EXPECT_INVALID((void)MmrSimulation(config, Workload(ring)),
                 "unknown channel 8");
}

// The arbiter name is looked up in the factory's table: a run validates
// without an arbiter being built, and a bad name is refused.
TEST(Validate, RejectsAnUnknownArbiter) {
  SimConfig config;
  config.arbiter = "wfa-fixed";
  EXPECT_NO_THROW(validate_single(config));
  config.arbiter = "bogus";
  EXPECT_INVALID(validate_single(config), "unknown arbiter 'bogus'");
}

}  // namespace
}  // namespace mmr

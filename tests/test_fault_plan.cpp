#include "mmr/fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "mmr/fault/fault_injector.hpp"
#include "spec_test_util.hpp"

namespace mmr {
namespace {

TEST(FaultPlan, DefaultConstructedIsEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.validate(4);  // an empty plan is always valid
}

TEST(FaultPlan, AnyRateOrWindowMakesItNonEmpty) {
  FaultPlan drops;
  drops.default_rates.drop_probability = 1e-3;
  EXPECT_FALSE(drops.empty());

  FaultPlan outage;
  outage.down_windows.push_back({0, 10, 20});
  EXPECT_FALSE(outage.empty());

  FaultPlan override_only;
  override_only.channel_rates.push_back({2, {0.0, 0.0, 1e-4}});
  EXPECT_FALSE(override_only.empty());

  // Knob changes alone (timeouts, seed) keep the plan a no-op.
  FaultPlan knobs;
  knobs.resync_timeout = 1;
  knobs.seed = 99;
  EXPECT_TRUE(knobs.empty());
}

TEST(FaultPlan, PerChannelOverridesWin) {
  FaultPlan plan;
  plan.default_rates.drop_probability = 0.5;
  plan.channel_rates.push_back({1, {0.0, 0.25, 0.0}});
  EXPECT_DOUBLE_EQ(plan.rates_for(0).drop_probability, 0.5);
  EXPECT_DOUBLE_EQ(plan.rates_for(1).drop_probability, 0.0);
  EXPECT_DOUBLE_EQ(plan.rates_for(1).corrupt_probability, 0.25);
}

TEST(FaultPlan, ParseRoundTripsEveryToken) {
  const FaultPlan plan = FaultPlan::parse(
      "drop:0.001,corrupt:5e-4,credit_loss:0.002,down:0:30000:45000,"
      "down:3:50000:60000,resync_period:512,resync_timeout:2048,"
      "deadline:300,seed:7");
  EXPECT_DOUBLE_EQ(plan.default_rates.drop_probability, 0.001);
  EXPECT_DOUBLE_EQ(plan.default_rates.corrupt_probability, 5e-4);
  EXPECT_DOUBLE_EQ(plan.default_rates.credit_loss_probability, 0.002);
  ASSERT_EQ(plan.down_windows.size(), 2u);
  EXPECT_EQ(plan.down_windows[0].channel, 0u);
  EXPECT_EQ(plan.down_windows[0].down_at, 30000u);
  EXPECT_EQ(plan.down_windows[0].up_at, 45000u);
  EXPECT_EQ(plan.down_windows[1].channel, 3u);
  EXPECT_EQ(plan.resync_period, 512u);
  EXPECT_EQ(plan.resync_timeout, 2048u);
  EXPECT_DOUBLE_EQ(plan.qos_deadline_cycles, 300.0);
  EXPECT_EQ(plan.seed, 7u);
  plan.validate(4);
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultPlan::parse("bogus:1"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("drop:2.0"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("drop:abc"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("down:0:10"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("resync_period"), std::invalid_argument);
  // The empty spec parses to the empty plan.
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlan, ValidateCatchesNonsense) {
  FaultPlan out_of_range;
  out_of_range.down_windows.push_back({9, 10, 20});
  EXPECT_INVALID(out_of_range.validate(4), "unknown channel");

  FaultPlan inverted;
  inverted.down_windows.push_back({0, 20, 10});
  EXPECT_INVALID(inverted.validate(4), "down_at < up_at");

  FaultPlan overlapping;
  overlapping.down_windows.push_back({0, 10, 30});
  overlapping.down_windows.push_back({0, 20, 40});
  EXPECT_INVALID(overlapping.validate(4), "must not overlap");
}

TEST(FaultPlan, RandomWindowsAreValidAndDeterministic) {
  Rng rng_a(123, 0);
  Rng rng_b(123, 0);
  const FaultPlan a =
      FaultPlan::random_windows(6, 10, 1000, 100000, 50, 500, rng_a);
  const FaultPlan b =
      FaultPlan::random_windows(6, 10, 1000, 100000, 50, 500, rng_b);
  a.validate(6);
  ASSERT_EQ(a.down_windows.size(), b.down_windows.size());
  for (std::size_t i = 0; i < a.down_windows.size(); ++i) {
    EXPECT_EQ(a.down_windows[i].channel, b.down_windows[i].channel);
    EXPECT_EQ(a.down_windows[i].down_at, b.down_windows[i].down_at);
    EXPECT_EQ(a.down_windows[i].up_at, b.down_windows[i].up_at);
  }
  for (const LinkDownWindow& w : a.down_windows) {
    EXPECT_GE(w.down_at, 1000u);
    EXPECT_LE(w.up_at, 100000u);
    EXPECT_GE(w.up_at - w.down_at, 50u);
    EXPECT_LE(w.up_at - w.down_at, 500u);
  }
}

TEST(FaultInjector, OutageScheduleTransitions) {
  FaultPlan plan;
  plan.down_windows.push_back({1, 10, 20});
  plan.down_windows.push_back({2, 15, 25});
  FaultInjector injector(plan, 4);
  std::vector<std::uint32_t> went_down;
  std::vector<std::uint32_t> came_up;

  injector.advance_to(9, went_down, came_up);
  EXPECT_TRUE(went_down.empty());
  EXPECT_FALSE(injector.any_down());

  injector.advance_to(10, went_down, came_up);
  ASSERT_EQ(went_down.size(), 1u);
  EXPECT_EQ(went_down[0], 1u);
  EXPECT_TRUE(injector.is_down(1));
  EXPECT_FALSE(injector.is_down(2));
  EXPECT_EQ(injector.down_count(), 1u);

  went_down.clear();
  injector.advance_to(18, went_down, came_up);  // skipping cycles is fine
  ASSERT_EQ(went_down.size(), 1u);
  EXPECT_EQ(went_down[0], 2u);
  EXPECT_EQ(injector.down_count(), 2u);

  went_down.clear();
  injector.advance_to(30, went_down, came_up);
  EXPECT_EQ(came_up.size(), 2u);
  EXPECT_FALSE(injector.any_down());
}

TEST(FaultInjector, DrawsAreDeterministicAndPerChannel) {
  FaultPlan plan;
  plan.default_rates.drop_probability = 0.5;
  plan.seed = 42;
  FaultInjector a(plan, 2);
  FaultInjector b(plan, 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.drop_flit(0), b.drop_flit(0));
    EXPECT_EQ(a.drop_flit(1), b.drop_flit(1));
  }
  // Interleaving draws differently on channel 1 must not disturb channel 0.
  FaultInjector c(plan, 2);
  FaultInjector d(plan, 2);
  std::vector<bool> seq_c;
  std::vector<bool> seq_d;
  for (int i = 0; i < 50; ++i) {
    seq_c.push_back(c.drop_flit(0));
    (void)c.drop_flit(1);
  }
  for (int i = 0; i < 50; ++i) seq_d.push_back(d.drop_flit(0));
  EXPECT_EQ(seq_c, seq_d);
}

TEST(FaultInjector, ZeroProbabilityNeverDrawsOrFires) {
  FaultPlan plan;
  plan.down_windows.push_back({0, 10, 20});  // outage only, no stochastic rates
  FaultInjector injector(plan, 1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.drop_flit(0));
    EXPECT_FALSE(injector.corrupt_flit(0));
    EXPECT_FALSE(injector.lose_credit(0));
  }
}

TEST(FaultInjector, RateSweepRoughlyMatchesProbability) {
  FaultPlan plan;
  plan.default_rates.corrupt_probability = 0.2;
  FaultInjector injector(plan, 1);
  int hits = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    if (injector.corrupt_flit(0)) ++hits;
  }
  const double rate = static_cast<double>(hits) / draws;
  EXPECT_NEAR(rate, 0.2, 0.02);
}

}  // namespace
}  // namespace mmr

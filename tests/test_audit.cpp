// The audit subsystem: differential harness property suite (every arbiter,
// >= 1000 cases each), spec round-trip, shrinker minimality, violation
// detection on deliberately bad matchings, rotation-fairness windows, and
// the simulation-level auditor (audit= override).

#include <gtest/gtest.h>

#include "mmr/arbiter/factory.hpp"
#include "mmr/audit/generator.hpp"
#include "mmr/audit/sim_auditor.hpp"
#include "mmr/audit/spec.hpp"
#include "mmr/core/simulation.hpp"
#include "support/audit/harness.hpp"
#include "support/audit/invariants.hpp"
#include "support/audit/shrink.hpp"

namespace mmr::audit {
namespace {

TEST(AuditSpec, TextRoundTrip) {
  GeneratorOptions gen;
  gen.ports = 6;
  gen.levels = 3;
  gen.profile = LoadProfile::kDuplicate;
  const CaseSpec spec = generate_case("islip", 77, 9, gen);
  ASSERT_GT(spec.total_candidates(), 0u);

  const CaseSpec parsed = parse_case(to_text(spec));
  EXPECT_EQ(parsed.arbiter, spec.arbiter);
  EXPECT_EQ(parsed.seed, spec.seed);
  EXPECT_EQ(parsed.ports, spec.ports);
  EXPECT_EQ(parsed.levels, spec.levels);
  ASSERT_EQ(parsed.steps.size(), spec.steps.size());
  for (std::size_t s = 0; s < spec.steps.size(); ++s) {
    ASSERT_EQ(parsed.steps[s].size(), spec.steps[s].size());
    for (std::size_t c = 0; c < spec.steps[s].size(); ++c) {
      EXPECT_EQ(parsed.steps[s][c].input, spec.steps[s][c].input);
      EXPECT_EQ(parsed.steps[s][c].output, spec.steps[s][c].output);
      EXPECT_EQ(parsed.steps[s][c].level, spec.steps[s][c].level);
      EXPECT_EQ(parsed.steps[s][c].vc, spec.steps[s][c].vc);
      EXPECT_EQ(parsed.steps[s][c].priority, spec.steps[s][c].priority);
    }
  }
}

TEST(AuditSpec, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)parse_case("arbiter coa\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_case("bogus 1\nend\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_case("c 0 1 0 0 5\nend\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_case("ports 0\nend\n"), std::invalid_argument);
}

TEST(AuditGenerator, ProfilesProduceLegalNormalizedSteps) {
  for (const LoadProfile profile : all_profiles()) {
    GeneratorOptions gen;
    gen.ports = 8;
    gen.levels = 4;
    gen.profile = profile;
    const CaseSpec spec = generate_case("coa", 5, 6, gen);
    ASSERT_GT(spec.total_candidates(), 0u) << profile_name(profile);
    for (std::size_t s = 0; s < spec.steps.size(); ++s) {
      // add() aborts on level gaps or priority inversions, so building the
      // set at all proves the generator honours the CandidateSet contract.
      const CandidateSet set = spec.set_for_step(s);
      set.check_invariants();
    }
  }
}

TEST(AuditGenerator, DeterministicForFixedSeed) {
  GeneratorOptions gen;
  const CaseSpec a = generate_case("wfa", 123, 8, gen);
  const CaseSpec b = generate_case("wfa", 123, 8, gen);
  EXPECT_EQ(to_text(a), to_text(b));
  const CaseSpec c = generate_case("wfa", 124, 8, gen);
  EXPECT_NE(to_text(a), to_text(c));
}

// The tentpole property: every registered arbiter honours its documented
// traits on >= 1000 random cases (4 profiles x 250 seeds each).
TEST(AuditHarness, EveryArbiterCleanOverThousandCases) {
  AuditOptions options;
  options.seeds = 250;
  options.steps = 10;
  const AuditReport report = run_audit(options);
  EXPECT_EQ(report.cases,
            arbiter_names().size() * all_profiles().size() * 250u);
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(AuditHarness, CleanAtLargerGeometry) {
  AuditOptions options;
  options.seeds = 50;
  options.ports = 8;
  options.levels = 4;
  const AuditReport report = run_audit(options);
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(AuditHarness, RunCaseIsDeterministic) {
  GeneratorOptions gen;
  const CaseSpec spec = generate_case("pim", 99, 12, gen);
  EXPECT_TRUE(run_case(spec).empty());
  EXPECT_TRUE(run_case(spec).empty());
}

TEST(AuditInvariants, DetectsMaximalityViolation) {
  CandidateSet set(2, 1);
  set.add({.input = 0, .output = 1, .level = 0, .vc = 0, .priority = 5});
  const Matching empty(2);  // leaves the 0 -> 1 request with both ends free
  const std::vector<Violation> violations =
      check_step(set, empty, arbiter_traits("wfa"), 0, 0);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, "maximality");
}

TEST(AuditInvariants, DetectsExactMaximumShortfall) {
  // Requests 0->0, 0->1, 1->0: maximum matching is 2, greedy-on-0->0 is 1.
  CandidateSet set(2, 2);
  set.add({.input = 0, .output = 0, .level = 0, .vc = 0, .priority = 9});
  set.add({.input = 0, .output = 1, .level = 1, .vc = 1, .priority = 8});
  set.add({.input = 1, .output = 0, .level = 0, .vc = 0, .priority = 9});
  EXPECT_EQ(oracle_max_matching(set), 2u);
  Matching one(2);
  one.match(0, 0, 0);
  const std::vector<Violation> violations =
      check_step(set, one, arbiter_traits("maxmatch"), 0, 3);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, "exact-maximum");
  EXPECT_EQ(violations[0].step, 3u);
}

TEST(AuditInvariants, DetectsPriorityOrderViolation) {
  // Output 0 granted to the priority-3 candidate while input 0's priority-9
  // rival goes entirely unmatched.
  CandidateSet set(2, 1);
  set.add({.input = 0, .output = 0, .level = 0, .vc = 0, .priority = 9});
  set.add({.input = 1, .output = 0, .level = 0, .vc = 0, .priority = 3});
  Matching bad(2);
  bad.match(1, 0, 1);
  ArbiterTraits traits;  // isolate the priority check from maximality
  traits.priority_ordered = true;
  const std::vector<Violation> violations = check_step(set, bad, traits, 0, 0);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, "priority-order");
}

TEST(AuditInvariants, DetectsIterationBoundViolation) {
  // Two independent requests; a 1-match non-maximal result breaks the
  // "maximal or >= iterations matches" bound at iterations = 2.
  CandidateSet set(2, 1);
  set.add({.input = 0, .output = 0, .level = 0, .vc = 0, .priority = 1});
  set.add({.input = 1, .output = 1, .level = 0, .vc = 0, .priority = 1});
  Matching one(2);
  one.match(0, 0, 0);
  ArbiterTraits traits;
  traits.iteration_bounded = true;
  const std::vector<Violation> violations = check_step(set, one, traits, 2, 0);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, "iteration-bound");
}

TEST(AuditInvariants, RotationFairArbitersPassTheWindowCheck) {
  for (const std::string& name : arbiter_names()) {
    if (!arbiter_traits(name).rotation_fair) continue;
    for (const std::uint32_t ports : {4u, 5u, 8u}) {
      const auto arbiter = make_arbiter(name, ports, Rng(1, 0));
      const std::vector<Violation> violations =
          check_rotation_fairness(*arbiter, ports);
      EXPECT_TRUE(violations.empty())
          << name << " at " << ports << " ports: " << violations[0].detail;
    }
  }
}

TEST(AuditInvariants, FixedCornerWavefrontIsNotRotationFair) {
  // The legacy fixed-corner WFA repeats the same corner-biased perfect
  // matching every cycle — the check must see starvation, which is why
  // wfa-fixed does not claim the rotation_fair trait.  (The default "wfa"
  // rotates its corner and passes the window check above.)
  const auto arbiter = make_arbiter("wfa-fixed", 4, Rng(1, 0));
  EXPECT_FALSE(check_rotation_fairness(*arbiter, 4).empty());
}

TEST(AuditShrink, ShrinksToOneMinimalSpec) {
  GeneratorOptions gen;
  gen.ports = 8;
  gen.levels = 3;
  CaseSpec spec = generate_case("coa", 31, 16, gen);
  // Synthetic failure: "some step holds a candidate requesting output 2".
  const FailurePredicate wants_output_2 = [](const CaseSpec& trial) {
    for (const std::vector<Candidate>& step : trial.steps)
      for (const Candidate& c : step)
        if (c.output == 2) return true;
    return false;
  };
  ASSERT_TRUE(wants_output_2(spec));
  const ShrinkResult result = shrink_case(spec, wants_output_2);
  EXPECT_TRUE(wants_output_2(result.spec));
  EXPECT_GT(result.trials, 0u);
  // 1-minimal here means exactly one step with exactly one candidate.
  ASSERT_EQ(result.spec.steps.size(), 1u);
  ASSERT_EQ(result.spec.steps[0].size(), 1u);
  EXPECT_EQ(result.spec.steps[0][0].output, 2);
  EXPECT_EQ(result.spec.steps[0][0].level, 0);  // normalize() relabelled
}

TEST(AuditShrink, PreservesRealViolationsFromABrokenChecker) {
  // Audit a correct arbiter against a deliberately wrong expectation (wfa
  // claiming exact_maximum) to exercise the full failure path: detection,
  // shrinking, and a replayable dumped spec.
  GeneratorOptions gen;
  gen.ports = 6;
  gen.levels = 2;
  ArbiterTraits wrong;
  wrong.exact_maximum = true;

  const auto fails_wrong_traits = [&wrong](const CaseSpec& trial) {
    const auto arbiter = make_arbiter(trial.arbiter, trial.ports,
                                      Rng(trial.seed, 0));
    for (std::size_t s = 0; s < trial.steps.size(); ++s) {
      const CandidateSet set = trial.set_for_step(s);
      const Matching m = arbiter->arbitrate(set);
      if (!check_step(set, m, wrong, 0, s).empty()) return true;
    }
    return false;
  };

  CaseSpec failing;
  bool found = false;
  for (std::uint64_t seed = 0; seed < 200 && !found; ++seed) {
    failing = generate_case("wfa", seed, 8, gen);
    found = fails_wrong_traits(failing);
  }
  ASSERT_TRUE(found) << "wfa matched the Hopcroft-Karp maximum on every try";

  const ShrinkResult result = shrink_case(failing, fails_wrong_traits);
  EXPECT_TRUE(fails_wrong_traits(result.spec));
  EXPECT_LE(result.spec.total_candidates(), failing.total_candidates());
  // The spec round-trips, so the shrunk case replays from its text dump.
  const CaseSpec replayed = parse_case(to_text(result.spec));
  EXPECT_TRUE(fails_wrong_traits(replayed));
}

TEST(AuditReportTest, SummaryCountsAndDumpsFailures) {
  AuditOptions options;
  options.seeds = 3;
  const AuditReport clean = run_audit(options);
  EXPECT_TRUE(clean.clean());
  EXPECT_NE(clean.summary().find("0 failure(s)"), std::string::npos);
}

TEST(SimAuditorTest, AttachesViaConfigAndStaysClean) {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 1'000;
  config.measure_cycles = 10'000;
  apply_overrides(config, {"audit=1"});
  EXPECT_EQ(config.audit_every, 1u);
  Rng rng(config.seed, 1);
  CbrMixSpec spec;
  spec.target_load = 0.7;
  spec.classes = {kCbrHigh, kCbrMedium};
  spec.class_weights = {3.0, 1.0};
  MmrSimulation simulation(config, build_cbr_mix(config, spec, rng));
  ASSERT_NE(simulation.auditor(), nullptr);
  const SimulationMetrics metrics = simulation.run();
  EXPECT_GT(metrics.flits_delivered, 0u);
  EXPECT_EQ(simulation.auditor()->cycles_audited(), config.total_cycles());
  EXPECT_EQ(simulation.auditor()->sweeps(), config.total_cycles());
}

TEST(SimAuditorTest, SweepPeriodRespectsAuditEvery) {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'500;
  config.audit_every = 64;
  Rng rng(config.seed, 1);
  CbrMixSpec spec;
  spec.target_load = 0.5;
  spec.classes = {kCbrMedium};
  spec.class_weights = {1.0};
  MmrSimulation simulation(config, build_cbr_mix(config, spec, rng));
  (void)simulation.run();
  ASSERT_NE(simulation.auditor(), nullptr);
  EXPECT_EQ(simulation.auditor()->cycles_audited(), config.total_cycles());
  EXPECT_EQ(simulation.auditor()->sweeps(),
            (config.total_cycles() + 63) / 64);
}

TEST(SimAuditorTest, OffByDefault) {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 10;
  config.measure_cycles = 100;
  Rng rng(config.seed, 1);
  CbrMixSpec spec;
  spec.target_load = 0.3;
  spec.classes = {kCbrMedium};
  spec.class_weights = {1.0};
  MmrSimulation simulation(config, build_cbr_mix(config, spec, rng));
  EXPECT_EQ(simulation.auditor(), nullptr);
}

}  // namespace
}  // namespace mmr::audit

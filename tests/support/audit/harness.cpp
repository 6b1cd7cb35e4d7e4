#include "support/audit/harness.hpp"

#include <memory>
#include <sstream>

#include "mmr/arbiter/factory.hpp"
#include "mmr/audit/generator.hpp"
#include "mmr/sim/rng.hpp"
#include "support/audit/shrink.hpp"
#include "support/twins.hpp"

namespace mmr::audit {
namespace {

constexpr std::uint64_t kProfileSalt = 0x9e3779b97f4a7c15ull;

}  // namespace

std::vector<Violation> run_case(const CaseSpec& spec) {
  const std::unique_ptr<SwitchArbiter> arbiter =
      make_arbiter(spec.arbiter, spec.ports, Rng(spec.seed, /*stream=*/0));
  const ArbiterTraits& traits = arbiter_traits(spec.arbiter);
  const std::uint32_t iterations =
      arbiter_iterations(spec.arbiter, spec.ports);
  std::vector<Violation> violations;
  for (std::size_t s = 0; s < spec.steps.size(); ++s) {
    const CandidateSet set = spec.set_for_step(s);
    const Matching matching = arbiter->arbitrate(set);
    std::vector<Violation> found =
        check_step(set, matching, traits, iterations, s);
    violations.insert(violations.end(), found.begin(), found.end());
  }
  return violations;
}

AuditReport run_audit(const AuditOptions& options) {
  AuditReport report;
  const std::vector<std::string>& names =
      options.arbiters.empty() ? arbiter_names() : options.arbiters;

  const auto record = [&](CaseSpec spec, const Violation& violation) {
    ++report.failure_count;
    if (report.failures.size() >= options.max_failures) return;
    if (options.shrink) {
      ShrinkResult shrunk = shrink_case(
          std::move(spec),
          [](const CaseSpec& trial) { return !run_case(trial).empty(); });
      report.shrink_trials += shrunk.trials;
      // Report the violation the shrunk spec actually reproduces (shrinking
      // preserves "some violation", not necessarily the original one).
      std::vector<Violation> remaining = run_case(shrunk.spec);
      report.failures.push_back(
          {std::move(shrunk.spec),
           remaining.empty() ? violation : remaining.front()});
    } else {
      report.failures.push_back({std::move(spec), violation});
    }
  };

  for (const std::string& name : names) {
    for (const LoadProfile profile : all_profiles()) {
      GeneratorOptions gen;
      gen.ports = options.ports;
      gen.levels = options.levels;
      gen.profile = profile;
      const std::uint64_t salt =
          kProfileSalt * (static_cast<std::uint64_t>(profile) + 1);
      for (std::uint32_t i = 0; i < options.seeds; ++i) {
        const std::uint64_t seed = (options.seed_base + i) ^ salt;
        CaseSpec spec = generate_case(name, seed, options.steps, gen);
        ++report.cases;
        report.steps_checked += spec.steps.size();
        const std::vector<Violation> violations = run_case(spec);
        if (!violations.empty()) record(std::move(spec), violations.front());
      }
    }
    if (options.check_fairness && arbiter_traits(name).rotation_fair) {
      const std::unique_ptr<SwitchArbiter> arbiter =
          make_arbiter(name, options.ports, Rng(options.seed_base, 0));
      const std::vector<Violation> violations =
          check_rotation_fairness(*arbiter, options.ports);
      report.steps_checked += 9u * options.ports;
      if (!violations.empty()) {
        ++report.failure_count;
        if (report.failures.size() < options.max_failures) {
          CaseSpec marker;  // fairness is matrix-driven; spec is a label
          marker.arbiter = name;
          marker.ports = options.ports;
          marker.seed = options.seed_base;
          report.failures.push_back({std::move(marker), violations.front()});
        }
      }
    }
  }
  return report;
}

TwinDiffReport run_twin_diff(const TwinDiffOptions& options) {
  TwinDiffReport report;

  const auto record = [&](const std::string& fast, const std::string& ref,
                          const CaseSpec& spec, std::size_t step,
                          const std::string& detail) {
    ++report.failure_count;
    if (report.mismatches.size() >= options.max_failures) return;
    std::ostringstream out;
    out << fast << " vs " << ref << " diverge at step " << step << " ("
        << detail << ")\n"
        << to_text(spec);
    report.mismatches.push_back(out.str());
  };

  // One generated case: replay it through both twins, stopping at the first
  // diverging step (the twins' internal state differs from there).
  const auto diff_case = [&](const test_support::Twin& twin,
                             const GeneratorOptions& gen, std::uint64_t seed) {
    const std::string fast = twin.arbiter;
    const std::string ref = twin.reference;
    const CaseSpec spec = generate_case(fast, seed, options.steps, gen);
    ++report.cases;
    const std::unique_ptr<SwitchArbiter> a =
        make_arbiter(fast, gen.ports, Rng(seed, /*stream=*/0));
    const std::unique_ptr<SwitchArbiter> b =
        twin.build(gen.ports, Rng(seed, /*stream=*/0));
    for (std::size_t s = 0; s < spec.steps.size(); ++s) {
      const CandidateSet set = spec.set_for_step(s);
      const Matching ma = a->arbitrate(set);
      const Matching mb = b->arbitrate(set);
      ++report.steps_checked;
      for (std::uint32_t in = 0; in < gen.ports; ++in) {
        if (ma.output_of(in) == mb.output_of(in) &&
            ma.candidate_of(in) == mb.candidate_of(in))
          continue;
        std::ostringstream detail;
        detail << "input " << in << ": " << fast << " grants output "
               << ma.output_of(in) << " candidate " << ma.candidate_of(in)
               << ", " << ref << " grants output " << mb.output_of(in)
               << " candidate " << mb.candidate_of(in);
        record(fast, ref, spec, s, detail.str());
        return;
      }
    }
  };

  for (const test_support::Twin& twin : test_support::twins()) {
    for (const std::uint32_t ports : options.ports) {
      for (const std::uint32_t levels : options.levels) {
        for (const LoadProfile profile : all_profiles()) {
          GeneratorOptions gen;
          gen.ports = ports;
          gen.levels = levels;
          gen.profile = profile;
          const std::uint64_t salt =
              kProfileSalt * (static_cast<std::uint64_t>(profile) + 1);
          for (std::uint32_t i = 0; i < options.seeds; ++i)
            diff_case(twin, gen, (options.seed_base + i) ^ salt);
        }
      }
    }
  }
  return report;
}

std::string TwinDiffReport::summary() const {
  std::ostringstream out;
  out << "twin-diff: " << cases << " cases, " << steps_checked
      << " arbitrations compared, " << failure_count << " divergence(s)\n";
  for (const std::string& mismatch : mismatches) out << "--- " << mismatch;
  return out.str();
}

std::string AuditReport::summary() const {
  std::ostringstream out;
  out << "audit: " << cases << " cases, " << steps_checked
      << " arbitrations checked, " << failure_count << " failure(s)";
  if (shrink_trials > 0) out << ", " << shrink_trials << " shrink trials";
  out << '\n';
  for (const AuditFailure& failure : failures) {
    out << "--- " << failure.spec.arbiter << ": " << failure.violation.kind
        << " at step " << failure.violation.step << ": "
        << failure.violation.detail << '\n';
    if (!failure.spec.steps.empty()) out << to_text(failure.spec);
  }
  return out.str();
}

}  // namespace mmr::audit

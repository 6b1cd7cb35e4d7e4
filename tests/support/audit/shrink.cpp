#include "support/audit/shrink.hpp"

#include "mmr/sim/assert.hpp"

namespace mmr::audit {
namespace {

/// Tries one mutated spec; on preserved failure commits it to `spec`.
bool try_accept(CaseSpec& spec, CaseSpec trial,
                const FailurePredicate& still_fails, std::size_t& trials) {
  trial.normalize();
  ++trials;
  if (!still_fails(trial)) return false;
  spec = std::move(trial);
  return true;
}

}  // namespace

ShrinkResult shrink_case(CaseSpec spec, const FailurePredicate& still_fails) {
  MMR_ASSERT_MSG(still_fails(spec), "shrink_case needs a failing input");
  ShrinkResult result;

  // Fast pass: halve the step sequence from either end while that keeps the
  // failure, before the O(candidates) greedy passes below.
  bool changed = true;
  while (changed && spec.steps.size() > 1) {
    changed = false;
    const std::size_t half = spec.steps.size() / 2;
    CaseSpec tail = spec;
    tail.steps.erase(tail.steps.begin(),
                     tail.steps.begin() + static_cast<std::ptrdiff_t>(half));
    if (try_accept(spec, std::move(tail), still_fails, result.trials)) {
      changed = true;
      continue;
    }
    CaseSpec head = spec;
    head.steps.resize(spec.steps.size() - half);
    changed = try_accept(spec, std::move(head), still_fails, result.trials);
  }

  // Greedy fixpoint: drop single steps, then single candidates.
  changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = spec.steps.size(); s-- > 0;) {
      if (spec.steps.size() == 1) break;
      CaseSpec trial = spec;
      trial.steps.erase(trial.steps.begin() + static_cast<std::ptrdiff_t>(s));
      changed |= try_accept(spec, std::move(trial), still_fails, result.trials);
    }
    for (std::size_t s = spec.steps.size(); s-- > 0;) {
      for (std::size_t c = spec.steps[s].size(); c-- > 0;) {
        CaseSpec trial = spec;
        trial.steps[s].erase(trial.steps[s].begin() +
                             static_cast<std::ptrdiff_t>(c));
        changed |=
            try_accept(spec, std::move(trial), still_fails, result.trials);
      }
    }
  }

  result.spec = std::move(spec);
  return result;
}

}  // namespace mmr::audit

#include "mmr/overload/spec.hpp"

namespace mmr::overload {

constexpr const char* kPolicyWords[] = {"drop", "shape", "demote"};
constexpr const char* kClassWords[] = {"any", "cbr", "vbr"};

const char* to_string(OverloadPolicy p) {
  return kPolicyWords[static_cast<std::size_t>(p)];
}

const spec::Grammar& PoliceSpec::grammar() {
  using spec::bind;
  using spec::kPositive;
  using P = PoliceSpec;
  static const spec::Grammar grammar{"police", ':', {
      bind<&P::policy>({.words = kPolicyWords}),
      bind<&P::burst_rounds>({.name = "burst", .dlo = kPositive}),
      bind<&P::vbr_burst_rounds>({.name = "vbr_burst", .dlo = kPositive}),
      bind<&P::penalty_flits>({.name = "penalty", .lo = 1}),
      bind<&P::qos_deadline_cycles>({.name = "deadline", .dlo = kPositive}),
      bind<&P::wd_window>({.name = "wd_window"}),
      bind<&P::wd_alpha>({.name = "wd_alpha", .dlo = kPositive, .dhi = 1}),
      bind<&P::wd_high>({.name = "wd_high", .dlo = 0}),
      bind<&P::wd_low>({.name = "wd_low", .dlo = 0}),
      bind<&P::wd_escalate_after>({.name = "wd_escalate"}),
      bind<&P::wd_recover_after>({.name = "wd_recover"}),
      bind<&P::wd_pause_limit>({.name = "wd_pause_limit"})},
      /*mode_required=*/true};
  return grammar;
}

void PoliceSpec::validate() const {
  spec::check(grammar(), *this);
  if (wd_high <= wd_low)
    spec::fail(grammar(), "watchdog needs wd_high > wd_low (hysteresis)");
  if (wd_window > 0 && (wd_escalate_after < 1 || wd_recover_after < 1))
    spec::fail(grammar(), "watchdog escalate/recover counts must be >= 1");
}

const spec::Grammar& RogueSpec::grammar() {
  using spec::bind;
  using R = RogueSpec;
  static const spec::Grammar grammar{"rogue", ':', {
      bind<&R::fraction>({.name = "frac", .dlo = 0, .dhi = 1}),
      bind<&R::count>({.name = "count"}),
      bind<&R::scale>({.name = "scale", .dlo = 1}),
      bind<&R::burst_scale>({.name = "burst_scale", .dlo = 1}),
      bind<&R::burst_period>({.name = "burst_period"}),
      bind<&R::burst_len>({.name = "burst_len"}),
      bind<&R::seed>({.name = "seed"}),
      bind<&R::classes>({.name = "class", .words = kClassWords})}};
  return grammar;
}

void RogueSpec::validate() const {
  spec::check(grammar(), *this);
  if (burst_period > 0 && burst_len > burst_period)
    spec::fail(grammar(), "rogue burst window longer than its period");
  if (burst_scale != 1.0 && burst_period == 0)
    spec::fail(grammar(), "rogue burst scale needs a burst_period");
}

}  // namespace mmr::overload

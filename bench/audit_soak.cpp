// Differential audit soak: every registered arbiter x every load profile x
// many seeds, invariants checked on every arbitration (validity,
// maximality / exact-maximum vs the Hopcroft-Karp oracle, iteration bounds,
// COA/greedy priority ordering, iSLIP/WFA/WWFA rotation fairness).  Any
// failure is shrunk and dumped as a replayable spec.  `twins` additionally
// replays every runtime arbiter against its scan reference (the twin table
// in tests/support) over the same case corpus and demands bit-identical
// grants.  `ports` accepts a comma-separated list; the invariant audit and
// the twin diff run at every listed width.  `arbiter=` repeats (default:
// every registered arbiter).  Exit status 0 only on a clean soak, so
// scripts/check.sh and CI can gate on it.

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mmr/snapshot/signals.hpp"
#include "support/audit/harness.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  using namespace mmr::audit;
  struct Options {
    AuditOptions audit;
    std::vector<std::uint32_t> ports = {4};
    bool twins = false;
  } options;
  options.audit.seeds = 1000;
  using O = Options;
  using A = AuditOptions;
  const spec::Grammar grammar{
      "audit_soak", '=',
      {bench::seeds<&O::audit, &A::seeds>(), bench::ports<&O::ports>(),
       spec::bind<&O::audit, &A::levels>(
           {.name = "levels", .lo = 1, .hi = kMaxCandidateLevels}),
       spec::bind<&O::audit, &A::steps>({.name = "steps", .lo = 1}),
       spec::bind<&O::audit, &A::seed_base>({.name = "seed_base"}),
       spec::bind<&O::audit, &A::arbiters>(
           {.name = "arbiter",
            .words = bench::arbiter_words(),
            .repeat = true}),
       spec::bind<&O::twins>({.name = "twins"})}};
  spec::parse_command_line(grammar, &options, argc, argv);
  auto& [audit, ports_list, twins] = options;

  std::ostringstream ports_text;
  for (std::size_t i = 0; i < ports_list.size(); ++i)
    ports_text << (i == 0 ? "" : ",") << ports_list[i];

  std::cout << "==== Differential arbiter audit soak ====\n"
            << "seeds per (arbiter, profile): " << audit.seeds
            << ", ports: " << ports_text.str()
            << ", levels: " << audit.levels
            << ", steps per case: " << audit.steps
            << (twins ? ", twin bit-identity diff: on" : "") << "\n\n";

  // SIGINT/SIGTERM stop the soak at the next ports-width boundary with the
  // partial report flushed and the conventional 128+signo exit status.
  mmr::snapshot::SignalGuard signals;
  const auto interrupted = [](int sig) {
    std::cout << "soak interrupted by signal " << sig
              << "; partial report above\n";
    return mmr::snapshot::exit_status_for_signal(sig);
  };

  bool clean = true;
  for (const std::uint32_t ports : ports_list) {
    if (const int sig = mmr::snapshot::SignalGuard::consume())
      return interrupted(sig);
    audit.ports = ports;
    const AuditReport report = run_audit(audit);
    std::cout << "[ports=" << ports << "] " << report.summary();
    if (!report.clean()) {
      clean = false;
      std::cout << "\nsoak FAILED at ports=" << ports
                << ": replay a dumped spec with mmr::audit::parse_case + "
                   "run_case\n";
    }
  }

  if (twins) {
    if (const int sig = mmr::snapshot::SignalGuard::consume())
      return interrupted(sig);
    TwinDiffOptions diff;
    diff.seed_base = audit.seed_base;
    diff.seeds = audit.seeds;
    diff.ports = ports_list;
    diff.levels = {audit.levels};
    diff.steps = audit.steps;
    const TwinDiffReport report = run_twin_diff(diff);
    std::cout << report.summary();
    if (!report.clean()) {
      clean = false;
      std::cout << "\ntwin diff FAILED: a runtime engine diverges from "
                   "its scan reference\n";
    }
  }

  if (!clean) return 1;
  std::cout << "soak clean\n";
  return 0;
}

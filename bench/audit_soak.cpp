// Differential audit soak: every registered arbiter x every load profile x
// many seeds, invariants checked on every arbitration (validity,
// maximality / exact-maximum vs the Hopcroft-Karp oracle, iteration bounds,
// COA/greedy priority ordering, iSLIP/WFA/WWFA rotation fairness).  Any
// failure is shrunk and dumped as a replayable spec.  `twins` additionally
// replays every runtime arbiter against its scan reference (the twin table
// in tests/support) over the same case corpus and demands bit-identical
// grants.  `ports` accepts a
// comma-separated list; the invariant audit and the twin diff run at every
// listed width.  Exit status 0 only on a clean soak, so scripts/check.sh and
// CI can gate on it.

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "mmr/snapshot/signals.hpp"
#include "support/audit/harness.hpp"

namespace {

std::vector<std::uint32_t> parse_ports_list(const std::string& text) {
  std::vector<std::uint32_t> ports;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty())
      ports.push_back(static_cast<std::uint32_t>(std::stoul(item)));
  }
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmr::audit;
  AuditOptions options;
  options.seeds = 1000;
  std::vector<std::uint32_t> ports_list = {4};
  bool twins = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eat = [&](const char* key) -> const char* {
      const std::string prefix = std::string(key) + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size()
                                       : nullptr;
    };
    const char* v = nullptr;
    if ((v = eat("seeds")) != nullptr) {
      options.seeds = static_cast<std::uint32_t>(std::stoul(v));
    } else if ((v = eat("ports")) != nullptr) {
      ports_list = parse_ports_list(v);
      if (ports_list.empty()) {
        std::cerr << "ports= needs a comma-separated list of widths\n";
        return 2;
      }
    } else if ((v = eat("levels")) != nullptr) {
      options.levels = static_cast<std::uint32_t>(std::stoul(v));
    } else if ((v = eat("steps")) != nullptr) {
      options.steps = static_cast<std::uint32_t>(std::stoul(v));
    } else if ((v = eat("seed_base")) != nullptr) {
      options.seed_base = std::stoull(v);
    } else if ((v = eat("arbiter")) != nullptr) {
      options.arbiters.push_back(v);
    } else if (arg == "twins") {
      twins = true;
    } else {
      std::cerr << "usage: audit_soak [seeds=N] [ports=N[,N...]] [levels=N] "
                   "[steps=N] [seed_base=N] [arbiter=name ...] [twins]\n";
      return 2;
    }
  }

  std::ostringstream ports_text;
  for (std::size_t i = 0; i < ports_list.size(); ++i)
    ports_text << (i == 0 ? "" : ",") << ports_list[i];

  std::cout << "==== Differential arbiter audit soak ====\n"
            << "seeds per (arbiter, profile): " << options.seeds
            << ", ports: " << ports_text.str()
            << ", levels: " << options.levels
            << ", steps per case: " << options.steps
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
    options.ports = ports;
    const AuditReport report = run_audit(options);
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
    diff.seed_base = options.seed_base;
    diff.seeds = options.seeds;
    diff.ports = ports_list;
    diff.levels = {options.levels};
    diff.steps = options.steps;
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

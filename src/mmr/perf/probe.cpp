#include "mmr/perf/probe.hpp"

namespace mmr::perf {

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kTraffic: return "traffic";
    case Phase::kLinkSchedule: return "link_schedule";
    case Phase::kArbitration: return "arbitration";
    case Phase::kCrossbar: return "crossbar";
    case Phase::kCredits: return "credits";
    case Phase::kMetrics: return "metrics";
    case Phase::kOther: return "other";
  }
  return "?";
}

const char* to_string(Counter counter) {
  switch (counter) {
    case Counter::kMatchingAlloc: return "matching_alloc";
    case Counter::kCandidateRealloc: return "candidate_realloc";
    case Counter::kScratchRealloc: return "scratch_realloc";
    case Counter::kDepartureRealloc: return "departure_realloc";
  }
  return "?";
}

std::uint64_t PerfProbe::attributed_ns() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kPhaseCount; ++i) total += phase_ns_[i];
  return total;
}

double PerfProbe::cycles_per_second() const {
  if (run_wall_ns_ == 0) return 0.0;
  return static_cast<double>(simulated_cycles_) * 1e9 /
         static_cast<double>(run_wall_ns_);
}

double PerfProbe::phase_share(Phase phase) const {
  if (run_wall_ns_ == 0) return 0.0;
  return static_cast<double>(phase_ns(phase)) /
         static_cast<double>(run_wall_ns_);
}

void PerfProbe::merge(const PerfProbe& other) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    phase_ns_[i] += other.phase_ns_[i];
    phase_calls_[i] += other.phase_calls_[i];
  }
  for (std::size_t i = 0; i < kCounterCount; ++i)
    counters_[i] += other.counters_[i];
  simulated_cycles_ += other.simulated_cycles_;
  run_wall_ns_ += other.run_wall_ns_;
}

void PerfProbe::reset() { *this = PerfProbe{}; }

ProbeScope::ProbeScope(PerfProbe* probe) : prev_(t_probe) {
  t_probe = probe;
}

ProbeScope::~ProbeScope() { t_probe = prev_; }

}  // namespace mmr::perf

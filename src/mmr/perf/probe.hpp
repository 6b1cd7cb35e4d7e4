// Low-overhead performance probes: attribute wall time to simulation phases
// (traffic generation, link scheduling, switch arbitration, crossbar
// transfer, credit/link movement, metrics) and count hot-path buffer
// (re)allocations.
//
// Design rules:
//  * Near-zero cost when not armed: probes are armed per thread via
//    ProbeScope; an unarmed thread pays one thread-local load and a
//    predictable branch per scope.
//  * Never touches simulation state or RNG streams: metrics are bit-identical
//    with probes armed or not (tests/test_perf.cpp proves it).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace mmr::perf {

/// One simulation phase per hot section of MmrSimulation::step_one and
/// MmrRouter::step.  kOther is for callers instrumenting custom sections.
enum class Phase : std::uint8_t {
  kTraffic = 0,     ///< source generation + policer verdicts (step_one §2)
  kLinkSchedule,    ///< per-port candidate selection (router step)
  kArbitration,     ///< switch arbitration + matching verification
  kCrossbar,        ///< crossbar transit + departure assembly
  kCredits,         ///< NIC/link flit movement + credit returns
  kMetrics,         ///< delivery accounting, observers, watchdog/auditor
  kOther,
};
inline constexpr std::size_t kPhaseCount = 7;

[[nodiscard]] const char* to_string(Phase phase);

/// Hot-path allocation events.  Steady-state cycles should count zero of
/// these: every buffer is reused, so growth only happens on first use or
/// when the geometry changes.
enum class Counter : std::uint8_t {
  kMatchingAlloc = 0,    ///< Matching result buffers grew
  kCandidateRealloc,     ///< CandidateSet flat storage grew
  kScratchRealloc,       ///< arbiter scratch buffers grew
  kDepartureRealloc,     ///< simulation departure/arrival buffers grew
};
inline constexpr std::size_t kCounterCount = 4;

[[nodiscard]] const char* to_string(Counter counter);

/// Monotonic nanosecond timestamp (steady clock).
[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Accumulator for one measurement context (one thread / one run).  Plain
/// data, no synchronisation: arm one probe per thread and merge() afterwards.
class PerfProbe {
 public:
  void add_time(Phase phase, std::uint64_t ns) {
    phase_ns_[static_cast<std::size_t>(phase)] += ns;
    ++phase_calls_[static_cast<std::size_t>(phase)];
  }
  void add_count(Counter counter, std::uint64_t n = 1) {
    counters_[static_cast<std::size_t>(counter)] += n;
  }
  /// Records a completed run: simulated cycles and the wall time they took.
  void add_run(std::uint64_t simulated_cycles, std::uint64_t wall_ns) {
    simulated_cycles_ += simulated_cycles;
    run_wall_ns_ += wall_ns;
  }

  [[nodiscard]] std::uint64_t phase_ns(Phase phase) const {
    return phase_ns_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] std::uint64_t phase_calls(Phase phase) const {
    return phase_calls_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] std::uint64_t count(Counter counter) const {
    return counters_[static_cast<std::size_t>(counter)];
  }
  [[nodiscard]] std::uint64_t simulated_cycles() const {
    return simulated_cycles_;
  }
  [[nodiscard]] std::uint64_t run_wall_ns() const { return run_wall_ns_; }

  /// Total nanoseconds attributed to any phase.
  [[nodiscard]] std::uint64_t attributed_ns() const;
  /// Simulated cycles per wall second (0 when nothing ran).
  [[nodiscard]] double cycles_per_second() const;
  /// Fraction of run_wall_ns spent in `phase` (0 when nothing ran).
  [[nodiscard]] double phase_share(Phase phase) const;

  void merge(const PerfProbe& other);
  void reset();

 private:
  std::uint64_t phase_ns_[kPhaseCount] = {};
  std::uint64_t phase_calls_[kPhaseCount] = {};
  std::uint64_t counters_[kCounterCount] = {};
  std::uint64_t simulated_cycles_ = 0;
  std::uint64_t run_wall_ns_ = 0;
};

/// The thread's armed probe; read it through current().  Inline and
/// constant-initialized, so a read is one thread-local load: every
/// MMR_PERF_* site pays that when disarmed.
inline constinit thread_local PerfProbe* t_probe = nullptr;

/// The calling thread's armed probe, or nullptr (the default).
[[nodiscard]] inline PerfProbe* current() { return t_probe; }

/// RAII arming of `probe` on the calling thread; restores the previous
/// probe (nesting is allowed) on destruction.  Arm with nullptr to disarm.
class ProbeScope {
 public:
  explicit ProbeScope(PerfProbe* probe);
  ~ProbeScope();
  ProbeScope(const ProbeScope&) = delete;
  ProbeScope& operator=(const ProbeScope&) = delete;

 private:
  PerfProbe* prev_;
};

/// Scope timer: charges the enclosed block to `phase` on the thread's armed
/// probe; a single thread-local load + branch when no probe is armed, since
/// current() is an inline read.
class ScopedTimer {
 public:
  explicit ScopedTimer(Phase phase) : probe_(current()), phase_(phase) {
    if (probe_ != nullptr) start_ = now_ns();
  }
  ~ScopedTimer() {
    if (probe_ != nullptr) probe_->add_time(phase_, now_ns() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  PerfProbe* probe_;
  Phase phase_;
  std::uint64_t start_ = 0;
};

}  // namespace mmr::perf

// Instrumentation macros for hot paths.
#define MMR_PERF_CONCAT_IMPL(a, b) a##b
#define MMR_PERF_CONCAT(a, b) MMR_PERF_CONCAT_IMPL(a, b)
#define MMR_PERF_SCOPE(phase) \
  ::mmr::perf::ScopedTimer MMR_PERF_CONCAT(mmr_perf_scope_, __LINE__)(phase)
#define MMR_PERF_COUNT(counter, n)                              \
  do {                                                          \
    if (::mmr::perf::PerfProbe* mmr_perf_probe_ =               \
            ::mmr::perf::current())                             \
      mmr_perf_probe_->add_count((counter), (n));               \
  } while (false)

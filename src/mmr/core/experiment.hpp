// Load-sweep experiment driver: the shape of every figure in the paper —
// run the same workloads across several arbiters and offered loads, collect
// metrics per point.  Every arbiter sees the *identical* workload at a given
// load (workload RNG streams depend only on the load index), and points run
// in parallel across a thread pool.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "mmr/core/metrics.hpp"
#include "mmr/core/simulation.hpp"
#include "mmr/sim/config.hpp"
#include "mmr/traffic/mix.hpp"

namespace mmr {

enum class WorkloadKind : std::uint8_t { kCbr, kVbr };

struct SweepSpec {
  SimConfig base;                    ///< arbiter field is overridden per point
  std::vector<double> loads;         ///< target offered loads (fractions)
  std::vector<std::string> arbiters = {"coa", "wfa"};
  WorkloadKind kind = WorkloadKind::kCbr;

  // CBR knobs.
  CbrMixSpec cbr;
  // VBR knobs.
  VbrMixSpec vbr;

  /// Independent workload realisations per (load, arbiter) point; their
  /// statistics are pooled (merge_runs).  Replication matters with uniform
  /// random destinations, where a single draw decides how hot the hottest
  /// output link runs.
  std::uint32_t replications = 1;

  std::size_t threads = 0;  ///< 0 = hardware concurrency

  /// Rejects malformed sweeps with std::invalid_argument: loads must be
  /// non-empty, each in (0, ~2], and strictly ascending (duplicates are a
  /// silent double-spend of simulation time, so they are errors too), and
  /// arbiters non-empty.  run_sweep validate()s each run's config itself.
  void validate() const;
};

struct SweepPoint {
  double target_load = 0.0;
  std::string arbiter;
  SimulationMetrics metrics;
};

/// Runs |loads| x |arbiters| simulations.  Results are ordered arbiter-major
/// then load-ascending, deterministically, regardless of thread count.
[[nodiscard]] std::vector<SweepPoint> run_sweep(const SweepSpec& spec);

/// Builds the workload a sweep point uses (exposed so tests can verify the
/// same-workload-across-arbiters property).
[[nodiscard]] Workload build_sweep_workload(const SweepSpec& spec,
                                            std::size_t load_index,
                                            std::uint32_t replication = 0);

/// Smallest swept load at which the run saturated (see
/// SimulationMetrics::saturated), or NaN if it never did.
[[nodiscard]] double saturation_load(const std::vector<SweepPoint>& points,
                                     const std::string& arbiter);

}  // namespace mmr

#include "mmr/core/experiment.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/log.hpp"
#include "mmr/sim/thread_pool.hpp"

namespace mmr {

void SweepSpec::validate() const {
  if (loads.empty()) throw std::invalid_argument("sweep has no loads");
  if (arbiters.empty()) throw std::invalid_argument("sweep has no arbiters");
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const double load = loads[i];
    if (!(load > 0.0) || !(load <= 2.0) || !std::isfinite(load)) {
      std::ostringstream msg;
      msg << "sweep loads[" << i << "] = " << load
          << " is outside (0, 2]; loads are offered-load fractions";
      throw std::invalid_argument(msg.str());
    }
    if (i > 0 && load <= loads[i - 1]) {
      std::ostringstream msg;
      msg << "sweep loads must be strictly ascending; loads[" << i
          << "] = " << load << (load == loads[i - 1] ? " duplicates" : " <= ")
          << " loads[" << i - 1 << "] = " << loads[i - 1];
      throw std::invalid_argument(msg.str());
    }
  }
}

Workload build_sweep_workload(const SweepSpec& spec, std::size_t load_index,
                              std::uint32_t replication) {
  MMR_ASSERT(load_index < spec.loads.size());
  // The workload stream depends on the *replication* only: every arbiter at
  // a point sees the same connections, traces and phases, and a higher load
  // extends a lower load's workload (common random numbers; the mix
  // builders fork per-link child streams to keep the prefixes aligned).
  (void)load_index;
  Rng rng(spec.base.seed, 0x100 + 0x10000ull * (replication + 1ull));
  switch (spec.kind) {
    case WorkloadKind::kCbr: {
      CbrMixSpec mix = spec.cbr;
      mix.target_load = spec.loads[load_index];
      return build_cbr_mix(spec.base, mix, rng);
    }
    case WorkloadKind::kVbr: {
      VbrMixSpec mix = spec.vbr;
      mix.target_load = spec.loads[load_index];
      return build_vbr_mix(spec.base, mix, rng);
    }
  }
  MMR_ASSERT_MSG(false, "unreachable workload kind");
  return Workload(spec.base.ports);
}

std::vector<SweepPoint> run_sweep(const SweepSpec& spec) {
  spec.validate();

  const std::uint32_t reps = std::max<std::uint32_t>(1, spec.replications);
  const std::size_t grid = spec.loads.size() * spec.arbiters.size();
  std::vector<SimulationMetrics> runs(grid * reps);

  // One config per (arbiter, replication), hoisted out of the parallel loop:
  // points at different loads reuse it by const reference instead of copying
  // SimConfig (several strings) once per simulation.  The simulation seed
  // depends on the arbiter so that stochastic arbiters (coa tie-breaks, pim)
  // are independently seeded per point; mix_seed's full-finalizer chain keeps
  // nearby (arbiter, replication) pairs decorrelated.
  std::vector<SimConfig> configs;
  configs.reserve(spec.arbiters.size() * reps);
  for (std::size_t arbiter_index = 0; arbiter_index < spec.arbiters.size();
       ++arbiter_index) {
    for (std::uint32_t replication = 0; replication < reps; ++replication) {
      SimConfig config = spec.base;
      config.arbiter = spec.arbiters[arbiter_index];
      config.seed = mix_seed(spec.base.seed, arbiter_index, replication);
      configs.push_back(std::move(config));
    }
  }
  // Every run's config, before the pool starts: a bad one throws in the
  // caller's thread, not from a worker.
  const NetworkTopology router = NetworkTopology::single(spec.base.ports);
  for (const SimConfig& config : configs) (void)validate(config, router);

  ThreadPool::parallel_for(grid * reps, spec.threads, [&](std::size_t index) {
    const std::size_t cell = index / reps;
    const auto replication = static_cast<std::uint32_t>(index % reps);
    const std::size_t arbiter_index = cell / spec.loads.size();
    const std::size_t load_index = cell % spec.loads.size();
    const SimConfig& config = configs[arbiter_index * reps + replication];

    MmrSimulation simulation(
        config, build_sweep_workload(spec, load_index, replication));
    runs[index] = simulation.run();
    log_info("sweep run done: ", config.arbiter, " @ ",
             spec.loads[load_index] * 100.0, "% rep ", replication,
             " (delivered ", runs[index].delivered_load * 100.0, "%)");
  });

  std::vector<SweepPoint> points(grid);
  for (std::size_t cell = 0; cell < grid; ++cell) {
    const std::size_t arbiter_index = cell / spec.loads.size();
    const std::size_t load_index = cell % spec.loads.size();
    std::vector<SimulationMetrics> cell_runs(
        runs.begin() + static_cast<std::ptrdiff_t>(cell * reps),
        runs.begin() + static_cast<std::ptrdiff_t>((cell + 1) * reps));
    points[cell].target_load = spec.loads[load_index];
    points[cell].arbiter = spec.arbiters[arbiter_index];
    points[cell].metrics = merge_runs(cell_runs);
  }
  return points;
}

double saturation_load(const std::vector<SweepPoint>& points,
                       const std::string& arbiter) {
  double best = std::numeric_limits<double>::quiet_NaN();
  for (const SweepPoint& point : points) {
    if (point.arbiter != arbiter) continue;
    if (!point.metrics.saturated()) continue;
    if (std::isnan(best) || point.target_load < best) {
      best = point.target_load;
    }
  }
  return best;
}

}  // namespace mmr

// Paper-style reporting: turns sweep results into the rows/series the
// figures plot (load on the x axis, one column per arbiter) plus CSV blocks
// for external re-plotting.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "mmr/core/experiment.hpp"
#include "mmr/sim/table.hpp"

namespace mmr {

using MetricExtractor = std::function<double(const SimulationMetrics&)>;

/// One ASCII table: rows = swept loads, columns = arbiters, cells =
/// extractor(metrics).  Missing points render as "-".
[[nodiscard]] AsciiTable sweep_table(const std::vector<SweepPoint>& points,
                                     const MetricExtractor& extract,
                                     int precision = 2);

/// CSV with one row per point and one column per named extractor.
void write_sweep_csv(std::ostream& out, const std::vector<SweepPoint>& points,
                     const std::vector<std::pair<std::string, MetricExtractor>>&
                         extractors);

// Common extractors -------------------------------------------------------

/// Mean flit delay (us) of one traffic class (NaN when the class is absent
/// or delivered nothing).
[[nodiscard]] MetricExtractor class_delay_us(const std::string& label);

[[nodiscard]] MetricExtractor crossbar_utilization_pct();
[[nodiscard]] MetricExtractor delivered_load_pct();
[[nodiscard]] MetricExtractor generated_load_pct();
[[nodiscard]] MetricExtractor frame_delay_us();
[[nodiscard]] MetricExtractor frame_jitter_us();

// Overload protection (mmr/overload/) -------------------------------------

/// One row per traffic class with the policer's verdict tallies, plus a
/// totals row.  `metrics.overload.enabled` must be true.
[[nodiscard]] AsciiTable overload_table(const SimulationMetrics& metrics);

/// Prints the watchdog ladder summary (stage residency, transitions) for a
/// run with overload accounting; prints nothing when it was off.
void print_overload_summary(std::ostream& out,
                            const SimulationMetrics& metrics);

/// Prints the standard bench footer: saturation loads per arbiter.
void print_saturation_summary(std::ostream& out,
                              const std::vector<SweepPoint>& points,
                              const std::vector<std::string>& arbiters);

}  // namespace mmr

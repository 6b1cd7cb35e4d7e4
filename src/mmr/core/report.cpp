#include "mmr/core/report.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "mmr/sim/csv.hpp"

namespace mmr {

namespace {

std::vector<double> sorted_loads(const std::vector<SweepPoint>& points) {
  std::set<double> loads;
  for (const SweepPoint& p : points) loads.insert(p.target_load);
  return {loads.begin(), loads.end()};
}

std::vector<std::string> arbiter_order(const std::vector<SweepPoint>& points) {
  std::vector<std::string> order;
  for (const SweepPoint& p : points) {
    if (std::find(order.begin(), order.end(), p.arbiter) == order.end()) {
      order.push_back(p.arbiter);
    }
  }
  return order;
}

const SweepPoint* find_point(const std::vector<SweepPoint>& points,
                             double load, const std::string& arbiter) {
  for (const SweepPoint& p : points) {
    if (p.target_load == load && p.arbiter == arbiter) return &p;
  }
  return nullptr;
}

}  // namespace

AsciiTable sweep_table(const std::vector<SweepPoint>& points,
                       const MetricExtractor& extract, int precision) {
  const std::vector<double> loads = sorted_loads(points);
  const std::vector<std::string> arbiters = arbiter_order(points);

  std::vector<std::string> header = {"load %"};
  header.insert(header.end(), arbiters.begin(), arbiters.end());
  AsciiTable table(std::move(header));

  for (double load : loads) {
    std::vector<std::string> row = {AsciiTable::num(load * 100.0, 0)};
    for (const std::string& arbiter : arbiters) {
      const SweepPoint* point = find_point(points, load, arbiter);
      row.push_back(point != nullptr
                        ? AsciiTable::num(extract(point->metrics), precision)
                        : "-");
    }
    table.add_row(std::move(row));
  }
  return table;
}

void write_sweep_csv(
    std::ostream& out, const std::vector<SweepPoint>& points,
    const std::vector<std::pair<std::string, MetricExtractor>>& extractors) {
  std::vector<std::string> header = {"arbiter", "target_load"};
  for (const auto& [name, extractor] : extractors) header.push_back(name);
  CsvWriter csv(out, header);
  for (const SweepPoint& point : points) {
    std::vector<std::string> row = {point.arbiter,
                                    AsciiTable::num(point.target_load, 4)};
    for (const auto& [name, extractor] : extractors) {
      const double value = extractor(point.metrics);
      row.push_back(std::isnan(value) ? "" : AsciiTable::num(value, 6));
    }
    csv.row(row);
  }
}

MetricExtractor class_delay_us(const std::string& label) {
  return [label](const SimulationMetrics& m) {
    const ClassMetrics* cls = m.find_class(label);
    if (cls == nullptr || cls->flit_delay_us.empty()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return cls->flit_delay_us.mean();
  };
}

MetricExtractor crossbar_utilization_pct() {
  return [](const SimulationMetrics& m) {
    return m.crossbar_utilization * 100.0;
  };
}

MetricExtractor delivered_load_pct() {
  return [](const SimulationMetrics& m) { return m.delivered_load * 100.0; };
}

MetricExtractor generated_load_pct() {
  return
      [](const SimulationMetrics& m) { return m.generated_load_measured * 100.0; };
}

MetricExtractor frame_delay_us() {
  return [](const SimulationMetrics& m) {
    return m.frame_delay_us.empty()
               ? std::numeric_limits<double>::quiet_NaN()
               : m.frame_delay_us.mean();
  };
}

MetricExtractor frame_jitter_us() {
  return [](const SimulationMetrics& m) {
    return m.frame_jitter_us.empty()
               ? std::numeric_limits<double>::quiet_NaN()
               : m.frame_jitter_us.mean();
  };
}

AsciiTable overload_table(const SimulationMetrics& metrics) {
  const OverloadMetrics& o = metrics.overload;
  AsciiTable table({"class", "conforming", "dropped", "demoted", "shaped",
                    "overflow", "shed"});
  const char* labels[3] = {"CBR", "VBR", "BE"};
  PolicedClassTally total;
  for (std::size_t c = 0; c < 3; ++c) {
    const PolicedClassTally& t = o.policed[c];
    table.add_row({labels[c], std::to_string(t.conforming),
                   std::to_string(t.dropped), std::to_string(t.demoted),
                   std::to_string(t.shaped), std::to_string(t.penalty_overflow),
                   std::to_string(t.shed)});
    total.conforming += t.conforming;
    total.dropped += t.dropped;
    total.demoted += t.demoted;
    total.shaped += t.shaped;
    total.penalty_overflow += t.penalty_overflow;
    total.shed += t.shed;
  }
  table.add_row({"total", std::to_string(total.conforming),
                 std::to_string(total.dropped), std::to_string(total.demoted),
                 std::to_string(total.shaped),
                 std::to_string(total.penalty_overflow),
                 std::to_string(total.shed)});
  return table;
}

void print_overload_summary(std::ostream& out,
                            const SimulationMetrics& metrics) {
  const OverloadMetrics& o = metrics.overload;
  if (!o.enabled) return;
  out << "Overload protection: policy=" << o.policy << ", rogue connections="
      << o.rogue_connections << ", noncompliant=" << o.noncompliant_connections
      << "\n";
  out << "  QoS deadline violations: compliant "
      << AsciiTable::num(o.compliant_violation_rate() * 100.0, 2) << "% ("
      << o.compliant_violations << "/" << o.compliant_delivered << "), rogue "
      << AsciiTable::num(o.rogue_violation_rate() * 100.0, 2) << "% ("
      << o.rogue_violations << "/" << o.rogue_delivered << ")\n";
  out << "  Policed actions: compliant " << o.compliant_policed << ", rogue "
      << o.rogue_policed << "\n";
  if (!o.shape_delay_us.empty()) {
    out << "  Shape delay: mean " << AsciiTable::num(o.shape_delay_us.mean(), 2)
        << " us over " << o.shape_delay_us.count() << " flits\n";
  }
  const std::uint64_t total_cycles = o.cycles_in_stage[0] +
                                     o.cycles_in_stage[1] +
                                     o.cycles_in_stage[2] + o.cycles_in_stage[3];
  if (total_cycles > 0) {
    out << "  Watchdog: " << o.watchdog_escalations << " escalations, "
        << o.watchdog_recoveries << " recoveries, " << o.watchdog_alarms
        << " alarms; degraded "
        << AsciiTable::num(o.degraded_fraction() * 100.0, 2)
        << "% of the run (shed " << o.cycles_in_stage[1] << ", clamp "
        << o.cycles_in_stage[2] << ", alarm " << o.cycles_in_stage[3]
        << " cycles)\n";
  }
}

void print_saturation_summary(std::ostream& out,
                              const std::vector<SweepPoint>& points,
                              const std::vector<std::string>& arbiters) {
  out << "Saturation (first swept load where delivery falls behind "
         "generation):\n";
  for (const std::string& arbiter : arbiters) {
    const double load = saturation_load(points, arbiter);
    out << "  " << arbiter << ": ";
    if (std::isnan(load)) {
      out << "not reached within the sweep\n";
    } else {
      out << AsciiTable::num(load * 100.0, 0) << "%\n";
    }
  }
}

}  // namespace mmr

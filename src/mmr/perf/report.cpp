#include "mmr/perf/report.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace mmr::perf {

namespace {

/// JSON string escaping for the label/kind/arbiter fields.
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

/// JSON numbers must be finite; clamp the pathological cases to 0.
double finite(double x) { return std::isfinite(x) ? x : 0.0; }

void write_probe_fields(std::ostream& out, const PerfProbe& probe,
                        const char* indent) {
  out << indent << "\"simulated_cycles\": " << probe.simulated_cycles()
      << ",\n";
  out << indent << "\"wall_seconds\": "
      << finite(static_cast<double>(probe.run_wall_ns()) * 1e-9) << ",\n";
  out << indent << "\"cycles_per_second\": "
      << finite(probe.cycles_per_second()) << ",\n";

  out << indent << "\"counters\": {";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto counter = static_cast<Counter>(i);
    if (i != 0) out << ", ";
    out << '"' << to_string(counter) << "\": " << probe.count(counter);
  }
  out << "},\n";

  out << indent << "\"phases\": {";
  bool first = true;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto phase = static_cast<Phase>(i);
    if (!first) out << ", ";
    first = false;
    out << '"' << to_string(phase) << "\": {\"seconds\": "
        << finite(static_cast<double>(probe.phase_ns(phase)) * 1e-9)
        << ", \"calls\": " << probe.phase_calls(phase)
        << ", \"share\": " << finite(probe.phase_share(phase)) << '}';
  }
  out << "}\n";
}

}  // namespace

void write_perf_json(std::ostream& out, const PerfReportMeta& meta,
                     const std::vector<PerfRecord>& records) {
  const auto saved_flags = out.flags();
  const auto saved_precision = out.precision();
  out << std::setprecision(12);

  out << "{\n";
  out << "  \"schema\": \"mmr-perf-v1\",\n";
  out << "  \"mode\": \"" << escape(meta.mode) << "\",\n";
  out << "  \"threads\": " << meta.threads << ",\n";
  out << "  \"probes_compiled\": true,\n";
  out << "  \"records\": [\n";
  for (std::size_t r = 0; r < records.size(); ++r) {
    const PerfRecord& record = records[r];
    out << "    {\n";
    out << "      \"label\": \"" << escape(record.label) << "\",\n";
    out << "      \"kind\": \"" << escape(record.kind) << "\",\n";
    out << "      \"arbiter\": \"" << escape(record.arbiter) << "\",\n";
    out << "      \"ports\": " << record.ports << ",\n";
    write_probe_fields(out, record.probe, "      ");
    out << "    }" << (r + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";

  out.flags(saved_flags);
  out.precision(saved_precision);
}

std::string render_phase_summary(const PerfRecord& record) {
  std::ostringstream out;
  const PerfProbe& probe = record.probe;
  out << record.label << ": "
      << std::fixed << std::setprecision(0) << probe.cycles_per_second()
      << " cycles/s over " << probe.simulated_cycles() << " cycles ("
      << std::setprecision(3)
      << static_cast<double>(probe.run_wall_ns()) * 1e-9 << " s)\n";
  const std::uint64_t attributed = probe.attributed_ns();
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto phase = static_cast<Phase>(i);
    if (probe.phase_calls(phase) == 0) continue;
    out << "    " << std::left << std::setw(14) << to_string(phase)
        << std::right << std::fixed << std::setprecision(1) << std::setw(6)
        << probe.phase_share(phase) * 100.0 << "% of wall, " << std::setw(6)
        << (attributed == 0
                ? 0.0
                : 100.0 * static_cast<double>(probe.phase_ns(phase)) /
                      static_cast<double>(attributed))
        << "% of attributed (" << probe.phase_calls(phase) << " scopes)\n";
  }
  bool any_counter = false;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (probe.count(static_cast<Counter>(i)) == 0) continue;
    if (!any_counter) out << "    counters:";
    any_counter = true;
    out << ' ' << to_string(static_cast<Counter>(i)) << '='
        << probe.count(static_cast<Counter>(i));
  }
  if (any_counter) out << '\n';
  return out.str();
}

}  // namespace mmr::perf

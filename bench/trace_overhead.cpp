// Trace-layer overhead: runs one golden-seed CBR workload three times —
// untraced, stream-traced, flight-traced — and reports wall time, event
// volume, and the relative slowdown of arming a tracer.  Also the tier-2
// smoke producer: `out=PATH` writes the stream run's mmr-trace-v1 JSONL for
// scripts/trace_lint.py.
//
// Usage: trace_overhead [out=PATH] [key=value SimConfig overrides...]

#include <chrono>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmr/core/simulation.hpp"
#include "mmr/sim/spec_parser.hpp"
#include "mmr/sim/table.hpp"
#include "mmr/trace/export.hpp"
#include "mmr/trace/tracer.hpp"

namespace {

struct Run {
  std::string label;
  mmr::SimulationMetrics metrics;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
};

Run run_once(const std::string& label, const mmr::SimConfig& config,
             mmr::trace::Tracer* tracer) {
  mmr::Rng rng(config.seed, 1);
  mmr::CbrMixSpec spec;
  spec.target_load = 0.6;
  spec.classes = {mmr::kCbrHigh, mmr::kCbrMedium};
  spec.class_weights = {3.0, 1.0};
  mmr::MmrSimulation simulation(config,
                                mmr::build_cbr_mix(config, spec, rng));
  const mmr::trace::TraceScope arm(tracer);
  const auto begin = std::chrono::steady_clock::now();
  Run run;
  run.metrics = simulation.run();
  const auto end = std::chrono::steady_clock::now();
  run.label = label;
  run.wall_seconds = std::chrono::duration<double>(end - begin).count();
  run.events = tracer != nullptr ? tracer->emitted() : 0;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  mmr::SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 5'000;
  config.measure_cycles = 50'000;
  config.arbiter = "coa";

  struct Options { std::string out; } options;
  std::vector<std::string> overrides;
  const mmr::spec::Grammar grammar{
      "trace_overhead", '=', {mmr::spec::bind<&Options::out>({.name = "out"})}};
  mmr::spec::parse_command_line(grammar, &options, argc, argv, &overrides);
  const std::string& out_path = options.out;
  mmr::configure(config, overrides);

  std::cout << "==== trace overhead (" << config.ports << "x" << config.ports
            << ", " << config.vcs_per_link << " VCs, "
            << config.total_cycles() << " cycles, arbiter "
            << config.arbiter << ") ====\n";

  const mmr::trace::TraceMeta meta = mmr::trace::TraceMeta::from_config(config);
  mmr::trace::Tracer stream(
      mmr::trace::TraceSpec::parse("stream,limit:50000000"), meta);
  mmr::trace::Tracer flight(mmr::trace::TraceSpec::parse("flight,ring:4096"),
                            meta);

  std::vector<Run> runs;
  runs.push_back(run_once("untraced", config, nullptr));
  runs.push_back(run_once("stream", config, &stream));
  runs.push_back(run_once("flight", config, &flight));

  // Tracing must never perturb results; a mismatch here is a bug, not noise.
  for (const Run& run : runs) {
    if (run.metrics.flits_delivered != runs.front().metrics.flits_delivered ||
        run.metrics.flit_delay_us.mean() !=
            runs.front().metrics.flit_delay_us.mean()) {
      std::cerr << "FAIL: " << run.label
                << " run diverged from the untraced run\n";
      return 1;
    }
  }

  const double cycles = static_cast<double>(config.total_cycles());
  const double base = runs.front().wall_seconds;
  mmr::AsciiTable table(
      {"mode", "wall ms", "Mcycles/s", "events", "events/cycle",
       "overhead"});
  for (const Run& run : runs) {
    char cell[64];
    std::vector<std::string> row = {run.label};
    std::snprintf(cell, sizeof cell, "%.1f", run.wall_seconds * 1e3);
    row.emplace_back(cell);
    std::snprintf(cell, sizeof cell, "%.2f",
                  cycles / run.wall_seconds / 1e6);
    row.emplace_back(cell);
    row.push_back(std::to_string(run.events));
    std::snprintf(cell, sizeof cell, "%.2f",
                  static_cast<double>(run.events) / cycles);
    row.emplace_back(cell);
    std::snprintf(cell, sizeof cell, "%+.1f%%",
                  (run.wall_seconds / base - 1.0) * 100.0);
    row.emplace_back(cell);
    table.add_row(std::move(row));
  }
  std::cout << table.render();

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "FAIL: cannot open " << out_path << "\n";
      return 1;
    }
    stream.export_jsonl(out, "end");
    std::cout << "wrote " << stream.emitted() - stream.truncated()
              << " events to " << out_path << "\n";
  }
  return 0;
}

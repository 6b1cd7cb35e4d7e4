// Traced saturation: fly the flight recorder into a deliberate overload.
//
// An over-subscribed CBR mix (120% offered load) drives the router into
// saturation; the staged watchdog escalates kNormal -> ... -> kAlarm, and
// the moment it reaches the alarm stage the flight recorder dumps the last
// N events per router as mmr-trace-v1 JSONL — the post-mortem you would
// want from a real switch.  The run also prints the per-connection summary
// for the recorded window.
//
//   ./traced_saturation [key=value ...]    (see src/mmr/sim/config.hpp)
//
// Examples:
//   ./traced_saturation trace=flight,ring:8192,dump:my-crash
//   ./traced_saturation police=demote,wd_window:256 measure=100000
//   python3 scripts/trace_lint.py traced-saturation-watchdog-alarm-0.jsonl

#include <cstdio>
#include <iostream>

#include "mmr/core/simulation.hpp"
#include "mmr/snapshot/signals.hpp"
#include "mmr/trace/export.hpp"
#include "mmr/trace/tracer.hpp"

int main(int argc, char** argv) {
  mmr::SimConfig config;
  config.measure_cycles = 50'000;
  // Aggressive watchdog thresholds so the ladder reaches kAlarm quickly
  // once the backlog takes off.
  config.police_spec = "demote,wd_window:128,wd_high:16,wd_low:4";
  config.trace_spec = "flight,ring:2048,dump:traced-saturation";

  mmr::configure(config, {argv + 1, argv + argc});

  std::printf("Traced saturation: %ux%u router, %s arbiter, trace=%s\n\n",
              config.ports, config.ports, config.arbiter.c_str(),
              config.trace_spec.c_str());

  mmr::Rng rng(config.seed, /*stream=*/1);
  mmr::CbrMixSpec mix;
  mix.target_load = 1.2;  // over-subscribed on purpose
  mix.classes = {mmr::kCbrHigh, mmr::kCbrMedium};
  mix.class_weights = {3.0, 1.0};
  mmr::MmrSimulation simulation = mmr::spec::or_exit([&] {
    return mmr::MmrSimulation(config, mmr::build_cbr_mix(config, mix, rng));
  });  // a fault= window off the topology is rejected here
  mmr::SimulationMetrics metrics;
  try {
    metrics = simulation.run();
  } catch (const mmr::snapshot::Interrupted& stop) {
    return mmr::snapshot::report_interrupted(stop);
  }

  std::printf("generated %llu flits, delivered %llu, backlog %llu\n",
              static_cast<unsigned long long>(metrics.flits_generated),
              static_cast<unsigned long long>(metrics.flits_delivered),
              static_cast<unsigned long long>(metrics.backlog_flits));

  const mmr::trace::Tracer* tracer = simulation.tracer();
  if (tracer == nullptr) {
    std::printf("\nno tracer configured (trace= was cleared); done.\n");
    return 0;
  }
  std::printf("traced %llu events into a %u-event flight ring\n\n",
              static_cast<unsigned long long>(tracer->emitted()),
              tracer->spec().ring);

  if (tracer->dump_paths().empty()) {
    std::printf("the watchdog never reached its alarm stage — raise the "
                "offered load or\nlower wd_high to see a flight dump.\n");
  } else {
    std::printf("flight recorder dumps (trigger in the filename):\n");
    for (const std::string& path : tracer->dump_paths())
      std::printf("  %s\n", path.c_str());
    std::printf("inspect with: python3 scripts/trace_lint.py %s\n",
                tracer->dump_paths().front().c_str());
  }

  std::printf("\nper-connection lifecycle counts over the recorded "
              "window:\n%s",
              mmr::trace::render_connection_summary(tracer->snapshot())
                  .c_str());
  return 0;
}

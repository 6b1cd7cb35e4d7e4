// Mixed-traffic scenario: the MMR's design goal is to satisfy QoS for
// multimedia connections *while allocating the remaining bandwidth to
// best-effort traffic*.  This example runs CBR voice/video + VBR MPEG-2 +
// best-effort messages through one router and reports how each class fares
// under the chosen arbiter.
//
//   ./mixed_traffic [key=value ...] [qos_load=0.55] [be_load=0.35]
//
// Try `./mixed_traffic arbiter=wfa` to watch the QoS-blind arbiter let the
// best-effort background eat into multimedia delays.

#include <cstdio>
#include <iostream>

#include "mmr/core/simulation.hpp"
#include "mmr/sim/spec_parser.hpp"
#include "mmr/sim/table.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  SimConfig config;
  config.measure_cycles = 250'000;

  struct Options { double qos_load = 0.55; double be_load = 0.35; } options;
  const spec::Grammar grammar{
      "mixed_traffic", '=',
      {spec::bind<&Options::qos_load>({.name = "qos_load", .dlo = 0}),
       spec::bind<&Options::be_load>(
           {.name = "be_load", .dlo = spec::kPositive})}};
  std::vector<std::string> overrides;
  spec::parse_command_line(grammar, &options, argc, argv, &overrides);
  const auto [qos_load, be_load] = options;
  configure(config, overrides);

  // One workload, three traffic kinds: half the QoS budget as CBR, half as
  // MPEG-2 VBR, plus best-effort background on top.
  Rng rng(config.seed, 0x301D);
  Workload workload(config.ports);
  CbrMixSpec cbr_spec;
  cbr_spec.target_load = qos_load / 2;
  add_cbr_mix(workload, config, cbr_spec, rng);
  VbrMixSpec vbr_spec;
  vbr_spec.target_load = qos_load / 2;
  vbr_spec.trace_gops = 6;
  add_vbr_mix(workload, config, vbr_spec, rng);
  BestEffortSpec be_spec;
  be_spec.load = be_load;
  be_spec.connections_per_link = 6;
  add_best_effort(workload, config, be_spec, rng);

  std::printf("Mixed traffic through a %ux%u MMR (%s arbiter): "
              "%.0f%% QoS + %.0f%% best-effort offered\n",
              config.ports, config.ports, config.arbiter.c_str(),
              qos_load * 100, be_load * 100);
  std::printf("  %zu connections (%.1f%% total generated load)\n\n",
              workload.size(),
              workload.generated_load(config.time_base()) * 100);

  const SimulationMetrics metrics =
      run_or_exit(config, std::move(workload));

  AsciiTable table({"class", "delivered flits", "mean delay (us)",
                    "p99 (us)", "max (us)"});
  for (const ClassMetrics& cls : metrics.per_class) {
    table.add_row({cls.label, std::to_string(cls.flits_delivered),
                   AsciiTable::num(cls.flit_delay_us.mean(), 1),
                   AsciiTable::num(cls.flit_delay_us.p99(), 1),
                   AsciiTable::num(cls.flit_delay_us.max(), 1)});
  }
  std::cout << table.render() << '\n';
  std::printf("crossbar utilization %.1f%%, delivered %.1f%% of %.1f%% "
              "generated%s\n",
              metrics.crossbar_utilization * 100,
              metrics.delivered_load * 100,
              metrics.generated_load_measured * 100,
              metrics.saturated() ? "  [SATURATED]" : "");
  std::printf("VBR frame delay %.1f us mean, jitter %.2f us mean\n",
              metrics.frame_delay_us.mean(), metrics.frame_jitter_us.mean());
  std::printf("\nReading guide: with the Candidate-Order Arbiter the QoS "
              "classes keep low,\nbounded delays while best-effort absorbs "
              "the slack; a priority-blind arbiter\nspreads the pain "
              "across every class instead.\n");
  return 0;
}

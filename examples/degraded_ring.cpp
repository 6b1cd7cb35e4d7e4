// Fault-injection example: the cluster ring from cluster_ring.cpp, but one
// ring link fails mid-run while background bit errors drop and corrupt the
// occasional flit.  Watch the network tear the affected connections down,
// reroute them the other way around the ring, and heal the leaked credits
// with the resync watchdog.
//
//   ./degraded_ring [key=value ...] [routers=4] [load=0.5] [fault=SPEC]
//
// The fault spec uses the same grammar as the `fault=` SimConfig override,
// e.g.  fault=drop:1e-3,down:0:30000:45000

#include <cstdio>

#include "mmr/core/simulation.hpp"
#include "mmr/sim/spec_parser.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  SimConfig config;
  config.measure_cycles = 150'000;

  struct Options { std::uint32_t routers = 4; double load = 0.5; } options;
  const spec::Grammar grammar{
      "degraded_ring", '=',
      {spec::bind<&Options::routers>({.name = "routers", .lo = 2}),
       spec::bind<&Options::load>({.name = "load", .dlo = spec::kPositive})}};
  std::vector<std::string> overrides;
  spec::parse_command_line(grammar, &options, argc, argv, &overrides);
  const auto [routers, load] = options;
  spec::or_exit([&] { apply_overrides(config, overrides); });
  std::string& fault_spec = config.fault_spec;
  if (fault_spec.empty()) {
    // Default drama: light bit errors everywhere, and ring channel 0 fails
    // for a third of the run.
    const Cycle down_at = config.warmup_cycles + config.measure_cycles / 3;
    const Cycle up_at = down_at + config.measure_cycles / 3;
    fault_spec = "drop:2e-4,corrupt:1e-4,credit_loss:1e-4,down:0:" +
                 std::to_string(down_at) + ":" + std::to_string(up_at);
  }
  // A ring router needs >= 3 ports: a smaller ports= override throws.
  const NetworkTopology ring = spec::or_exit([&] {
    NetworkTopology built =
        NetworkTopology::bidirectional_ring(routers, config.ports);
    // With the plan in place, which a snap=resume: digest covers.
    (void)validate(config, built);
    return built;
  });
  Rng rng(config.seed, 0xC1);
  CbrMixSpec mix;
  mix.target_load = load;
  Workload workload(ring);
  add_cbr_mix(workload, config, mix, rng);

  std::printf("Degraded ring: %u MMRs, %zu CBR connections, %s arbiter, "
              "%.0f%% load\nfault plan: %s\n",
              routers, workload.connections.size(), config.arbiter.c_str(),
              load * 100, fault_spec.c_str());

  const SimulationMetrics metrics =
      run_or_exit(config, std::move(workload));
  const DegradationMetrics& deg = metrics.degradation;

  std::printf("\nAfter %llu measured cycles:\n",
              static_cast<unsigned long long>(config.measure_cycles));
  std::printf("  delivered %llu of %llu generated flits\n",
              static_cast<unsigned long long>(metrics.flits_delivered),
              static_cast<unsigned long long>(metrics.flits_generated));
  std::printf("  wire losses: %llu dropped, %llu corrupted, %llu flushed at "
              "teardown\n",
              static_cast<unsigned long long>(deg.flits_dropped),
              static_cast<unsigned long long>(deg.flits_corrupted),
              static_cast<unsigned long long>(deg.flits_flushed));
  std::printf("  credits: %llu lost on the wire, %llu healed in %llu resync "
              "events\n",
              static_cast<unsigned long long>(deg.credits_lost),
              static_cast<unsigned long long>(deg.credits_restored),
              static_cast<unsigned long long>(deg.resync_events));
  std::printf("  connections: %llu torn down, %llu rerouted, %llu re-admitted "
              "after the\n  link came back, %llu lost for good\n",
              static_cast<unsigned long long>(deg.teardowns),
              static_cast<unsigned long long>(deg.reroutes),
              static_cast<unsigned long long>(deg.readmissions),
              static_cast<unsigned long long>(deg.connections_lost));
  if (!deg.recovery_latency_us.empty()) {
    std::printf("  recovery latency: mean %.1f us, p95 %.1f us, max %.1f us\n",
                deg.recovery_latency_us.mean(),
                deg.recovery_latency_us.p95(),
                deg.recovery_latency_us.max());
  }
  std::printf("  QoS violations (> %.0f-cycle deadline): %.2f%% during fault "
              "windows vs\n  %.2f%% in calm conditions\n",
              FaultPlan::parse(fault_spec).qos_deadline_cycles,
              deg.violation_rate_during_fault() * 100,
              deg.violation_rate_outside_fault() * 100);
  std::printf("\n  per-class survival:");
  for (const ClassMetrics& cls : metrics.per_class) {
    std::printf("  %s %.2f%%", cls.label.c_str(),
                survival_rate(cls) * 100);
  }
  std::printf("\n");
  return 0;
}

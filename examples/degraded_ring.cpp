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
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "mmr/network/network.hpp"
#include "mmr/snapshot/signals.hpp"
#include "mmr/snapshot/spec.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  SimConfig config;
  config.measure_cycles = 150'000;

  std::uint32_t routers = 4;
  double load = 0.5;
  std::string fault_spec;
  std::vector<std::string> overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("routers=", 0) == 0) {
      routers = static_cast<std::uint32_t>(std::stoul(arg.substr(8)));
    } else if (arg.rfind("load=", 0) == 0) {
      load = std::stod(arg.substr(5));
    } else if (arg.rfind("fault=", 0) == 0) {
      fault_spec = arg.substr(6);
    } else {
      overrides.push_back(arg);
    }
  }
  try {
    apply_overrides(config, overrides);
    (void)FaultPlan::parse(fault_spec);  // fail fast on a bad fault= spec
    validate_specs(config);
  } catch (const std::exception& error) {
    const std::string what = error.what();
    std::cerr << (what.rfind("error:", 0) == 0 ? "" : "error: ") << what
              << '\n';
    return 1;
  }
  if (fault_spec.empty()) {
    // Default drama: light bit errors everywhere, and ring channel 0 fails
    // for a third of the run.
    const Cycle down_at = config.warmup_cycles + config.measure_cycles / 3;
    const Cycle up_at = down_at + config.measure_cycles / 3;
    fault_spec = "drop:2e-4,corrupt:1e-4,credit_loss:1e-4,down:0:" +
                 std::to_string(down_at) + ":" + std::to_string(up_at);
  }
  config.fault_spec = fault_spec;

  // Degenerate routers= values throw from the topology factory; surface
  // them as a clean diagnostic rather than an uncaught-exception abort.
  const NetworkTopology ring = [&]() -> NetworkTopology {
    try {
      return NetworkTopology::bidirectional_ring(routers, config.ports);
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << '\n';
      std::exit(1);
    }
  }();
  Rng rng(config.seed, 0xC1);
  CbrMixSpec mix;
  mix.target_load = load;
  NetworkWorkload workload = build_network_cbr_mix(config, ring, mix, rng);

  std::printf("Degraded ring: %u MMRs, %zu CBR connections, %s arbiter, "
              "%.0f%% load\nfault plan: %s\n",
              routers, workload.connections.size(), config.arbiter.c_str(),
              load * 100, fault_spec.c_str());

  NetworkMetrics metrics;
  try {
    MmrNetworkSimulation simulation(config, std::move(workload));
    metrics = simulation.run();
  } catch (const snapshot::Interrupted& stop) {
    return snapshot::report_interrupted(stop);
  } catch (const std::invalid_argument& error) {  // fault= off the topology
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
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
                deg.recovery_latency_hist.p95(),
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

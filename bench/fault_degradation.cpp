// Robustness bench: COA vs WFA on a ring of MMRs under an identical,
// deterministic fault plan.  A mid-run link outage forces teardown and
// re-admission over the next shortest path while background bit-error rates
// drop/corrupt flits and lose credit returns; the credit-resync watchdog
// heals the leaks.  Reported per arbiter: loss counts, recovery-latency
// percentiles, QoS-violation rates during vs outside the fault windows, and
// per-class survival.
//
// Extra keys on top of the usual bench args:
//   fault=SPEC      fault plan (default: drop:2e-4,corrupt:1e-4,
//                   credit_loss:1e-4 plus one outage window per run)
//   routers=N       ring size (default 4)

#include <iostream>

#include "bench_util.hpp"
#include "mmr/core/simulation.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  if (args.loads.empty()) {
    args.loads = args.full ? std::vector<double>{0.30, 0.45, 0.60}
                           : std::vector<double>{0.40};
  }
  std::uint32_t routers = 4;
  std::string fault_spec;
  for (const std::string& kv : args.config_overrides) {
    if (kv.rfind("routers=", 0) == 0) {
      routers = static_cast<std::uint32_t>(std::stoul(kv.substr(8)));
    }
    if (kv.rfind("fault=", 0) == 0) fault_spec = kv.substr(6);
  }
  std::erase_if(args.config_overrides, [](const std::string& kv) {
    return kv.rfind("routers=", 0) == 0 || kv.rfind("fault=", 0) == 0;
  });

  SimConfig base;
  bench::apply_run_scale(base, args, /*quick=*/120'000, /*full=*/500'000);

  const NetworkTopology ring =
      NetworkTopology::bidirectional_ring(routers, base.ports);
  std::cout << "==== Fault injection: " << routers
            << "-router ring under a deterministic fault plan ====\n"
            << "cycles: " << base.warmup_cycles << " warmup + "
            << base.measure_cycles << " measured\n";

  // One outage window in the middle of the measurement phase plus light
  // stochastic losses everywhere, unless the caller provided a spec.
  if (fault_spec.empty()) {
    const Cycle down_at = base.warmup_cycles + base.measure_cycles / 3;
    const Cycle up_at = down_at + base.measure_cycles / 6;
    fault_spec = "drop:2e-4,corrupt:1e-4,credit_loss:1e-4,down:0:" +
                 std::to_string(down_at) + ":" + std::to_string(up_at);
  }
  try {
    // Fail fast on a bad fault= spec, channels included.
    FaultPlan::parse(fault_spec).validate(ring.channels());
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
  std::cout << "fault plan: " << fault_spec << "\n\n";

  AsciiTable table({"load %", "arbiter", "delivered %", "dropped", "corrupted",
                    "cred lost/healed", "teardown/reroute/readmit",
                    "recovery p50/p95 us", "viol% fault", "viol% calm"});
  std::vector<std::pair<double, std::vector<SimulationMetrics>>> grid;
  for (double load : args.loads) {
    std::vector<SimulationMetrics> row;
    for (const std::string& arbiter : args.arbiters) {
      SimConfig config = base;
      config.arbiter = arbiter;
      config.fault_spec = fault_spec;
      // Identical workload per arbiter: the comparison isolates scheduling.
      Rng rng(config.seed, 0xFA0 + static_cast<std::uint64_t>(load * 1000));
      CbrMixSpec spec;
      spec.target_load = load;
      spec.classes = {kCbrHigh, kCbrMedium, kCbrLow};
      spec.class_weights = {1.0, 1.0, 1.0};
      Workload workload(ring);
      add_cbr_mix(workload, config, spec, rng);
      MmrSimulation simulation(config, std::move(workload));
      const SimulationMetrics m = simulation.run();
      const DegradationMetrics& deg = m.degradation;
      table.add_row(
          {AsciiTable::num(load * 100, 0), arbiter,
           AsciiTable::num(m.flits_generated == 0
                               ? 0.0
                               : 100.0 *
                                     static_cast<double>(m.flits_delivered) /
                                     static_cast<double>(m.flits_generated),
                           1),
           std::to_string(deg.flits_dropped),
           std::to_string(deg.flits_corrupted),
           std::to_string(deg.credits_lost) + "/" +
               std::to_string(deg.credits_restored),
           std::to_string(deg.teardowns) + "/" + std::to_string(deg.reroutes) +
               "/" + std::to_string(deg.readmissions),
           AsciiTable::num(deg.recovery_latency_us.p50(), 1) + "/" +
               AsciiTable::num(deg.recovery_latency_us.p95(), 1),
           AsciiTable::num(deg.violation_rate_during_fault() * 100, 2),
           AsciiTable::num(deg.violation_rate_outside_fault() * 100, 2)});
      row.push_back(m);
    }
    grid.emplace_back(load, std::move(row));
  }
  std::cout << table.render() << '\n';

  // Per-class survival at the heaviest load: QoS scheduling should keep the
  // high-bandwidth CBR class alive at the same rate as the rest (losses here
  // are wire faults, not scheduling starvation).
  std::cout << "Per-class survival (delivered/generated) at "
            << AsciiTable::num(grid.back().first * 100, 0) << "% load\n";
  std::vector<std::string> survival_header = {"class"};
  survival_header.insert(survival_header.end(), args.arbiters.begin(),
                         args.arbiters.end());
  AsciiTable survival_table(survival_header);
  const std::vector<SimulationMetrics>& heavy = grid.back().second;
  if (!heavy.empty()) {
    for (std::size_t cls = 0; cls < heavy.front().per_class.size(); ++cls) {
      std::vector<std::string> cells = {heavy.front().per_class[cls].label};
      for (const SimulationMetrics& m : heavy) {
        cells.push_back(AsciiTable::num(survival_rate(m.per_class[cls]) * 100,
                                        2) + "%");
      }
      survival_table.add_row(std::move(cells));
    }
  }
  std::cout << survival_table.render();
  std::cout << "\nExpected shape: wire losses are comparable across arbiters "
               "(the plan and its\nRNG streams are identical; only the flit "
               "arrival order differs), while the\nviolation-rate split shows "
               "how each arbiter absorbs the reroute detour and\nthe queue "
               "backlog behind the outage.\n";
  return 0;
}

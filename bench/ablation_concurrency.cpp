// Ablation: the VBR admission concurrency factor (Section 2).  "The
// concurrency factor is a trade-off between the ability to make QoS
// guarantees, the number of connections that can be concurrently serviced,
// and link utilization."  With admission ENFORCED, we offer more VBR load
// than fits and let the CAC decide: a small factor admits few connections
// (strong guarantees, low utilization); a large factor admits many
// (utilization up, QoS softer under coincident peaks).

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  bench::BenchArgs args = bench::parse_args(argc, argv, {"arbiters"});
  const std::vector<double> factors = {1.0, 1.5, 2.0, 3.0, 5.0};
  const double offered = 1.2;  // more than admission can ever accept

  SimConfig base;
  base.arbiter = args.arbiters.front();
  bench::apply_run_scale(base, args, /*quick=*/250'000, /*full=*/1'000'000);

  std::cout << "==== Ablation: VBR admission concurrency factor ====\n"
            << "offered " << offered * 100 << "% VBR per link, admission "
            << "enforced, SR injection, arbiter " << base.arbiter << "\n\n";

  AsciiTable table({"factor", "admitted conns", "admitted load %",
                    "delivered %", "frame delay us", "p99 frame us",
                    "mean jitter us"});
  for (double factor : factors) {
    SimConfig config = base;
    config.concurrency_factor = factor;
    Rng rng(config.seed, 0xCF);
    VbrMixSpec spec;
    spec.target_load = offered;
    spec.trace_gops = 8;
    spec.enforce_admission = true;
    Workload workload = build_vbr_mix(config, spec, rng);
    const std::size_t connections = workload.size();
    const double admitted_load =
        workload.generated_load(config.time_base());
    const SimulationMetrics metrics = run_or_exit(config, std::move(workload));
    table.add_row(
        {AsciiTable::num(factor, 1), std::to_string(connections),
         AsciiTable::num(admitted_load * 100, 1),
         AsciiTable::num(metrics.delivered_load * 100, 1),
         AsciiTable::num(metrics.frame_delay_us.mean(), 1),
         AsciiTable::num(metrics.frame_delay_us.p99(), 1),
         AsciiTable::num(metrics.frame_jitter_us.mean(), 2)});
  }
  std::cout << table.render();
  std::cout << "\nExpected shape: admitted connections and utilization grow "
               "with the factor\n(rule (b) loosens) until the average-rate "
               "rule (a) binds; frame delay and\njitter grow as coincident "
               "peaks start to exceed the round.\n";
  return 0;
}

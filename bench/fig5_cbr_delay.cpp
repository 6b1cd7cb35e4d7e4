// Figure 5: average flit delay since generation vs offered load for CBR
// traffic, per bandwidth class (64 Kbps / 1.54 Mbps / 55 Mbps), comparing
// the Candidate-Order Arbiter with the Wave Front Arbiter.
//
// Paper result: both schemes are comparable for the low and medium classes;
// for the 55 Mbps class WFA saturates around 70% offered load while COA
// holds to about 83%, because COA allocates output bandwidth by priority.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  bench::BenchArgs args =
      bench::parse_args(argc, argv, {"loads", "arbiters", "threads"});
  if (args.loads.empty()) {
    args.loads = args.full
                     ? std::vector<double>{0.10, 0.20, 0.30, 0.40, 0.50, 0.60,
                                           0.65, 0.70, 0.75, 0.80, 0.83, 0.85,
                                           0.90}
                     : std::vector<double>{0.20, 0.40, 0.60, 0.70, 0.78, 0.85,
                                           0.92};
  }

  SweepSpec spec;
  spec.kind = WorkloadKind::kCbr;
  spec.loads = args.loads;
  spec.arbiters = args.arbiters;
  spec.threads = args.threads;
  // Uniform random destinations, as in the paper; replications pool several
  // workload draws per point so one hot output link does not dominate.
  spec.cbr.destinations = DestinationPolicy::kUniformRandom;
  spec.replications = args.full ? 5 : 3;
  bench::apply_run_scale(spec.base, args, /*quick=*/250'000,
                         /*full=*/1'000'000);

  bench::print_header("Figure 5: CBR average flit delay since generation",
                      spec, args.full);
  const std::vector<SweepPoint> points = run_sweep(spec);

  const struct {
    const char* figure;
    const char* label;
  } panels[] = {
      {"Fig 5(a)", "CBR 64 Kbps"},
      {"Fig 5(b)", "CBR 1.54 Mbps"},
      {"Fig 5(c)", "CBR 55 Mbps"},
  };
  for (const auto& panel : panels) {
    std::cout << panel.figure << ": " << panel.label
              << " connections — average flit delay (us)\n";
    std::cout << sweep_table(points, class_delay_us(panel.label), 2).render()
              << '\n';
  }

  std::cout << "Crossbar utilization (%) — context for the saturation "
               "points\n";
  std::cout << sweep_table(points, crossbar_utilization_pct(), 1).render()
            << '\n';
  print_saturation_summary(std::cout, points, spec.arbiters);

  std::vector<std::pair<std::string, MetricExtractor>> extractors = {
      {"delay_64k_us", class_delay_us("CBR 64 Kbps")},
      {"delay_1540k_us", class_delay_us("CBR 1.54 Mbps")},
      {"delay_55m_us", class_delay_us("CBR 55 Mbps")},
      {"utilization_pct", crossbar_utilization_pct()},
      {"delivered_pct", delivered_load_pct()},
      {"generated_pct", generated_load_pct()},
  };
  bench::print_csv_block(points, extractors);
  return 0;
}

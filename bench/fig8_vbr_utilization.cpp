// Figure 8: average crossbar utilization vs generated load for VBR (MPEG-2)
// traffic, under both injection models (SR left, BB right), COA vs WFA.
//
// Paper result: with WFA, utilization degrades (falls below the generated
// load) from about 75%; with COA the saturation point moves to about 85%.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  bench::BenchArgs args =
      bench::parse_args(argc, argv, {"loads", "arbiters", "threads"});
  if (args.loads.empty()) {
    args.loads = args.full ? std::vector<double>{0.40, 0.50, 0.60, 0.70, 0.75,
                                                 0.80, 0.85, 0.90}
                           : std::vector<double>{0.50, 0.65, 0.75, 0.85, 0.90};
  }

  for (const InjectionModel model :
       {InjectionModel::kSmoothRate, InjectionModel::kBackToBack}) {
    SweepSpec spec;
    spec.kind = WorkloadKind::kVbr;
    spec.loads = args.loads;
    spec.arbiters = args.arbiters;
    spec.threads = args.threads;
    spec.vbr.model = model;
    spec.vbr.trace_gops = 8;
    spec.replications = args.full ? 4 : 2;
    // ~4 GOP times at paper scale (the paper forwards 4 GOPs/connection).
    bench::apply_run_scale(spec.base, args, /*quick=*/300'000,
                           /*full=*/1'600'000);

    bench::print_header(
        std::string("Figure 8: VBR average crossbar utilization, ") +
            to_string(model) + " injection model",
        spec, args.full);
    const std::vector<SweepPoint> points = run_sweep(spec);

    std::cout << "Average crossbar utilization (%) vs generated load\n";
    std::cout << sweep_table(points, crossbar_utilization_pct(), 1).render()
              << '\n';
    print_saturation_summary(std::cout, points, spec.arbiters);

    bench::print_csv_block(
        points, {{"utilization_pct", crossbar_utilization_pct()},
                 {"delivered_pct", delivered_load_pct()},
                 {"generated_pct", generated_load_pct()},
                 {"frame_delay_us", frame_delay_us()}});
    std::cout << '\n';
  }
  return 0;
}

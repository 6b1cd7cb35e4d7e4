// Figure 9: average frame delay since generation (log scale in the paper)
// vs generated load for VBR MPEG-2 traffic, SR and BB injection models.
// Frame delay = delay of a frame's last flit measured from the frame
// boundary, making the metric independent of the injection model.
//
// Paper result: with COA, SR frame delays stay low up to ~78% and rise
// sharply at ~80%; WFA saturates around 70%.  BB delays are higher below
// saturation but saturate at the same loads.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  bench::BenchArgs args =
      bench::parse_args(argc, argv, {"loads", "arbiters", "threads"});
  if (args.loads.empty()) {
    args.loads = args.full ? std::vector<double>{0.40, 0.50, 0.60, 0.65, 0.70,
                                                 0.75, 0.78, 0.80, 0.85}
                           : std::vector<double>{0.50, 0.65, 0.70, 0.78, 0.85};
  }

  std::vector<std::vector<SweepPoint>> all_points;
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
    bench::apply_run_scale(spec.base, args, /*quick=*/300'000,
                           /*full=*/1'600'000);

    bench::print_header(
        std::string("Figure 9: VBR average frame delay since generation, ") +
            to_string(model) + " injection model",
        spec, args.full);
    const std::vector<SweepPoint> points = run_sweep(spec);
    all_points.push_back(points);

    std::cout << "Average FRAME delay (us) vs generated load\n";
    std::cout << sweep_table(points, frame_delay_us(), 1).render() << '\n';
    print_saturation_summary(std::cout, points, spec.arbiters);

    bench::print_csv_block(points,
                           {{"frame_delay_us", frame_delay_us()},
                            {"frame_jitter_us", frame_jitter_us()},
                            {"utilization_pct", crossbar_utilization_pct()},
                            {"delivered_pct", delivered_load_pct()},
                            {"generated_pct", generated_load_pct()}});
    std::cout << '\n';
  }

  std::cout << "BB-vs-SR check (paper: BB delays higher below saturation, "
               "same saturation load):\n";
  for (const std::string& arbiter : args.arbiters) {
    std::cout << "  " << arbiter << ": SR saturates at "
              << AsciiTable::num(saturation_load(all_points[0], arbiter) * 100,
                                 0)
              << "%, BB at "
              << AsciiTable::num(saturation_load(all_points[1], arbiter) * 100,
                                 0)
              << "%\n";
  }
  return 0;
}

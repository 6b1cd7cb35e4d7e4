// Section 5.2's jitter discussion (no figure in the paper): average frame
// jitter — the delay variation between adjacent frames of one connection —
// for both injection models, below saturation.
//
// Paper result: average jitters stay under ~8 us (SR) and ~10s of us (BB),
// far below the several milliseconds MPEG-2 playback tolerates.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  bench::BenchArgs args =
      bench::parse_args(argc, argv, {"loads", "arbiters", "threads"});
  if (args.loads.empty()) {
    args.loads = args.full
                     ? std::vector<double>{0.30, 0.45, 0.60, 0.70, 0.75}
                     : std::vector<double>{0.40, 0.60, 0.72};
  }

  std::cout << "==== Section 5.2: VBR frame jitter (per-connection mean of "
               "|delay_i - delay_{i-1}|) ====\n\n";
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

    const std::vector<SweepPoint> points = run_sweep(spec);

    std::cout << to_string(model)
              << " injection model — mean frame jitter (us)\n";
    std::cout << sweep_table(points, frame_jitter_us(), 2).render();
    std::cout << to_string(model)
              << " injection model — max frame jitter (us)\n";
    std::cout << sweep_table(points,
                             [](const SimulationMetrics& m) {
                               return m.max_frame_jitter_us;
                             },
                             2)
                     .render()
              << '\n';

    bench::print_csv_block(points,
                           {{"mean_jitter_us", frame_jitter_us()},
                            {"max_jitter_us",
                             [](const SimulationMetrics& m) {
                               return m.max_frame_jitter_us;
                             }},
                            {"frame_delay_us", frame_delay_us()}});
    std::cout << '\n';
  }
  std::cout << "Reference: MPEG-2 video transmission tolerates jitter of "
               "several milliseconds\n(absorbed at the destination), so "
               "values in the tens of microseconds satisfy QoS.\n";
  return 0;
}

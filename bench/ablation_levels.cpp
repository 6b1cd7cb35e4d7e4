// Ablation: number of candidate levels (the paper fixes L = 4).  More
// levels give the switch scheduler more alternatives per input port —
// better matchings at high load at the cost of wider selection hardware.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  bench::BenchArgs args =
      bench::parse_args(argc, argv, {"loads", "arbiters", "threads"});
  if (args.loads.empty()) args.loads = {0.60, 0.75, 0.85};
  const std::vector<std::uint32_t> level_choices = {1, 2, 4, 8};

  std::cout << "==== Ablation: candidate levels (paper uses 4) ====\n\n";
  for (const std::string& arbiter : args.arbiters) {
    std::vector<std::string> header = {"load %"};
    for (std::uint32_t levels : level_choices)
      header.push_back("L=" + std::to_string(levels));
    AsciiTable delivered(header);
    AsciiTable delay(header);

    // One sweep per level count; rows assembled across sweeps.
    std::vector<std::vector<SweepPoint>> results;
    for (std::uint32_t levels : level_choices) {
      SweepSpec spec;
      spec.kind = WorkloadKind::kCbr;
      spec.loads = args.loads;
      spec.arbiters = {arbiter};
      spec.threads = args.threads;
      spec.replications = args.full ? 4 : 2;
      bench::apply_run_scale(spec.base, args, /*quick=*/120'000,
                             /*full=*/600'000);
      spec.base.candidate_levels = levels;
      results.push_back(run_sweep(spec));
    }
    for (std::size_t li = 0; li < args.loads.size(); ++li) {
      std::vector<std::string> row_delivered = {
          AsciiTable::num(args.loads[li] * 100, 0)};
      std::vector<std::string> row_delay = row_delivered;
      for (std::size_t c = 0; c < level_choices.size(); ++c) {
        const SimulationMetrics& m = results[c][li].metrics;
        row_delivered.push_back(AsciiTable::num(m.delivered_load * 100, 1));
        row_delay.push_back(AsciiTable::num(m.flit_delay_us.mean(), 1));
      }
      delivered.add_row(std::move(row_delivered));
      delay.add_row(std::move(row_delay));
    }
    std::cout << arbiter << " — delivered load (%)\n" << delivered.render();
    std::cout << arbiter << " — mean flit delay (us)\n" << delay.render()
              << '\n';
  }
  return 0;
}

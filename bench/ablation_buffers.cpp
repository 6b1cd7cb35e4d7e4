// Ablation: VC buffer depth (credits per VC).  The MMR's credit-based flow
// control is designed to need only "a few flits" per VC; this measures what
// depth actually buys at a demanding load.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  bench::BenchArgs args =
      bench::parse_args(argc, argv, {"loads", "arbiters", "threads"});
  if (args.loads.empty()) args.loads = {0.60, 0.75, 0.85};
  const std::vector<std::uint32_t> depths = {1, 2, 4, 8};

  std::cout << "==== Ablation: MMR buffer depth per VC (credits) ====\n\n";
  for (const std::string& arbiter : args.arbiters) {
    std::vector<std::string> header = {"load %"};
    for (std::uint32_t depth : depths)
      header.push_back("B=" + std::to_string(depth));
    AsciiTable delivered(header);
    AsciiTable delay(header);

    std::vector<std::vector<SweepPoint>> results;
    for (std::uint32_t depth : depths) {
      SweepSpec spec;
      spec.kind = WorkloadKind::kCbr;
      spec.loads = args.loads;
      spec.arbiters = {arbiter};
      spec.threads = args.threads;
      spec.replications = args.full ? 4 : 2;
      bench::apply_run_scale(spec.base, args, /*quick=*/120'000,
                             /*full=*/600'000);
      spec.base.buffer_flits_per_vc = depth;
      results.push_back(run_sweep(spec));
    }
    for (std::size_t li = 0; li < args.loads.size(); ++li) {
      std::vector<std::string> rowd = {AsciiTable::num(args.loads[li] * 100, 0)};
      std::vector<std::string> rowl = rowd;
      for (std::size_t c = 0; c < depths.size(); ++c) {
        const SimulationMetrics& m = results[c][li].metrics;
        rowd.push_back(AsciiTable::num(m.delivered_load * 100, 1));
        rowl.push_back(AsciiTable::num(m.flit_delay_us.mean(), 1));
      }
      delivered.add_row(std::move(rowd));
      delay.add_row(std::move(rowl));
    }
    std::cout << arbiter << " — delivered load (%)\n" << delivered.render();
    std::cout << arbiter << " — mean flit delay (us)\n" << delay.render()
              << '\n';
  }
  return 0;
}

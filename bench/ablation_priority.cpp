// Ablation: the priority biasing function (Section 3.1).  SIABP is the
// hardware-friendly shift-based approximation of IABP; fifo-age ignores
// bandwidth needs, static ignores waiting time.  Run with the COA (which
// consumes the priorities) at a demanding load.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  bench::BenchArgs args = bench::parse_args(argc, argv, {"loads", "threads"});
  if (args.loads.empty()) args.loads = {0.60, 0.75, 0.85};
  const std::vector<PriorityScheme> schemes = {
      PriorityScheme::kSiabp, PriorityScheme::kIabp, PriorityScheme::kFifoAge,
      PriorityScheme::kStatic};

  std::cout << "==== Ablation: link-scheduler priority biasing functions "
               "====\n(arbiter: coa; IABP needs a hardware divider, SIABP "
               "only a shifter — the paper\nreports 10x area and 38x delay "
               "reduction with equal QoS)\n\n";

  std::vector<std::string> header = {"load %"};
  for (PriorityScheme scheme : schemes)
    header.emplace_back(to_string(scheme));
  AsciiTable delay55(header);
  AsciiTable delay64k(header);
  AsciiTable delivered(header);

  std::vector<std::vector<SweepPoint>> results;
  for (PriorityScheme scheme : schemes) {
    SweepSpec spec;
    spec.kind = WorkloadKind::kCbr;
    spec.loads = args.loads;
    spec.arbiters = {"coa"};
    spec.threads = args.threads;
    spec.replications = args.full ? 4 : 2;
    bench::apply_run_scale(spec.base, args, /*quick=*/120'000,
                           /*full=*/600'000);
    spec.base.priority_scheme = scheme;
    results.push_back(run_sweep(spec));
  }
  const auto delay_of = [](const SimulationMetrics& m, const char* label) {
    const ClassMetrics* cls = m.find_class(label);
    return cls == nullptr || cls->flit_delay_us.empty()
               ? std::numeric_limits<double>::quiet_NaN()
               : cls->flit_delay_us.mean();
  };
  for (std::size_t li = 0; li < args.loads.size(); ++li) {
    std::vector<std::string> row55 = {AsciiTable::num(args.loads[li] * 100, 0)};
    std::vector<std::string> row64 = row55;
    std::vector<std::string> rowd = row55;
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const SimulationMetrics& m = results[s][li].metrics;
      row55.push_back(AsciiTable::num(delay_of(m, "CBR 55 Mbps"), 1));
      row64.push_back(AsciiTable::num(delay_of(m, "CBR 64 Kbps"), 1));
      rowd.push_back(AsciiTable::num(m.delivered_load * 100, 1));
    }
    delay55.add_row(std::move(row55));
    delay64k.add_row(std::move(row64));
    delivered.add_row(std::move(rowd));
  }
  std::cout << "mean flit delay, CBR 55 Mbps class (us)\n" << delay55.render();
  std::cout << "mean flit delay, CBR 64 Kbps class (us)\n" << delay64k.render();
  std::cout << "delivered load (%)\n" << delivered.render();
  std::cout << "\nExpected: siabp tracks iabp closely (the paper's point); "
               "fifo-age neglects\nhigh-bandwidth connections; static "
               "neglects waiting flits.\n";
  return 0;
}

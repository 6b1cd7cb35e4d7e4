// QoS protection under best-effort background (the MMR's design goal:
// "satisfy the QoS requirements ... while allocating the remaining
// bandwidth to best-effort traffic").  Fixed QoS load, growing best-effort
// background: with COA the multimedia classes must stay flat while BE
// absorbs the congestion; a priority-blind arbiter lets BE push multimedia
// delays up.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  bench::BenchArgs args = bench::parse_args(argc, argv, {"arbiters"});
  const double qos_load = 0.5;
  const std::vector<double> be_loads =
      args.full ? std::vector<double>{0.0, 0.1, 0.2, 0.3, 0.4, 0.5}
                : std::vector<double>{0.0, 0.2, 0.4};

  SimConfig base;
  bench::apply_run_scale(base, args, /*quick=*/200'000, /*full=*/800'000);

  std::cout << "==== QoS protection: " << qos_load * 100
            << "% CBR + growing best-effort background ====\n\n";
  for (const std::string& arbiter : args.arbiters) {
    AsciiTable table({"BE load %", "CBR 55M delay us", "CBR 64K delay us",
                      "BE delay us", "delivered %"});
    for (double be_load : be_loads) {
      SimConfig config = base;
      config.arbiter = arbiter;
      Rng rng(config.seed, 0xBE);
      Workload workload(config.ports);
      CbrMixSpec cbr;
      cbr.target_load = qos_load;
      add_cbr_mix(workload, config, cbr, rng);
      if (be_load > 0.0) {
        BestEffortSpec be;
        be.load = be_load;
        be.connections_per_link = 6;
        add_best_effort(workload, config, be, rng);
      }
      const SimulationMetrics metrics =
          run_or_exit(config, std::move(workload));
      const auto delay = [&metrics](const char* label) {
        const ClassMetrics* cls = metrics.find_class(label);
        return cls == nullptr || cls->flit_delay_us.empty()
                   ? std::numeric_limits<double>::quiet_NaN()
                   : cls->flit_delay_us.mean();
      };
      table.add_row({AsciiTable::num(be_load * 100, 0),
                     AsciiTable::num(delay("CBR 55 Mbps"), 1),
                     AsciiTable::num(delay("CBR 64 Kbps"), 1),
                     AsciiTable::num(delay("BE"), 1),
                     AsciiTable::num(metrics.delivered_load * 100, 1)});
    }
    std::cout << arbiter << ":\n" << table.render() << '\n';
  }
  std::cout << "Expected: under coa the CBR columns stay flat while BE "
               "absorbs queueing as the\ntotal approaches capacity; "
               "priority-blind arbiters spread the congestion into\nthe "
               "multimedia classes.\n";
  return 0;
}

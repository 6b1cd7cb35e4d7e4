// Overload protection: per-connection policing against rogue sources.
//
// A fixed CBR workload is admitted at a healthy load, then a fraction of
// the sources turn rogue and inject several times their admitted rate.
// Scenarios per arbiter (all from the same fixed seed, so the comparison is
// deterministic):
//   baseline     no rogues, no policing (the healthy reference)
//   unpoliced    rogues active, policing off: the excess enters the switch
//                and compliant connections miss their QoS deadline
//   drop/shape/demote
//                rogues active, injection policing on: the excess is
//                absorbed at the NIC and compliant connections keep QoS
//
// The bench exits nonzero if the protection story does not hold: with
// policing on, every policing action must land on a rogue connection and
// compliant deadline violations must vanish (drop policy); with policing
// off they must be nonzero.  Note saturated() is the wrong probe here —
// generated load deliberately counts the rogue excess that policing drops
// at injection, so the delivered/generated gap is by construction.

#include "bench_util.hpp"

namespace {

struct Scenario {
  const char* name;
  const char* rogue;   // rogue= override, "" for none
  const char* police;  // police= override, "" for none
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mmr;
  bench::BenchArgs args = bench::parse_args(argc, argv, {"arbiters"});

  SimConfig base;
  bench::apply_run_scale(base, args, /*quick=*/100'000, /*full=*/400'000);

  const double qos_load = 0.55;
  const char* rogue = "frac:0.5,scale:5";
  const std::vector<Scenario> scenarios = {
      {"baseline", "", ""},
      {"unpoliced", rogue, ""},
      {"drop", rogue, "drop"},
      {"shape", rogue, "shape,penalty:64"},
      {"demote", rogue, "demote"},
  };

  std::cout << "==== Overload protection: " << qos_load * 100
            << "% CBR, rogues at " << rogue << " ====\n"
            << "router " << base.ports << "x" << base.ports << ", "
            << base.vcs_per_link << " VCs/link, " << base.warmup_cycles
            << " warmup + " << base.measure_cycles << " measured cycles\n\n";

  bool verdict_ok = true;
  const auto fail = [&verdict_ok](const std::string& why) {
    std::cout << "VERDICT FAIL: " << why << '\n';
    verdict_ok = false;
  };

  for (const std::string& arbiter : args.arbiters) {
    AsciiTable table({"scenario", "compliant viol %", "rogue viol %",
                      "compliant policed", "rogue policed", "delivered %",
                      "wd escalations"});
    double unpoliced_rate = 0.0;  // filled by the unpoliced scenario
    for (const Scenario& s : scenarios) {
      SimConfig config = base;
      config.arbiter = arbiter;
      config.rogue_spec = s.rogue;
      config.police_spec = s.police;

      Rng rng(config.seed, 1);
      CbrMixSpec mix;
      mix.target_load = qos_load;
      const SimulationMetrics m =
          run_or_exit(config, build_cbr_mix(config, mix, rng));
      const OverloadMetrics& o = m.overload;

      table.add_row(
          {s.name,
           o.enabled ? AsciiTable::num(o.compliant_violation_rate() * 100, 2)
                     : "-",
           o.enabled ? AsciiTable::num(o.rogue_violation_rate() * 100, 2)
                     : "-",
           o.enabled ? std::to_string(o.compliant_policed) : "-",
           o.enabled ? std::to_string(o.rogue_policed) : "-",
           AsciiTable::num(m.delivered_load * 100, 1),
           o.enabled ? std::to_string(o.watchdog_escalations) : "-"});

      const std::string tag = arbiter + "/" + s.name;
      if (s.police[0] != '\0') {
        // Policing on: rogues absorb every policing action...
        if (o.compliant_policed != 0) {
          fail(tag + ": " + std::to_string(o.compliant_policed) +
               " policing actions hit compliant connections");
        }
        if (o.rogue_policed == 0) {
          fail(tag + ": rogue excess was never policed");
        }
        // ...and under the drop policy compliant QoS essentially holds:
        // below 1% of the damage the same rogues inflict unpoliced.  (The
        // relative bound keeps the verdict meaningful when warmup/measure
        // are overridden far below the preset, where a handful of startup
        // transients can straggle past the deadline.)
        if (std::string(s.police) == "drop" &&
            o.compliant_violation_rate() > 0.01 * unpoliced_rate) {
          fail(tag + ": " + std::to_string(o.compliant_violations) +
               " compliant deadline violations despite policing");
        }
      } else if (s.rogue[0] != '\0') {
        // Policing off: the rogue excess must measurably hurt compliant
        // connections, otherwise the protection scenarios prove nothing.
        unpoliced_rate = o.compliant_violation_rate();
        if (o.compliant_violations == 0) {
          fail(tag + ": compliant connections kept QoS without policing");
        }
      }
    }
    std::cout << arbiter << ":\n" << table.render() << '\n';
  }

  std::cout << (verdict_ok
                    ? "VERDICT PASS: policing confines the damage to rogue "
                      "connections;\nunpoliced rogues break compliant QoS.\n"
                    : "one or more protection properties failed (see above)\n");
  return verdict_ok ? 0 : 1;
}

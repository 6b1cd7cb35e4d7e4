// Incast survival: credit flow control vs the shared-buffer MMU regime.
//
// Every lossless (CBR) connection converges on one hot output at ~1.8x its
// capacity, best-effort background rides along, and one rogue source
// inflates its admitted rate with periodic bursts — the incast + rogue
// pattern datacenter MMUs are built for.  Two scenarios per arbiter, both
// from the same fixed seed so the comparison is deterministic:
//
//   credit   the paper's per-VC credit regime; nothing is ever dropped, but
//            the incast backlog grows without bound and compliant
//            connections blow through their QoS deadline
//   shared   `flow=shared` + demote policing: dynamic-threshold admission
//            sheds the (lossy) policed excess, Xon/Xoff pause holds the
//            rest at the NIC, and ECN marks shape sources down
//
// The bench exits nonzero unless the survival story holds: under the shared
// regime lossless-class drops are exactly zero while pauses fired, every
// pause closed in bounded time, and ECN marked; under plain credit the same
// load measurably violates compliant QoS (the baseline must hurt, or the
// survival claim proves nothing).

#include "bench_util.hpp"

#include "mmr/snapshot/signals.hpp"

namespace {

mmr::Workload incast_workload(const mmr::SimConfig& config, double hot_load) {
  using namespace mmr;
  Rng rng(config.seed, 1);
  CbrMixSpec mix;
  mix.target_load = hot_load;
  mix.classes = {kCbrHigh};
  mix.class_weights = {1.0};
  mix.hot_output = 0;  // all lossless traffic converges on one output
  Workload workload = build_cbr_mix(config, mix, rng);
  BestEffortSpec background;
  background.load = 0.1;
  background.connections_per_link = 2;
  Rng be_rng = rng.fork(0xBE);
  add_best_effort(workload, config, background, be_rng);
  return workload;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmr;
  bench::BenchArgs args = bench::parse_args(argc, argv, {"arbiters"});

  // Ctrl-C / SIGTERM: finish nothing mid-write.  Between runs the pending
  // flag is polled; mid-run a `snap=` override makes the managed loop write
  // a signal-tagged post-mortem checkpoint and throw snapshot::Interrupted.
  snapshot::SignalGuard signals;

  SimConfig base;
  base.ports = 4;
  base.vcs_per_link = 64;
  bench::apply_run_scale(base, args, /*quick=*/60'000, /*full=*/240'000);

  const double hot_load = 1.8 / static_cast<double>(base.ports);
  const char* rogue =
      "count:1,scale:4,burst_scale:2,burst_period:5000,burst_len:1000,"
      "class:cbr";

  std::cout << "==== Incast survival: " << base.ports
            << " inputs -> 1 hot output at 180% capacity, rogue at " << rogue
            << " ====\n"
            << "router " << base.ports << "x" << base.ports << ", "
            << base.vcs_per_link << " VCs/link, " << base.warmup_cycles
            << " warmup + " << base.measure_cycles << " measured cycles\n\n";

  bool verdict_ok = true;
  const auto fail = [&verdict_ok](const std::string& why) {
    std::cout << "VERDICT FAIL: " << why << '\n';
    verdict_ok = false;
  };

  for (const std::string& arbiter : args.arbiters) {
    AsciiTable table({"regime", "drops lossless", "drops lossy", "pauses",
                      "max pause", "ecn marked", "compliant viol %",
                      "delivered %"});

    for (const bool shared : {false, true}) {
      if (const int sig = snapshot::SignalGuard::consume()) {
        std::cout << "interrupted by signal " << sig
                  << "; partial results above\n";
        return snapshot::exit_status_for_signal(sig);
      }
      SimConfig config = base;
      config.arbiter = arbiter;
      config.rogue_spec = rogue;
      config.flow_spec = shared ? "shared" : "";
      config.police_spec = shared ? "demote" : "";

      MmrSimulation simulation(config, incast_workload(config, hot_load));
      SimulationMetrics m;
      try {
        m = simulation.run();
      } catch (const snapshot::Interrupted& stop) {
        std::cout << "interrupted by signal " << stop.signal_number()
                  << " mid-run";
        if (!stop.checkpoint().empty())
          std::cout << "; post-mortem checkpoint: " << stop.checkpoint()
                    << " (resume with snap=resume:<path>)";
        std::cout << '\n';
        return snapshot::exit_status_for_signal(stop.signal_number());
      }
      simulation.check_invariants();
      const MmuMetrics& mmu = m.mmu;
      const OverloadMetrics& o = m.overload;

      table.add_row(
          {shared ? "shared" : "credit",
           mmu.enabled ? std::to_string(mmu.drops_lossless) : "-",
           mmu.enabled ? std::to_string(mmu.drops_lossy) : "-",
           mmu.enabled ? std::to_string(mmu.pause_events) : "-",
           mmu.enabled ? std::to_string(mmu.pause_cycles_max) : "-",
           mmu.enabled ? std::to_string(mmu.ecn_marked) : "-",
           o.enabled ? AsciiTable::num(o.compliant_violation_rate() * 100, 2)
                     : "-",
           AsciiTable::num(m.delivered_load * 100, 1)});

      const std::string tag = arbiter + (shared ? "/shared" : "/credit");
      if (shared) {
        if (!mmu.enabled) {
          fail(tag + ": MMU accounting not enabled");
          continue;
        }
        // The lossless-survival guarantee, and the machinery that earns it:
        // pauses fired, every pause closed in bounded time, ECN marked.
        if (mmu.drops_lossless != 0) {
          fail(tag + ": " + std::to_string(mmu.drops_lossless) +
               " lossless-class drops (headroom undersized?)");
        }
        if (mmu.pause_events == 0) {
          fail(tag + ": the incast never triggered an Xoff pause");
        }
        // Bounded pauses need a fair drain: COA's round-robin pointer
        // guarantees every paused input keeps winning grants, and WFA's
        // rotating corner bounds every input's wait at a contested output by
        // P arbitrations — so for both, the longest pause must close within
        // the QoS deadline.  (The legacy fixed-corner "wfa-fixed" serves a
        // contested output in strict input-index order and can leave a
        // high-index input paused for the whole run — the starvation bug
        // the rotation fixed; see EXPERIMENTS.md.)
        if ((arbiter == "coa" || arbiter == "wfa") &&
            static_cast<double>(mmu.pause_cycles_max) > kQosDeadlineCycles) {
          fail(tag + ": a pause stayed open for " +
               std::to_string(mmu.pause_cycles_max) + " cycles (> " +
               std::to_string(static_cast<long>(kQosDeadlineCycles)) +
               "-cycle QoS deadline; backpressure released too slowly)");
        }
        if (mmu.ecn_marked == 0) {
          fail(tag + ": shared-pool pressure never drew an ECN mark");
        }
      } else {
        // The baseline must visibly suffer, otherwise survival is vacuous.
        if (!o.enabled || o.compliant_violations == 0) {
          fail(tag + ": compliant QoS survived the incast without the MMU");
        }
      }
    }
    std::cout << arbiter << ":\n" << table.render() << '\n';
  }

  std::cout << (verdict_ok
                    ? "VERDICT PASS: flow=shared keeps lossless classes at "
                      "zero drops under incast + rogue;\nplain credit flow "
                      "lets the same load break compliant QoS.\n"
                    : "one or more survival properties failed (see above)\n");
  return verdict_ok ? 0 : 1;
}

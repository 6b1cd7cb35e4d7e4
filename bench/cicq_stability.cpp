// CICQ burst stability: Gunther's instability and its credit-protocol fix.
//
// Bursty MPEG-2 VBR traffic (Back-to-Back injection: every frame poured out
// at link rate) runs through three queue disciplines from the same fixed
// seed, with the credit return latency raised so the crosspoint round-trip
// is clearly visible:
//
//   vc       the paper's per-VC discipline — the reference for what this
//            load can deliver
//   stab:0   CICQ in the base regime: one credit per crosspoint, so a burst
//            serializes on the credit round-trip (send, wait drain + return,
//            send again) and per-flow throughput collapses to 1/(1 + RTT)
//            while the VOQ backlog grows — the instability
//   stab:1   the burst-stabilization protocol: a VOQ backing up past the
//            threshold unlocks the crosspoint's full depth in credits,
//            pipelining the round-trip and restoring throughput
//
// The bench exits nonzero unless the story holds deterministically: the
// base regime must measurably collapse relative to the per-VC reference
// (else the instability claim proves nothing), the stabilized run must
// recover to the reference's delivered load and shed the queueing delay,
// and the CICQ counters must attribute the difference (credit stalls in the
// base regime, burst activations in the stabilized one).

#include "bench_util.hpp"

#include "mmr/snapshot/signals.hpp"

namespace {

mmr::Workload bursty_workload(const mmr::SimConfig& config) {
  using namespace mmr;
  Rng rng(config.seed, 1);
  VbrMixSpec mix;
  // The realised load is VC-capped (64 sequences/link x ~5.6 Mbps mean is
  // ~36% of a link); what matters is the burstiness: every frame arrives
  // back-to-back at link rate, and one crosspoint credit turns around only
  // every 1 + RTT cycles (1/9 of a link here).  A frame burst therefore
  // pours in ~9x faster than the base regime can drain it, and with random
  // destinations the hot crosspoints run right at the credit cap — the VOQ
  // backlog (and with it the flit delay) diverges.
  mix.target_load = 0.75;
  mix.model = InjectionModel::kBackToBack;
  mix.trace_gops = 4;
  return build_vbr_mix(config, mix, rng);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmr;
  bench::BenchArgs args = bench::parse_args(argc, argv, {});

  snapshot::SignalGuard signals;

  SimConfig base;
  base.ports = 4;
  base.vcs_per_link = 64;
  base.buffer_flits_per_vc = 16;  // the NIC credit loop must not be the cap
  base.credit_latency = 8;        // widen the crosspoint round-trip
  bench::apply_run_scale(base, args, /*quick=*/40'000, /*full=*/160'000);

  std::cout << "==== CICQ burst stability: Back-to-Back VBR bursts, "
            << "crosspoint credit RTT " << base.credit_latency
            << " cycles ====\n"
            << "router " << base.ports << "x" << base.ports << ", "
            << base.vcs_per_link << " VCs/link, " << base.warmup_cycles
            << " warmup + " << base.measure_cycles << " measured cycles\n\n";

  struct Regime {
    const char* label;
    const char* qd;
  };
  const Regime regimes[] = {
      {"vc", "vc"},
      // xp:12 >= 1 + RTT: under burst credits the round-trip pipelines
      // completely; stab:0 parks all but one of the same depth forever.
      {"cicq stab:0", "cicq,stab:0,xp:12,thresh:4"},
      {"cicq stab:1", "cicq,stab:1,xp:12,thresh:4"},
  };

  AsciiTable table({"regime", "delivered %", "mean delay us", "max delay us",
                    "xp transfers", "credit stalls", "bursts on/off"});
  SimulationMetrics results[3];

  for (std::size_t i = 0; i < 3; ++i) {
    if (const int sig = snapshot::SignalGuard::consume()) {
      std::cout << "interrupted by signal " << sig << '\n';
      return snapshot::exit_status_for_signal(sig);
    }
    SimConfig config = base;
    config.qd_spec = regimes[i].qd;

    MmrSimulation simulation(config, bursty_workload(config));
    try {
      results[i] = simulation.run();
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
    const SimulationMetrics& m = results[i];
    const CicqMetrics& cq = m.cicq;
    table.add_row(
        {regimes[i].label, AsciiTable::num(m.delivered_load * 100, 1),
         AsciiTable::num(m.flit_delay_us.mean(), 2),
         AsciiTable::num(m.flit_delay_us.max(), 2),
         cq.enabled ? std::to_string(cq.transfers) : "-",
         cq.enabled ? std::to_string(cq.credit_stalls) : "-",
         cq.enabled ? std::to_string(cq.burst_activations) + "/" +
                          std::to_string(cq.burst_deactivations)
                    : "-"});
  }
  std::cout << table.render() << '\n';

  bool verdict_ok = true;
  const auto fail = [&verdict_ok](const std::string& why) {
    std::cout << "VERDICT FAIL: " << why << '\n';
    verdict_ok = false;
  };

  const SimulationMetrics& vc = results[0];
  const SimulationMetrics& unstable = results[1];
  const SimulationMetrics& stabilized = results[2];

  // The instability: flow control is lossless, so the diverging VOQ backlog
  // shows up as queueing delay growing without bound (Gunther's signature)
  // plus a delivered-load deficit against the per-VC reference.
  if (unstable.flit_delay_us.mean() < 10.0 * vc.flit_delay_us.mean()) {
    fail("base CICQ mean delay (" +
         AsciiTable::num(unstable.flit_delay_us.mean(), 2) +
         " us) never diverged from the vc reference (" +
         AsciiTable::num(vc.flit_delay_us.mean(), 2) + " us)");
  }
  if (unstable.flit_delay_us.max() < 10.0 * vc.flit_delay_us.max()) {
    fail("base CICQ worst-case delay stayed near the vc reference — no "
         "backlog divergence");
  }
  if (unstable.delivered_load > stabilized.delivered_load - 0.005) {
    fail("base CICQ delivered " +
         AsciiTable::num(unstable.delivered_load * 100, 1) +
         "% vs stabilized " +
         AsciiTable::num(stabilized.delivered_load * 100, 1) +
         "% — the credit cap cost no throughput");
  }
  if (unstable.cicq.credit_stalls == 0 ||
      unstable.cicq.burst_activations != 0) {
    fail("base regime counters are wrong: the collapse must show as credit "
         "stalls, with stabilization never activating");
  }
  // The recovery: burst credits must restore the reference's delivered load
  // and shed the base regime's queueing delay.
  if (stabilized.delivered_load < 0.98 * vc.delivered_load) {
    fail("stabilized CICQ delivered " +
         AsciiTable::num(stabilized.delivered_load * 100, 1) +
         "% vs vc reference " + AsciiTable::num(vc.delivered_load * 100, 1) +
         "% — burst credits did not restore throughput");
  }
  if (stabilized.flit_delay_us.mean() > 0.1 * unstable.flit_delay_us.mean()) {
    fail("stabilization did not shed the base regime's queueing delay (" +
         AsciiTable::num(stabilized.flit_delay_us.mean(), 2) + " vs " +
         AsciiTable::num(unstable.flit_delay_us.mean(), 2) + " us mean)");
  }
  // Attribution: the protocol actually cycled, and it removed the stalls.
  if (stabilized.cicq.burst_activations == 0) {
    fail("stabilized run never activated a burst regime");
  }
  if (stabilized.cicq.credit_stalls >= unstable.cicq.credit_stalls) {
    fail("stabilization did not reduce credit stalls");
  }

  std::cout << (verdict_ok
                    ? "VERDICT PASS: one-credit CICQ collapses under "
                      "Back-to-Back bursts;\nburst stabilization recovers "
                      "the per-VC reference throughput.\n"
                    : "one or more stability properties failed (see above)\n");
  return verdict_ok ? 0 : 1;
}

// Checkpoint/restore soak: arbiters x {credit, shared} x seeds, CBR and VBR
// traffic alternating by seed, plus a faulted-torus leg per seed that cycles
// qd=vc|voq|cicq under link-down windows and checkpoints on the cycle of the
// first reroute (re-admitted connections then sit on rebound VCs).  Every
// run records its StateHash sequence and checkpoints mid-run; the run is
// then resumed from that checkpoint and must finish bit-identical to the
// uninterrupted original — same final metrics, same final StateHash, and a
// hash sequence equal to the original's post-checkpoint suffix.  Any
// divergence prints the first divergent cycle (the StateHash sequence is
// the oracle) and fails the soak.  Registered with ctest under the `tier2`
// label at seeds=6 (scripts/check.sh runs it).

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "mmr/core/simulation.hpp"
#include "mmr/snapshot/manager.hpp"
#include "mmr/snapshot/signals.hpp"

namespace {

mmr::Workload soak_workload(const mmr::SimConfig& config, bool vbr) {
  using namespace mmr;
  Rng rng(config.seed, 1);
  if (vbr) {
    VbrMixSpec mix;
    mix.target_load = 0.5;
    mix.trace_gops = 2;
    return build_vbr_mix(config, mix, rng);
  }
  CbrMixSpec mix;
  mix.target_load = 0.6;
  mix.classes = {kCbrHigh, kCbrMedium};
  mix.class_weights = {3.0, 1.0};
  return build_cbr_mix(config, mix, rng);
}

/// 4x4 torus of 5-port routers at CBR 0.35 (the faulted-torus leg).
mmr::Workload torus_workload(const mmr::SimConfig& config) {
  using namespace mmr;
  const NetworkTopology torus = NetworkTopology::torus2d(4, 4, config.ports);
  Rng rng(config.seed, 5);
  CbrMixSpec mix;
  mix.target_load = 0.35;
  mix.classes = {kCbrHigh, kCbrMedium};
  mix.class_weights = {3.0, 1.0};
  Workload workload(torus);
  add_cbr_mix(workload, config, mix, rng);
  return workload;
}

using HashSeq = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// First cycle at which two (cycle, hash) sequences disagree, 0 when none.
std::uint64_t first_divergence(const HashSeq& a, const HashSeq& b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i].first;
  }
  if (a.size() != b.size()) {
    return (a.size() < b.size() ? b : a)[n].first;
  }
  return 0;
}

/// Every way a resumed run can differ from its uninterrupted reference,
/// one line per difference (empty = bit-identical).
std::vector<std::string> resume_differences(
    const mmr::SimulationMetrics& ref_metrics, std::uint64_t ref_hash,
    const HashSeq& ref_seq, std::uint64_t checkpoint_at,
    mmr::MmrSimulation& resumed, const mmr::SimulationMetrics& re_metrics) {
  std::vector<std::string> why;
  HashSeq suffix;
  for (const auto& entry : ref_seq) {
    if (entry.first > checkpoint_at) suffix.push_back(entry);
  }
  const HashSeq& re_seq = resumed.snapshot_manager()->hash_sequence();
  if (re_seq != suffix) {
    why.push_back("StateHash sequence diverged at cycle " +
                  std::to_string(first_divergence(suffix, re_seq)));
  }
  if (resumed.state_hash() != ref_hash) {
    why.push_back("final StateHash differs");
  }
  if (re_metrics.flits_delivered != ref_metrics.flits_delivered ||
      re_metrics.flits_generated != ref_metrics.flits_generated ||
      re_metrics.frames_completed != ref_metrics.frames_completed ||
      re_metrics.degradation.reroutes != ref_metrics.degradation.reroutes) {
    why.push_back("final flit/frame/reroute counters differ after resume");
  }
  if (re_metrics.flit_delay_us.mean() != ref_metrics.flit_delay_us.mean()) {
    why.push_back("final delay statistics differ after resume");
  }
  return why;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmr;
  struct Options {
    std::uint32_t seeds = 6;
    std::string keep;  // move the first checkpoint here (lint smoke artifact)
    std::vector<std::string> arbiters = {"coa", "wfa", "islip", "pim"};
  } options;
  const spec::Grammar grammar{
      "snapshot_soak", '=',
      {bench::seeds<&Options::seeds>(), bench::arbiters<&Options::arbiters>(),
       spec::bind<&Options::keep>({.name = "keep"})}};
  spec::parse_command_line(grammar, &options, argc, argv);
  auto& [seeds, keep, arbiters] = options;

  snapshot::SignalGuard signals;

  constexpr Cycle kWarmup = 500;
  constexpr Cycle kMeasure = 2'500;
  constexpr std::uint64_t kCheckpointAt = 1'500;

  std::cout << "==== Snapshot soak: " << arbiters.size()
            << " arbiters x {credit, shared} x " << seeds
            << " seeds (CBR/VBR alternating), plus a faulted torus x"
               " qd={vc,voq,cicq} per seed ====\n"
            << "checkpoint at cycle " << kCheckpointAt << " of "
            << (kWarmup + kMeasure) << "; resume must be bit-identical\n\n";

  std::uint64_t failures = 0;
  std::uint64_t runs = 0;
  const auto fail = [&failures](const std::string& tag,
                                const std::string& why) {
    std::cerr << tag << ": " << why << '\n';
    ++failures;
  };

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    if (const int sig = snapshot::SignalGuard::consume()) {
      std::cout << "soak interrupted by signal " << sig << " after " << runs
                << " runs, " << failures << " failures so far\n";
      return snapshot::exit_status_for_signal(sig);
    }
    for (const std::string& arbiter : arbiters) {
      for (const bool shared : {false, true}) {
        const bool vbr = seed % 2 == 0;
        const std::string tag = arbiter + (shared ? "/shared" : "/credit") +
                                (vbr ? "/vbr" : "/cbr") + "/seed" +
                                std::to_string(seed);
        const std::string prefix = "SNAPSOAK_" + arbiter +
                                   (shared ? "_s" : "_c") + "_" +
                                   std::to_string(seed);

        SimConfig config;
        config.ports = 4;
        config.vcs_per_link = 64;
        config.warmup_cycles = kWarmup;
        config.measure_cycles = kMeasure;
        config.seed = seed;
        config.arbiter = arbiter;
        config.flow_spec = shared ? "shared" : "";
        config.snap_spec = "every:" + std::to_string(kCheckpointAt) +
                           ",hash_every:500,prefix:" + prefix;

        MmrSimulation reference(config, soak_workload(config, vbr));
        const SimulationMetrics ref_metrics = reference.run();
        const std::uint64_t ref_hash = reference.state_hash();
        const HashSeq& ref_seq =
            reference.snapshot_manager()->hash_sequence();
        const auto checkpoints =
            reference.snapshot_manager()->checkpoints_written();
        ++runs;
        if (checkpoints.empty()) {
          fail(tag, "no checkpoint was written");
          continue;
        }

        SimConfig resume_config = config;
        resume_config.snap_spec = "hash_every:500,prefix:" + prefix +
                                  "_re,resume:" + checkpoints.front();
        MmrSimulation resumed(resume_config, soak_workload(config, vbr));
        const SimulationMetrics re_metrics = resumed.run();
        ++runs;

        for (const std::string& why :
             resume_differences(ref_metrics, ref_hash, ref_seq, kCheckpointAt,
                                resumed, re_metrics)) {
          fail(tag, why);
        }

        for (const std::string& path : checkpoints) {
          if (!keep.empty() && path == checkpoints.front() &&
              std::rename(path.c_str(), keep.c_str()) == 0) {
            keep.clear();  // kept one artifact; delete the rest as usual
            continue;
          }
          std::remove(path.c_str());
        }
        for (const std::string& path :
             resumed.snapshot_manager()->checkpoints_written()) {
          std::remove(path.c_str());
        }
      }
    }

    for (const char* qd : {"vc", "voq", "cicq"}) {
      const std::string tag =
          std::string("torus/qd=") + qd + "/seed" + std::to_string(seed);
      const std::string prefix =
          std::string("SNAPSOAK_torus_") + qd + "_" + std::to_string(seed);

      SimConfig config;
      config.ports = 5;
      config.vcs_per_link = 32;
      config.warmup_cycles = 300;
      config.measure_cycles = 1'700;
      config.seed = seed;
      config.qd_spec = qd;
      config.fault_spec =
          "down:0:400:900,down:9:300:1200,resync_period:128,"
          "resync_timeout:256";
      config.snap_spec = "hash_every:250,prefix:" + prefix;

      // Step to the first reroute, checkpoint there, then finish the run.
      MmrSimulation reference(config, torus_workload(config));
      while (reference.now() < config.total_cycles() &&
             reference.finalize().degradation.reroutes == 0) {
        reference.step_one();
      }
      ++runs;
      if (reference.now() == config.total_cycles()) {
        fail(tag, "the down windows caused no reroute");
        continue;
      }
      const std::uint64_t checkpoint_at = reference.now();
      const std::string checkpoint = prefix + "_ck.snap";
      reference.save_checkpoint(checkpoint);
      const SimulationMetrics ref_metrics = reference.run();

      SimConfig resume_config = config;
      resume_config.snap_spec = "hash_every:250,prefix:" + prefix +
                                "_re,resume:" + checkpoint;
      MmrSimulation resumed(resume_config, torus_workload(config));
      const SimulationMetrics re_metrics = resumed.run();
      ++runs;
      for (const std::string& why : resume_differences(
               ref_metrics, reference.state_hash(),
               reference.snapshot_manager()->hash_sequence(), checkpoint_at,
               resumed, re_metrics)) {
        fail(tag + " (checkpoint at cycle " + std::to_string(checkpoint_at) +
                 ")",
             why);
      }
      std::remove(checkpoint.c_str());
    }
  }

  if (failures != 0) {
    std::cout << "soak FAILED: " << failures << " divergences in " << runs
              << " runs\n";
    return 1;
  }
  std::cout << "soak clean: " << runs
            << " runs, every resume bit-identical\n";
  return 0;
}

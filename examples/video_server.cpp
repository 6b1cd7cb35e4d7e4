// Video-server scenario: the paper's motivating workload.  A cluster node
// streams MPEG-2 video to clients through one MMR: VBR connections built
// from the Table-1 sequence library, smooth-rate injection, QoS assessed at
// the application level (frame delay and jitter against MPEG-2 playback
// tolerances).
//
//   ./video_server [key=value ...] [load=0.7] [model=SR|BB]

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <map>

#include "mmr/core/simulation.hpp"
#include "mmr/sim/table.hpp"
#include "mmr/snapshot/signals.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  SimConfig config;
  config.measure_cycles = 300'000;  // ~15 video frame times

  double load = 0.7;
  InjectionModel model = InjectionModel::kSmoothRate;
  std::vector<std::string> overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("load=", 0) == 0) {
      load = std::stod(arg.substr(5));
    } else if (arg == "model=BB") {
      model = InjectionModel::kBackToBack;
    } else if (arg == "model=SR") {
      model = InjectionModel::kSmoothRate;
    } else {
      overrides.push_back(arg);
    }
  }
  try {
    apply_overrides(config, overrides);
    validate_specs(config);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }

  Rng rng(config.seed, 0x71DE0);
  VbrMixSpec spec;
  spec.target_load = load;
  spec.model = model;
  spec.trace_gops = 8;
  Workload workload = build_vbr_mix(config, spec, rng);

  std::printf("Video server: %zu MPEG-2 streams, %s injection, %s arbiter, "
              "target load %.0f%%\n",
              workload.size(), to_string(model),
              config.arbiter.c_str(), load * 100);

  // Per-sequence stream census.
  AsciiTable census({"sequence", "streams", "mean Mbps", "peak Mbps"});
  struct Row {
    int count = 0;
    double mean = 0;
    double peak = 0;
  };
  std::map<std::string, Row> rows;
  for (const auto& source : workload.sources) {
    const auto* vbr = dynamic_cast<const VbrSource*>(source.get());
    Row& row = rows[vbr->trace().sequence];
    ++row.count;
    row.mean += vbr->trace().mean_bps() / 1e6;
    row.peak = std::max(row.peak, vbr->trace().peak_bps() / 1e6);
  }
  for (const auto& [name, row] : rows) {
    census.add_row({name, std::to_string(row.count),
                    AsciiTable::num(row.mean / row.count, 1),
                    AsciiTable::num(row.peak, 1)});
  }
  std::cout << census.render() << '\n';

  SimulationMetrics metrics;
  try {
    MmrSimulation simulation(config, std::move(workload));
    metrics = simulation.run();
  } catch (const snapshot::Interrupted& stop) {
    return snapshot::report_interrupted(stop);
  } catch (const std::invalid_argument& error) {  // fault= off the topology
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }

  std::printf("Results over %llu measured cycles (%.1f ms of video):\n",
              static_cast<unsigned long long>(config.measure_cycles),
              config.time_base().cycles_to_us(
                  static_cast<double>(config.measure_cycles)) / 1e3);
  std::printf("  crossbar utilization : %.1f%% (generated %.1f%%)\n",
              metrics.crossbar_utilization * 100,
              metrics.generated_load_measured * 100);
  std::printf("  frames completed     : %llu\n",
              static_cast<unsigned long long>(metrics.frames_completed));
  std::printf("  mean frame delay     : %.1f us (p99 %.1f, max %.1f)\n",
              metrics.frame_delay_us.mean(), metrics.frame_delay_us.p99(),
              metrics.frame_delay_us.max());
  std::printf("  mean frame jitter    : %.2f us (max %.2f)\n",
              metrics.frame_jitter_us.mean(), metrics.max_frame_jitter_us);

  // MPEG-2 playback tolerates several milliseconds of jitter (absorbed at
  // the receiver); flag the verdict the way an operator would read it.
  const bool qos_ok = !metrics.saturated() &&
                      metrics.max_frame_jitter_us < 3000.0;
  std::printf("\nQoS verdict: %s\n",
              qos_ok ? "OK — streams are playable"
                     : "DEGRADED — router saturated or jitter beyond "
                       "absorption capacity");
  return qos_ok ? 0 : 2;
}

// Engine golden: exact single-router metrics across the opt-in subsystems.
// Two workloads (the paper's 4x4 CBR mix and a 16x16 back-to-back MPEG-2
// VBR mix, both at 0.70 load) run under coa and wfa with each opt-in alone;
// every float is printed as a %a hex-float and every integer count in full,
// so any change to a single-router result — one rounding step in one delay
// accumulator — fails the comparison with tests/data/engine_golden.txt.
// Regenerate deliberately (after a reviewed behaviour change) with:
//   MMR_REGEN_GOLDEN=1 ./test_engine_golden

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mmr/core/simulation.hpp"

namespace mmr {
namespace {

struct OptIn {
  const char* name;
  std::vector<std::string> overrides;
};

const std::vector<OptIn>& opt_ins() {
  static const std::vector<OptIn> all = {
      {"default", {}},
      {"flow=shared", {"flow=shared"}},
      // A pool this tight pauses inputs and ECN-marks flits, so the pause
      // frames, resumes and source cuts are pinned too.
      {"flow=shared-tight", {"flow=shared,pool:4,reserved:1,xoff:2,xon:1"}},
      {"police=shape+rogue",
       {"police=shape", "rogue=frac:0.25,scale:4"}},
      {"qd=voq", {"qd=voq"}},
      {"qd=cicq", {"qd=cicq"}},
      {"audit=64", {"audit=64"}},
  };
  return all;
}

class Line {
 public:
  void num(const char* key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, " %s=%a", key, value);
    text_ += buffer;
  }
  void count(const char* key, std::uint64_t value) {
    text_ += std::string(" ") + key + "=" + std::to_string(value);
  }
  void stats(const char* key, const StreamingStats& s) {
    count((std::string(key) + ".n").c_str(), s.count());
    num((std::string(key) + ".mean").c_str(), s.empty() ? 0.0 : s.mean());
    num((std::string(key) + ".var").c_str(), s.empty() ? 0.0 : s.variance());
  }
  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  std::string text_;
};

std::string describe(const std::string& label, const SimulationMetrics& m) {
  std::ostringstream out;
  Line run;
  run.count("generated", m.flits_generated);
  run.count("delivered", m.flits_delivered);
  run.count("backlog", m.backlog_flits);
  run.count("frames", m.frames_completed);
  run.num("gen_load", m.generated_load_measured);
  run.num("del_load", m.delivered_load);
  run.num("utilization", m.crossbar_utilization);
  run.num("matching", m.mean_matching_size);
  run.num("reconfig", m.mean_reconfigurations);
  run.num("fairness", m.fairness_index);
  run.stats("flit_delay", m.flit_delay_us);
  run.stats("frame_delay", m.frame_delay_us);
  run.stats("jitter", m.frame_jitter_us);
  run.num("max_jitter", m.max_frame_jitter_us);
  out << label << run.text() << "\n";

  for (const ClassMetrics& cls : m.per_class) {
    Line line;
    line.count("generated", cls.flits_generated);
    line.count("delivered", cls.flits_delivered);
    line.stats("delay", cls.flit_delay_us);
    out << label << " class=\"" << cls.label << "\"" << line.text() << "\n";
  }

  const OverloadMetrics& o = m.overload;
  if (o.enabled) {
    Line line;
    line.count("rogues", o.rogue_connections);
    line.count("noncompliant", o.noncompliant_connections);
    for (const PolicedClassTally& t : o.policed) {
      line.count("conforming", t.conforming);
      line.count("dropped", t.dropped);
      line.count("demoted", t.demoted);
      line.count("shaped", t.shaped);
      line.count("overflow", t.penalty_overflow);
      line.count("shed", t.shed);
    }
    line.stats("shape_delay", o.shape_delay_us);
    line.count("escalations", o.watchdog_escalations);
    line.count("recoveries", o.watchdog_recoveries);
    line.count("alarms", o.watchdog_alarms);
    line.count("pause_alarms", o.watchdog_pause_alarms);
    for (const std::uint64_t cycles : o.cycles_in_stage)
      line.count("stage_cycles", cycles);
    line.count("compliant_delivered", o.compliant_delivered);
    line.count("compliant_violations", o.compliant_violations);
    line.count("rogue_delivered", o.rogue_delivered);
    line.count("rogue_violations", o.rogue_violations);
    line.count("compliant_policed", o.compliant_policed);
    line.count("rogue_policed", o.rogue_policed);
    out << label << " overload" << line.text() << "\n";
  }

  const MmuMetrics& mm = m.mmu;
  if (mm.enabled) {
    Line line;
    line.count("reserved", mm.admitted_reserved);
    line.count("shared", mm.admitted_shared);
    line.count("headroom", mm.admitted_headroom);
    line.count("drops_lossless", mm.drops_lossless);
    line.count("drops_lossy", mm.drops_lossy);
    line.count("pauses", mm.pause_events);
    line.count("resumes", mm.resume_events);
    line.count("pause_cycles", mm.pause_cycles_total);
    line.count("pause_max", mm.pause_cycles_max);
    line.count("headroom_hw", mm.headroom_highwater);
    line.count("pool_hw", mm.pool_highwater);
    line.stats("pool", mm.pool_occupancy);
    line.count("marked", mm.ecn_marked);
    line.count("eligible", mm.ecn_eligible);
    line.count("cuts", mm.ecn_cuts);
    out << label << " mmu" << line.text() << "\n";
  }

  if (m.cicq.enabled) {
    Line line;
    line.count("transfers", m.cicq.transfers);
    line.count("credit_stalls", m.cicq.credit_stalls);
    line.count("burst_on", m.cicq.burst_activations);
    line.count("burst_off", m.cicq.burst_deactivations);
    out << label << " cicq" << line.text() << "\n";
  }
  return out.str();
}

std::string run_all() {
  std::string produced;
  for (const bool vbr : {false, true}) {
    for (const char* arbiter : {"coa", "wfa"}) {
      for (const OptIn& opt : opt_ins()) {
        SimConfig config;
        config.ports = vbr ? 16 : 4;
        config.vcs_per_link = vbr ? 64 : 128;
        config.arbiter = arbiter;
        config.seed = 11;
        config.warmup_cycles = 1'000;
        config.measure_cycles = vbr ? 3'000 : 8'000;
        apply_overrides(config, opt.overrides);
        Rng rng(config.seed, 1);
        Workload workload = [&] {
          if (vbr) {
            VbrMixSpec mix;
            mix.target_load = 0.70;
            mix.model = InjectionModel::kBackToBack;
            mix.trace_gops = 1;
            mix.destinations = DestinationPolicy::kBalanced;
            return build_vbr_mix(config, mix, rng);
          }
          CbrMixSpec mix;
          mix.target_load = 0.70;
          mix.destinations = DestinationPolicy::kBalanced;
          return build_cbr_mix(config, mix, rng);
        }();
        MmrSimulation simulation(config, std::move(workload));
        const SimulationMetrics metrics = simulation.run();
        produced += describe(std::string(vbr ? "vbr16" : "cbr4") + " " +
                                 arbiter + " " + opt.name,
                             metrics);
      }
    }
  }
  return produced;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

TEST(EngineGolden, SingleRouterMetricsMatchGoldenFile) {
  const std::string produced = run_all();
  const std::string golden_path =
      std::string(MMR_TEST_DATA_DIR) + "/engine_golden.txt";
  if (std::getenv("MMR_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out << produced;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  const std::string golden = read_file(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << golden_path;
  // Line by line, so a failure names the first diverging run.
  std::istringstream want(golden);
  std::istringstream got(produced);
  std::string want_line;
  std::string got_line;
  while (std::getline(want, want_line)) {
    ASSERT_TRUE(std::getline(got, got_line)) << "missing: " << want_line;
    ASSERT_EQ(got_line, want_line);
  }
  EXPECT_FALSE(std::getline(got, got_line)) << "extra: " << got_line;
}

}  // namespace
}  // namespace mmr

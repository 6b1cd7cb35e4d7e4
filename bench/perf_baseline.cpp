// Perf baseline: measures simulated-cycles/second, per-phase wall-time
// shares, and hot-path allocation counts across arbiters and port counts,
// then emits machine-readable BENCH_perf.json (schema "mmr-perf-v1") for
// scripts/bench_compare.py to diff against an earlier baseline.
//
// Every record repeats its work until the repetitions add up to at least
// 1 s (mode=smoke: once) and keeps the fastest repetition, so one slow
// window on a shared host does not become the recorded speed: two records
// of one binary compare clean (the A/A stage of scripts/check.sh --perf).
// The single-threaded sections time each repetition in the thread's CPU
// time, which leaves out the time a descheduled virtual CPU waits; their
// phase shares are probe wall time over that CPU time.  sweep-cbr runs on
// the thread pool, so it stays on wall time.
//
// Sections:
//   sim-cbr          one full simulation per (arbiter, ports), probe armed
//   arbitrate-micro  tight arbitrate_into() loop over generated candidate
//                    sets (isolates the switch-arbitration hot path)
//   sweep-cbr        run_sweep wall time per arbiter (the end-to-end figure
//                    pipeline, including thread-pool parallelism)
//
// Arguments (key=value):
//   out=FILE         write the JSON baseline here (default BENCH_perf.json)
//   mode=MODE        quick (default) | full | smoke  -- run length preset
//   arbiters=a,b     arbiters to measure (default coa,wfa,wfa-fixed,islip)
//   ports=4,8        port counts for the sim-cbr section (full simulations)
//   micro_ports=...  port counts for the arbitrate-micro section (defaults
//                    to 4,8,16,32,64,128 — the micro loop is cheap enough to
//                    chart the wide-port scaling the bitset engines target)
//   threads=N        sweep worker threads (0 = hardware concurrency)

#include <time.h>

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "mmr/audit/generator.hpp"
#include "mmr/core/experiment.hpp"
#include "mmr/perf/probe.hpp"
#include "mmr/perf/report.hpp"

namespace mmr {
namespace {

struct PerfBenchArgs {
  std::string out = "BENCH_perf.json";
  std::string mode = "quick";  // quick | full | smoke
  std::vector<std::string> arbiters = {"coa", "wfa", "wfa-fixed", "islip"};
  std::vector<std::uint32_t> ports = {4, 8};
  std::vector<std::uint32_t> micro_ports = {4, 8, 16, 32, 64, 128};
  std::size_t threads = 0;
};

struct RunScale {
  Cycle warmup;
  Cycle measure;
  std::uint64_t micro_iterations;
  std::vector<double> sweep_loads;
  double min_seconds;  ///< least time a record repeats its work for
};

RunScale scale_for(const std::string& mode) {
  if (mode == "smoke") return {1'000, 4'000, 2'000, {0.3, 0.6}, 0.0};
  if (mode == "full")
    return {20'000, 200'000, 200'000, {0.2, 0.4, 0.6, 0.8}, 1.0};
  return {2'000, 40'000, 50'000, {0.3, 0.5, 0.7}, 1.0};  // quick
}

/// CPU time of the calling thread, in nanoseconds.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Runs `once` — one repetition of a record's work, returning its record —
/// until the repetitions' timed runs add up to `min_seconds`, and keeps the
/// fastest repetition's record whole (its probe phases included).
template <class Once>
perf::PerfRecord fastest_of(double min_seconds, Once&& once) {
  perf::PerfRecord best = once();
  auto spent = static_cast<double>(best.probe.run_wall_ns());
  while (spent < min_seconds * 1e9) {
    perf::PerfRecord next = once();
    spent += static_cast<double>(next.probe.run_wall_ns());
    if (next.probe.run_wall_ns() < best.probe.run_wall_ns())
      best = std::move(next);
  }
  return best;
}

SimConfig sim_config(std::uint32_t ports, const std::string& arbiter,
                     const RunScale& scale) {
  SimConfig config;
  config.ports = ports;
  config.vcs_per_link = 64;
  config.arbiter = arbiter;
  config.warmup_cycles = scale.warmup;
  config.measure_cycles = scale.measure;
  return config;
}

Workload cbr_workload(const SimConfig& config) {
  Rng rng(config.seed, 1);
  CbrMixSpec spec;
  spec.target_load = 0.6;
  spec.classes = {kCbrHigh, kCbrMedium};
  spec.class_weights = {3.0, 1.0};
  return build_cbr_mix(config, spec, rng);
}

perf::PerfRecord sim_cbr_record(const std::string& arbiter,
                                std::uint32_t ports, const RunScale& scale) {
  perf::PerfRecord record;
  record.kind = "sim-cbr";
  record.arbiter = arbiter;
  record.ports = ports;
  record.label =
      "sim-cbr/" + record.arbiter + "/p" + std::to_string(ports);

  const SimConfig config = sim_config(ports, arbiter, scale);
  return fastest_of(scale.min_seconds, [&] {
    perf::PerfRecord run = record;
    MmrSimulation simulation(config, cbr_workload(config));
    const perf::ProbeScope arm(&run.probe);
    const std::uint64_t start = thread_cpu_ns();
    (void)simulation.run();
    run.probe.add_run(config.total_cycles(), thread_cpu_ns() - start);
    return run;
  });
}

perf::PerfRecord micro_record(const std::string& arbiter,
                              std::uint32_t ports, const RunScale& scale) {
  perf::PerfRecord record;
  record.kind = "arbitrate-micro";
  record.arbiter = arbiter;
  record.ports = ports;
  record.label =
      "arb-micro/" + record.arbiter + "/p" + std::to_string(ports);

  // A rotation of pre-generated candidate sets (uniform + hotspot) keeps
  // the loop on arbitration itself, not set construction.
  audit::GeneratorOptions opt;
  opt.ports = ports;
  opt.levels = 2;
  Rng gen(0xBE7C, ports);
  std::vector<CandidateSet> sets;
  for (const audit::LoadProfile profile :
       {audit::LoadProfile::kUniform, audit::LoadProfile::kHotspot}) {
    opt.profile = profile;
    for (int i = 0; i < 16; ++i) {
      CandidateSet set(ports, opt.levels);
      for (const Candidate& c : audit::generate_step(gen, opt)) set.add(c);
      sets.push_back(std::move(set));
    }
  }

  const std::unique_ptr<SwitchArbiter> arbiter_impl =
      make_arbiter(arbiter, ports, Rng(0xA1B2, ports));
  Matching matching(ports);
  return fastest_of(scale.min_seconds, [&] {
    perf::PerfRecord run = record;
    const perf::ProbeScope arm(&run.probe);
    const std::uint64_t start = thread_cpu_ns();
    for (std::uint64_t i = 0; i < scale.micro_iterations; ++i) {
      arbiter_impl->arbitrate_into(sets[i % sets.size()], matching);
    }
    const std::uint64_t spent = thread_cpu_ns() - start;
    run.probe.add_time(perf::Phase::kArbitration, spent);
    // "Cycles" for the micro section are arbitrations.
    run.probe.add_run(scale.micro_iterations, spent);
    return run;
  });
}

perf::PerfRecord sweep_record(const PerfBenchArgs& args,
                              const std::string& arbiter,
                              const RunScale& scale) {
  perf::PerfRecord record;
  record.kind = "sweep-cbr";
  record.arbiter = arbiter;
  record.ports = 4;
  record.label = "sweep-cbr/" + record.arbiter;

  SweepSpec spec;
  spec.base = sim_config(record.ports, arbiter, scale);
  // The sweep section measures driver overhead too; shorter points suffice.
  spec.base.warmup_cycles = scale.warmup / 2;
  spec.base.measure_cycles = scale.measure / 4;
  spec.loads = scale.sweep_loads;
  spec.arbiters = {arbiter};
  spec.threads = args.threads;
  spec.cbr.classes = {kCbrHigh, kCbrMedium};
  spec.cbr.class_weights = {3.0, 1.0};

  return fastest_of(scale.min_seconds, [&] {
    perf::PerfRecord run = record;
    const std::uint64_t start = perf::now_ns();
    const std::vector<SweepPoint> points = run_sweep(spec);
    const std::uint64_t wall = perf::now_ns() - start;
    run.probe.add_run(
        static_cast<std::uint64_t>(points.size()) * spec.base.total_cycles(),
        wall);
    return run;
  });
}

}  // namespace
}  // namespace mmr

int main(int argc, char** argv) {
  using namespace mmr;
  PerfBenchArgs args;
  using A = PerfBenchArgs;
  static constexpr const char* kModes[] = {"quick", "full", "smoke"};
  const spec::Grammar grammar{
      "perf_baseline", '=',
      {spec::bind<&A::out>({.name = "out"}),
       spec::bind<&A::mode>({.name = "mode", .words = kModes}),
       bench::arbiters<&A::arbiters>(), bench::ports<&A::ports>(),
       bench::ports<&A::micro_ports>("micro_ports"),
       bench::threads<&A::threads>()}};
  spec::parse_command_line(grammar, &args, argc, argv);
  const RunScale scale = scale_for(args.mode);

  std::cout << "==== perf baseline (" << args.mode << ") ====\n";

  std::vector<perf::PerfRecord> records;
  for (const std::string& arbiter : args.arbiters) {
    for (const std::uint32_t ports : args.ports) {
      records.push_back(sim_cbr_record(arbiter, ports, scale));
      std::cout << perf::render_phase_summary(records.back()) << "\n";
    }
    for (const std::uint32_t ports : args.micro_ports) {
      records.push_back(micro_record(arbiter, ports, scale));
      std::cout << perf::render_phase_summary(records.back()) << "\n";
    }
    records.push_back(sweep_record(args, arbiter, scale));
    std::cout << perf::render_phase_summary(records.back()) << "\n";
  }

  perf::PerfReportMeta meta;
  meta.mode = args.mode;
  meta.threads = args.threads;
  std::ofstream out(args.out);
  if (!out) {
    std::cerr << "cannot open '" << args.out << "' for writing\n";
    return 1;
  }
  perf::write_perf_json(out, meta, records);
  std::cout << "wrote " << records.size() << " records to " << args.out
            << "\n";
  return 0;
}

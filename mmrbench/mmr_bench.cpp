// Benchmark harness for the MMR simulator.  Drives the benchmark workloads
// through the public APIs of core (MmrSimulation) and network
// (MmrNetworkSimulation), and times calls into each layer from outside: no
// instrumentation is added to the simulator.  run.py builds this program,
// calls it, checks its outputs and aggregates the numbers; README.md in this
// directory defines every metric.
//
// usage: mmr_bench WORKLOAD SEED MODE SECONDS THREADS
//   WORKLOAD  mmr4-cbr | mmr16-vbr-bb | torus64
//   MODE      measure  set-up samples, then untraced runs of the workload
//                      until SECONDS of host time have passed
//             check    the reference-free correctness legs: the traffic
//                      replay (single router) or the sharded-engine leg
//                      (torus)
//             traced   untraced / probe-armed run pairs for SECONDS, then
//                      the per-layer spans and stand-alone layer loops
//   THREADS   net_threads of the torus's sharded-engine leg
// Output: one JSON object per line, tagged by "kind".

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mmr/arbiter/factory.hpp"
#include "mmr/audit/generator.hpp"
#include "mmr/core/simulation.hpp"
#include "mmr/network/network.hpp"
#include "mmr/perf/probe.hpp"
#include "mmr/qos/rounds.hpp"

namespace {

using namespace mmr;

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(perf::now_ns() - start_ns) * 1e-9;
}

/// CPU time of the whole process (every thread), in nanoseconds.  Unlike
/// wall time it leaves out the time a virtual CPU is descheduled.
std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Peak resident set of this program, in KiB: VmHWM of /proc/self/status.
/// getrusage's ru_maxrss would also count the parent's peak before exec.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  std::uint64_t kb = 0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kb;
      break;
    }
  }
  return kb;
}

/// One JSON object on one stdout line.
class JsonLine {
 public:
  explicit JsonLine(const std::string& kind) { text_ = "{\"kind\":\"" + kind + '"'; }
  JsonLine(const JsonLine&) = delete;
  JsonLine& operator=(const JsonLine&) = delete;
  ~JsonLine() { std::cout << text_ << "}\n"; }

  JsonLine& num(const std::string& key, double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return raw(key, buffer);
  }
  JsonLine& count(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& str(const std::string& key, const std::string& value) {
    return raw(key, '"' + value + '"');
  }
  JsonLine& counts(const std::string& key,
                   const std::vector<std::uint64_t>& values) {
    std::string list = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) list += ',';
      list += std::to_string(values[i]);
    }
    return raw(key, list + ']');
  }

 private:
  JsonLine& raw(const std::string& key, const std::string& value) {
    text_ += ",\"" + key + "\":" + value;
    return *this;
  }

  std::string text_;
};

// --- workloads ---------------------------------------------------------------

struct Bench {
  std::string name;
  SimConfig config;  ///< the measured runs; the torus's run serially
  Cycle window = 0;  ///< simulated cycles per step-time window (1000/run)
  bool network = false;
  std::uint32_t shard_threads = 0;  ///< net_threads of the sharded leg
};

Bench make_bench(const std::string& name, std::uint64_t seed,
                 std::uint32_t threads) {
  Bench bench;
  bench.name = name;
  SimConfig& c = bench.config;
  c.seed = seed;
  c.arbiter = "coa";
  if (name == "mmr4-cbr") {
    c.ports = 4;
    c.vcs_per_link = 256;
    c.warmup_cycles = 20'000;
    c.measure_cycles = 250'000;
    bench.window = 250;
  } else if (name == "mmr16-vbr-bb") {
    c.ports = 16;
    c.vcs_per_link = 256;
    c.warmup_cycles = 20'000;
    // 2.5 of a GOP's 15 frame periods (100 ms = 58,594 flit cycles of
    // 1.707 us).  Each source starts at a random frame of its GOP, so the
    // offered load over this span is nearly the same for every seed.
    c.measure_cycles = 59'000;
    bench.window = 59;
  } else if (name == "torus64") {
    c.ports = 5;
    // 64, not 32: with 32 the VC budget ends some ports' connection lists
    // early, and seeds then differ by up to 14% in generated flits.
    c.vcs_per_link = 64;
    c.warmup_cycles = 1'000;
    c.measure_cycles = 5'000;
    bench.window = 5;
    bench.network = true;
    bench.shard_threads = threads;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return bench;
}

Workload build_single(const Bench& bench) {
  Rng rng(bench.config.seed, 1);
  if (bench.name == "mmr4-cbr") {
    CbrMixSpec mix;
    mix.target_load = 0.70;
    mix.destinations = DestinationPolicy::kBalanced;
    return build_cbr_mix(bench.config, mix, rng);
  }
  VbrMixSpec mix;
  mix.target_load = 0.70;
  mix.model = InjectionModel::kBackToBack;
  mix.destinations = DestinationPolicy::kBalanced;
  return build_vbr_mix(bench.config, mix, rng);
}

NetworkWorkload build_network(const SimConfig& config) {
  Rng rng(config.seed, 0x5CA1E);
  CbrMixSpec mix;
  mix.target_load = 0.35;
  mix.classes = {kCbrHigh, kCbrMedium};
  mix.class_weights = {3.0, 1.0};
  return build_network_cbr_mix(
      config, NetworkTopology::torus2d(8, 8, config.ports), mix, rng);
}

// --- one run of a workload ---------------------------------------------------

/// Host times and modelled results of one simulation run.
struct Leg {
  double build_s = 0.0;
  double construct_s = 0.0;
  double warmup_s = 0.0;
  double measure_s = 0.0;
  double finalize_s = 0.0;
  std::vector<std::uint64_t> window_cpu_ns;

  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t backlog = 0;
  std::uint64_t frames = 0;
  std::uint64_t departed_plus_backlog = 0;  ///< single router only
  double crossbar_utilization = 0.0;
  double mean_matching_size = 0.0;
  double flit_delay_us = 0.0;
  double frame_delay_us = 0.0;
};

/// Warm-up, then the measured phase in fixed windows of step_one() calls,
/// each timed in process CPU time.  run() afterwards only checks invariants
/// and finalizes.
template <class Sim>
void step_through(Sim& sim, const Bench& bench, perf::PerfProbe* probe,
                  Leg& leg) {
  const SimConfig& c = bench.config;
  const perf::ProbeScope arm(probe);
  const std::uint64_t start = perf::now_ns();
  while (sim.now() < c.warmup_cycles) sim.step_one();
  leg.warmup_s = seconds_since(start);
  const std::uint64_t measure_start = perf::now_ns();
  leg.window_cpu_ns.reserve(c.measure_cycles / bench.window + 1);
  while (sim.now() < c.total_cycles()) {
    const Cycle end =
        std::min<Cycle>(sim.now() + bench.window, c.total_cycles());
    const std::uint64_t window_start = process_cpu_ns();
    while (sim.now() < end) sim.step_one();
    leg.window_cpu_ns.push_back(process_cpu_ns() - window_start);
  }
  leg.measure_s = seconds_since(measure_start);
  if (probe != nullptr)
    probe->add_run(c.total_cycles(), perf::now_ns() - start);
}

Leg run_single(const Bench& bench, perf::PerfProbe* probe) {
  Leg leg;
  std::uint64_t t = perf::now_ns();
  Workload workload = build_single(bench);
  leg.build_s = seconds_since(t);
  t = perf::now_ns();
  MmrSimulation sim(bench.config, std::move(workload));
  leg.construct_s = seconds_since(t);
  step_through(sim, bench, probe, leg);
  t = perf::now_ns();
  const SimulationMetrics m = sim.run();
  leg.finalize_s = seconds_since(t);

  leg.generated = m.flits_generated;
  leg.delivered = m.flits_delivered;
  leg.backlog = m.backlog_flits;
  leg.frames = m.frames_completed;
  leg.departed_plus_backlog = sim.router().flits_departed() + sim.backlog();
  leg.crossbar_utilization = m.crossbar_utilization;
  leg.mean_matching_size = m.mean_matching_size;
  leg.flit_delay_us = m.flit_delay_us.mean();
  leg.frame_delay_us = m.frame_delay_us.mean();
  return leg;
}

Leg run_network(const Bench& bench, std::uint32_t threads,
                perf::PerfProbe* probe) {
  Bench b = bench;
  b.config.net_threads = threads;
  Leg leg;
  std::uint64_t t = perf::now_ns();
  NetworkWorkload workload = build_network(b.config);
  leg.build_s = seconds_since(t);
  t = perf::now_ns();
  MmrNetworkSimulation sim(b.config, std::move(workload));
  leg.construct_s = seconds_since(t);
  step_through(sim, b, probe, leg);
  t = perf::now_ns();
  const NetworkMetrics m = sim.run();
  leg.finalize_s = seconds_since(t);

  leg.generated = m.flits_generated;
  leg.delivered = m.flits_delivered;
  leg.backlog = m.backlog_flits;
  leg.frames = m.frames_completed;
  const std::uint32_t routers = sim.topology().routers();
  for (std::uint32_t r = 0; r < routers; ++r) {
    leg.crossbar_utilization += m.router_utilization[r] / routers;
    leg.mean_matching_size +=
        sim.router(r).crossbar().mean_matching_size() / routers;
  }
  leg.flit_delay_us = m.flit_delay_us.mean();
  leg.frame_delay_us = m.frame_delay_us.mean();
  return leg;
}

void print_leg(const Leg& leg, const Bench& bench, const std::string& engine,
               bool traced, bool windows) {
  JsonLine line("leg");
  line.str("engine", engine)
      .count("traced", traced ? 1 : 0)
      .count("measured_cycles", bench.config.measure_cycles)
      .num("build_s", leg.build_s)
      .num("construct_s", leg.construct_s)
      .num("warmup_s", leg.warmup_s)
      .num("measure_s", leg.measure_s)
      .num("finalize_s", leg.finalize_s)
      .count("window_cycles", bench.window)
      .count("flits_generated", leg.generated)
      .count("flits_delivered", leg.delivered)
      .count("backlog_flits", leg.backlog)
      .count("frames_completed", leg.frames)
      .count("departed_plus_backlog", leg.departed_plus_backlog)
      .num("crossbar_utilization", leg.crossbar_utilization)
      .num("mean_matching_size", leg.mean_matching_size)
      .num("flit_delay_us_mean", leg.flit_delay_us)
      .num("frame_delay_us_mean", leg.frame_delay_us);
  if (windows) line.counts("window_cpu_ns", leg.window_cpu_ns);
}

/// Mix build plus simulation constructor, the set-up a user waits for.
void print_setup(const Bench& bench) {
  double build_s = 0.0;
  double construct_s = 0.0;
  std::uint64_t t = perf::now_ns();
  if (bench.network) {
    NetworkWorkload workload = build_network(bench.config);
    build_s = seconds_since(t);
    t = perf::now_ns();
    const MmrNetworkSimulation sim(bench.config, std::move(workload));
    construct_s = seconds_since(t);
  } else {
    Workload workload = build_single(bench);
    build_s = seconds_since(t);
    t = perf::now_ns();
    const MmrSimulation sim(bench.config, std::move(workload));
    construct_s = seconds_since(t);
  }
  JsonLine("setup").num("build_s", build_s).num("construct_s", construct_s);
}

// --- stand-alone layer loops -------------------------------------------------

/// Replays a second, identically seeded workload's sources through a min-heap
/// of next emissions, exactly as the simulation's traffic step pulls them,
/// for the run's cycles.
void print_replay(std::vector<std::unique_ptr<TrafficSource>>& sources,
                  Cycle total) {
  using Emission = std::pair<Cycle, std::uint32_t>;
  std::priority_queue<Emission, std::vector<Emission>, std::greater<>> heap;
  for (std::uint32_t i = 0; i < sources.size(); ++i) {
    const Cycle next = sources[i]->next_emission();
    if (next != kNever) heap.emplace(next, i);
  }
  std::vector<Flit> buffer;
  std::uint64_t flits = 0;
  const std::uint64_t start = perf::now_ns();
  while (!heap.empty() && heap.top().first < total) {
    const auto [now, index] = heap.top();
    heap.pop();
    buffer.clear();
    sources[index]->generate(now, buffer);
    flits += buffer.size();
    const Cycle next = sources[index]->next_emission();
    if (next != kNever) heap.emplace(next, index);
  }
  JsonLine("replay").count("flits", flits).num("seconds", seconds_since(start));
}

void replay(const Bench& bench) {
  if (bench.network) {
    NetworkWorkload workload = build_network(bench.config);
    print_replay(workload.sources, bench.config.total_cycles());
  } else {
    Workload workload = build_single(bench);
    print_replay(workload.sources, bench.config.total_cycles());
  }
}

/// make_arbiter + arbitrate_into over generated candidate sets at the
/// workload's port count and candidate levels.
void print_arbiter_loop(const Bench& bench, std::uint64_t arbitrations) {
  const SimConfig& c = bench.config;
  audit::GeneratorOptions options;
  options.ports = c.ports;
  options.levels = c.candidate_levels;
  Rng generator(c.seed, 0xA7B);
  std::vector<CandidateSet> sets;
  for (int i = 0; i < 64; ++i) {
    CandidateSet set(c.ports, c.candidate_levels);
    for (const Candidate& candidate : audit::generate_step(generator, options))
      set.add(candidate);
    sets.push_back(std::move(set));
  }
  const std::unique_ptr<SwitchArbiter> arbiter =
      make_arbiter(c.arbiter, c.ports, Rng(c.seed, 0xA1B2));
  Matching matching(c.ports);
  const std::uint64_t start = perf::now_ns();
  for (std::uint64_t i = 0; i < arbitrations; ++i)
    arbiter->arbitrate_into(sets[i % sets.size()], matching);
  JsonLine("arbiter")
      .count("arbitrations", arbitrations)
      .num("seconds", seconds_since(start));
}

/// The torus router's connection table, built the way the network
/// constructor builds it: one entry per hop, in (connection, hop) order.
ConnectionTable router_table(const NetworkWorkload& workload,
                             const SimConfig& c, std::uint32_t router) {
  const RoundAccounting rounds(c.flit_cycles_per_round(), c.time_base());
  ConnectionTable table(c.ports);
  for (const NetworkConnection& connection : workload.connections) {
    for (const Hop& hop : connection.path) {
      if (hop.router != router) continue;
      ConnectionDescriptor descriptor;
      descriptor.traffic_class = connection.traffic_class;
      descriptor.input_link = hop.in_port;
      descriptor.output_link = hop.out_port;
      descriptor.mean_bandwidth_bps = connection.mean_bandwidth_bps;
      descriptor.peak_bandwidth_bps = connection.peak_bandwidth_bps;
      descriptor.slots_per_round =
          rounds.slots_for_bandwidth(connection.mean_bandwidth_bps);
      descriptor.peak_slots_per_round =
          rounds.slots_for_bandwidth(connection.peak_bandwidth_bps);
      table.add(descriptor, c.vcs_per_link);
    }
  }
  return table;
}

/// A stand-alone MmrRouter over the workload's connection table, every VC
/// kept full through can_accept/accept; only step() is timed.
void print_router_loop(const Bench& bench, const ConnectionTable& table,
                       Cycle steps) {
  MmrRouter router(bench.config, table, Rng(bench.config.seed, 0xA0));
  std::vector<std::uint64_t> seq(table.size(), 0);
  const auto refill = [&](std::uint32_t input, std::uint32_t vc, Cycle now) {
    const ConnectionId id = table.at_vc(input, vc);
    while (router.can_accept(input, vc)) {
      Flit flit;
      flit.connection = id;
      flit.seq = seq[id]++;
      flit.generated_at = now;
      flit.frame_origin = now;
      router.accept(input, vc, flit, now);
    }
  };
  for (const ConnectionDescriptor& d : table.all())
    refill(d.input_link, d.vc, 0);

  std::vector<MmrRouter::Departure> departures;
  std::uint64_t busy_ns = 0;
  std::uint64_t departed = 0;
  for (Cycle now = 0; now < steps; ++now) {
    departures.clear();
    const std::uint64_t start = perf::now_ns();
    router.step(now, /*measure=*/true, departures);
    busy_ns += perf::now_ns() - start;
    departed += departures.size();
    for (const MmrRouter::Departure& d : departures)
      refill(d.input, d.vc, now + 1);
  }
  JsonLine("router")
      .count("steps", steps)
      .count("departures", departed)
      .num("seconds", static_cast<double>(busy_ns) * 1e-9);
}

/// The probe's phase shares of the stepping wall time and the sum of its
/// allocation counters.
void print_probe(const perf::PerfProbe& probe) {
  using perf::Phase;
  using perf::Counter;
  JsonLine line("probe");
  for (const Phase phase :
       {Phase::kTraffic, Phase::kLinkSchedule, Phase::kArbitration,
        Phase::kCrossbar, Phase::kCredits, Phase::kMetrics, Phase::kOther}) {
    line.num(std::string("share.") + perf::to_string(phase),
             probe.phase_share(phase));
  }
  line.count("reallocs", probe.count(Counter::kMatchingAlloc) +
                             probe.count(Counter::kCandidateRealloc) +
                             probe.count(Counter::kScratchRealloc) +
                             probe.count(Counter::kDepartureRealloc));
}

// --- modes -------------------------------------------------------------------

/// Set-up samples: at least one, then more until `budget_s` is spent or
/// 1001 are taken, so a sub-millisecond set-up still gets a steady minimum.
void print_setups(const Bench& bench, double budget_s) {
  const std::uint64_t start = perf::now_ns();
  for (int i = 0; i < 1001 && (i == 0 || seconds_since(start) < budget_s); ++i)
    print_setup(bench);
}

void measure(const Bench& bench, double seconds) {
  const std::uint64_t start = perf::now_ns();
  do {
    // Set-up samples before every run, not all up front: the host has slow
    // phases of seconds, and the fastest set-up should come from the least
    // disturbed moment of the whole invocation.
    print_setups(bench, 0.05);
    const Leg leg = bench.network ? run_network(bench, 0, nullptr)
                                  : run_single(bench, nullptr);
    print_leg(leg, bench, bench.network ? "serial" : "single",
              /*traced=*/false, /*windows=*/true);
  } while (seconds_since(start) < seconds);
  JsonLine("rss").count("peak_kb", peak_rss_kb());
}

void check(const Bench& bench) {
  if (bench.network) {
    print_leg(run_network(bench, bench.shard_threads, nullptr), bench,
              "sharded", false, false);
  } else {
    replay(bench);
  }
}

void traced(const Bench& bench, double seconds) {
  print_setups(bench, 0.5);

  // Untraced and probe-armed legs alternate, so drift hits both alike.  On
  // the torus the probes only fire on the serial engine (sharded workers
  // never arm one); the sharded leg gives the speedup's numerator.
  perf::PerfProbe probe;
  const std::uint64_t start = perf::now_ns();
  do {
    if (bench.network) {
      print_leg(run_network(bench, 0, nullptr), bench, "serial", false, false);
      print_leg(run_network(bench, 0, &probe), bench, "serial", true, false);
      print_leg(run_network(bench, bench.shard_threads, nullptr), bench,
                "sharded", false, false);
    } else {
      print_leg(run_single(bench, nullptr), bench, "single", false, false);
      print_leg(run_single(bench, &probe), bench, "single", true, false);
    }
  } while (seconds_since(start) < seconds);
  print_probe(probe);

  replay(bench);
  print_arbiter_loop(bench, 200'000);
  if (bench.network) {
    const NetworkWorkload workload = build_network(bench.config);
    print_router_loop(bench, router_table(workload, bench.config, 0), 20'000);
  } else {
    const Workload workload = build_single(bench);
    print_router_loop(bench, workload.table, 20'000);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 6) {
    std::cerr << "usage: mmr_bench WORKLOAD SEED measure|check|traced SECONDS "
                 "THREADS\n";
    return 2;
  }
  try {
    const std::string mode = argv[3];
    const Bench bench =
        make_bench(argv[1], std::stoull(argv[2]),
                   static_cast<std::uint32_t>(std::stoul(argv[5])));
    const double seconds = std::stod(argv[4]);
    if (mode == "measure") {
      measure(bench, seconds);
    } else if (mode == "check") {
      check(bench);
    } else if (mode == "traced") {
      traced(bench, seconds);
    } else {
      throw std::invalid_argument("unknown mode '" + mode + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

// Seeded, dependency-free mutation fuzzer for every spec grammar, the
// key=value overrides and the command-line rows the bench mains share
// (bench_util.hpp, list rows included).  Mutations: token splice across the
// corpus, numeric edge values (in a list, for its last element),
// truncation, duplicated tokens.  Oracle, per mutant: parsing
// either throws std::invalid_argument, or the spec satisfies
// parse(print(x)) == x, and on one 4-port router and on a 4x4 torus of
// 5-port routers (64 channels) validate() either rejects it or an
// MmrSimulation built from it constructs without throwing
// std::invalid_argument.  Path-valued keys point into a temporary
// directory.  Override mutants are checked for the
// round trip and validate() only: an accepted vcs= or ports= may be far too
// large to build; command-line mutants for the round trip.
//
//   fuzz_specs [iterations=N] [seed=S]     exit 0 = every mutant held

#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "command_line_rows.hpp"
#include "mmr/core/simulation.hpp"
#include "mmr/fault/fault_plan.hpp"
#include "mmr/mmu/spec.hpp"
#include "mmr/overload/spec.hpp"
#include "mmr/router/qd_spec.hpp"
#include "mmr/sim/rng.hpp"
#include "mmr/snapshot/spec.hpp"
#include "mmr/trace/spec.hpp"

namespace mmr {
namespace {

const char* const kEdgeValues[] = {
    "0",   "4294967295", "4294967296", "18446744073709551615",
    "18446744073709551616", "nan", "-0", "1e309", "", "1", "4097", "1x"};

/// One grammar under test: its corpus, the SimConfig field it feeds, and a
/// round-trip check that parses `text` (throwing std::invalid_argument on
/// rejection) and returns false when parse(print(x)) != x.
struct Target {
  const char* name;
  std::string SimConfig::*field;
  std::vector<std::string> corpus;
  bool (*round_trips)(const std::string& text);
};

/// Applies `tokens` to a default S through `grammar` (throwing
/// std::invalid_argument on rejection); false when parse(print(x)) != x.
template <class S>
bool tokens_round_trip(const spec::Grammar& grammar,
                       const std::vector<std::string>& tokens) {
  S parsed;
  spec::apply(grammar, &parsed, {tokens.begin(), tokens.end()});
  if constexpr (requires { parsed.validate(); }) parsed.validate();
  const S defaults;
  const std::vector<std::string> printed =
      spec::print_tokens(grammar, &parsed, &defaults);
  S copy;
  spec::apply(grammar, &copy, {printed.begin(), printed.end()});
  return copy == parsed;
}

std::vector<std::string> tokens_of(const std::string& text,
                                   char separator = ',') {
  std::vector<std::string> out;
  for (const std::string_view token : spec::split(text, separator))
    out.emplace_back(token);
  return out;
}

/// S::parse(text), then the round trip.
template <class S>
bool round_trip(const std::string& text) {
  return tokens_round_trip<S>(S::grammar(), tokens_of(text));
}

/// Mutates a corpus entry: ','-separated spec tokens, or ' '-separated
/// command-line tokens whose values may be ','-separated lists.
std::string mutate(const std::vector<std::string>& corpus, Rng& rng,
                   char separator = ',') {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform(n));
  };
  std::vector<std::string> tokens =
      tokens_of(corpus[pick(corpus.size())], separator);
  const std::uint64_t steps = 1 + rng.uniform(3);
  for (std::uint64_t step = 0; step < steps; ++step) {
    switch (rng.uniform(4)) {
      case 0: {  // splice in the tail of another corpus entry
        const std::vector<std::string> other =
            tokens_of(corpus[pick(corpus.size())], separator);
        if (!tokens.empty()) tokens.resize(pick(tokens.size() + 1));
        for (std::size_t i = other.empty() ? 0 : pick(other.size());
             i < other.size(); ++i)
          tokens.push_back(other[i]);
        break;
      }
      case 1: {  // numeric edge value after the last ':' or '='
        if (tokens.empty()) break;
        std::string& token = tokens[pick(tokens.size())];
        const std::size_t colon =
            token.find_last_of(separator == ',' ? ":=" : "=,");
        const std::string edge = kEdgeValues[pick(std::size(kEdgeValues))];
        token = colon == std::string::npos ? edge : token.substr(0, colon + 1) + edge;
        break;
      }
      case 2: {  // truncation
        std::string text = spec::join(tokens, separator);
        text.resize(pick(text.size() + 1));
        tokens = tokens_of(text, separator);
        break;
      }
      default:  // duplicate a token
        if (!tokens.empty()) tokens.push_back(tokens[pick(tokens.size())]);
        break;
    }
  }
  return spec::join(tokens, separator);
}

int run(std::uint64_t iterations, std::uint64_t seed) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mmr_fuzz_specs").string();
  std::filesystem::create_directories(dir);
  const std::vector<Target> targets = {
      // Windows on both sides of the torus's 64 channels.
      {"fault", &SimConfig::fault_spec,
       {"drop:1e-3,down:0:30000:45000", "down:63:50:150,down:3:10:20",
        "down:64:50:150", "corrupt:0.5,credit_loss:1",
        "drop:0.01,credit_loss:0.005,resync_period:256,resync_timeout:512",
        "deadline:250,seed:7"},
       round_trip<FaultPlan>},
      {"flow", &SimConfig::flow_spec,
       {"shared", "credit", "shared,alpha:0.5,xoff:32,xon:16",
        "shared,pool:128,reserved:3,headroom:6,alpha_be:0.5,ecn:0,kmin:10,"
        "kmax:20,pmax:0.25,ecn_cut:0.75,ecn_floor:0.2,ecn_recover:512,"
        "ecn_step:0.1,sample:32"},
       round_trip<mmu::MmuSpec>},
      {"police", &SimConfig::police_spec,
       {"drop", "shape,penalty:48", "demote,wd_window:128,wd_high:16,wd_low:4",
        "demote,burst:2,vbr_burst:24,deadline:250,wd_alpha:0.5,wd_escalate:2,"
        "wd_recover:8,wd_pause_limit:20000"},
       round_trip<overload::PoliceSpec>},
      {"rogue", &SimConfig::rogue_spec,
       {"frac:0.25,scale:6", "count:2,scale:3,seed:1",
        "count:1,scale:3,burst_scale:2,burst_period:1500,burst_len:300,"
        "class:cbr,seed:1"},
       round_trip<overload::RogueSpec>},
      {"qd", &SimConfig::qd_spec,
       {"vc", "voq", "cicq", "cicq,stab:0,xp:12,thresh:4"},
       round_trip<QdSpec>},
      {"trace", &SimConfig::trace_spec,
       {"stream,out:" + dir + "/t.jsonl,chrome:" + dir + "/t.json,summary:" +
            dir + "/t.txt,limit:5000",
        "flight,ring:2048,dump:" + dir + "/flight,dumps:2"},
       round_trip<trace::TraceSpec>},
      {"snap", &SimConfig::snap_spec,
       {"every:20000,prefix:" + dir + "/ck",
        "hash_every:1000,hash_out:" + dir + "/h.jsonl,crash:0",
        "resume:" + dir + "/missing.snap"},
       round_trip<snapshot::SnapSpec>},
  };

  const NetworkTopology topologies[] = {NetworkTopology::single(4),
                                        NetworkTopology::torus2d(4, 4, 5)};
  Rng rng(seed, 0xF022);
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  int failures = 0;
  const auto fail = [&failures](const std::string& what) {
    std::cerr << "FAIL " << what << '\n';
    ++failures;
  };

  const std::vector<std::string> overrides = {
      "ports=8,vcs=64,arbiter=wfa,priority=iabp,link_bps=1.2e9,buffer_flits=4",
      "levels=2,seed=77,warmup=100,measure=200,round_multiple=8",
      "concurrency_factor=2.5,flit_bits=2048,phit_bits=8,link_latency=2",
      "credit_latency=3,audit=256,net_threads=4,qd=voq,police=drop"};
  const std::vector<std::string> command_lines = {
      "loads=0.2,0.4,0.6 arbiters=coa,wfa,wfa-fixed threads=4 full=1",
      "seeds=10 ports=5,16,63,64,65 threads=0",
      "arbiters=islip loads=0.85 full=0 seeds=4294967295 threads=4096",
      "arbiter=coa arbiter=wfa-fixed ports=128"};
  for (std::uint64_t i = 0; i < 2 * iterations; ++i) {
    const bool line = i % 2 == 1;  // alternate overrides and command lines
    const std::vector<std::string> mutant =
        line ? tokens_of(mutate(command_lines, rng, ' '), ' ')
             : tokens_of(mutate(overrides, rng));
    try {
      if (!(line ? tokens_round_trip<CommandLine>(command_line_grammar(),
                                                  mutant)
                 : tokens_round_trip<SimConfig>(SimConfig::grammar(), mutant)))
        fail("round trip: " + spec::join(mutant, ' '));
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    }
    ++accepted;
  }
  for (const Target& target : targets) {
    for (std::uint64_t i = 0; i < iterations; ++i) {
      const std::string mutant = mutate(target.corpus, rng);
      const std::string label =
          std::string(target.name) + "=" + mutant + " (iteration " +
          std::to_string(i) + ")";
      try {
        if (!target.round_trips(mutant)) fail("parse(print(x)) != x: " + label);
      } catch (const std::invalid_argument&) {
        ++rejected;
        continue;
      } catch (const std::exception& error) {
        fail(label + ": unexpected " + error.what());
        continue;
      }
      ++accepted;
      for (const NetworkTopology& topology : topologies) {
        SimConfig config;
        config.ports = topology.ports_per_router();
        config.vcs_per_link = 16;
        config.warmup_cycles = 100;
        config.measure_cycles = 100;
        config.*target.field = mutant;
        try {
          (void)validate(config, topology);
        } catch (const std::invalid_argument&) {
          continue;
        } catch (const std::runtime_error&) {
          continue;  // resume: of a missing or unreadable checkpoint
        }
        try {
          Rng workload_rng(config.seed, 1);
          CbrMixSpec mix;
          mix.target_load = 0.3;
          Workload workload(topology);
          add_cbr_mix(workload, config, mix, workload_rng);
          MmrSimulation simulation(config, std::move(workload));
        } catch (const std::runtime_error&) {
          // I/O: a trace= output path that cannot be opened
        } catch (const std::exception& error) {
          fail(label + " on " + std::to_string(topology.routers()) +
               " router(s): validate() accepted, construction threw " +
               error.what());
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
  std::printf("fuzz_specs: %llu mutants accepted, %llu rejected, %d failures\n",
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(rejected), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mmr

int main(int argc, char** argv) {
  struct Options {
    std::uint64_t iterations = 400;
    std::uint64_t seed = 1;
  } options;
  const mmr::spec::Grammar grammar{
      "fuzz_specs", '=',
      {mmr::spec::bind<&Options::iterations>({.name = "iterations", .lo = 1}),
       mmr::spec::bind<&Options::seed>({.name = "seed"})}};
  mmr::spec::parse_command_line(grammar, &options, argc, argv);
  return mmr::run(options.iterations, options.seed);
}

// Serial vs sharded network engine bit-identity (ISSUE 9 tentpole).
//
// `net_threads=` is an execution-strategy knob, not a model parameter: for
// any thread count the sharded engine must reproduce the single-threaded
// run exactly — metrics (including float accumulators, which are order-
// sensitive), the full trace event stream, and the snapshot StateHash
// sequence.  These tests drive both engines over generated torus and
// fat-tree fabrics, with and without fault injection, and compare all
// three.

#include "mmr/network/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "mmr/trace/event.hpp"
#include "mmr/trace/tracer.hpp"

namespace mmr {
namespace {

SimConfig shard_config() {
  SimConfig config;
  config.ports = 5;
  config.vcs_per_link = 32;
  config.warmup_cycles = 500;
  config.measure_cycles = 2'500;
  return config;
}

CbrMixSpec light_mix() {
  CbrMixSpec mix;
  mix.target_load = 0.35;
  mix.classes = {kCbrHigh, kCbrMedium};
  mix.class_weights = {3.0, 1.0};
  return mix;
}

enum class Topo { kTorus, kFatTree };

NetworkWorkload make_workload(const SimConfig& config, Topo topo) {
  const NetworkTopology topology =
      topo == Topo::kTorus ? NetworkTopology::torus2d(4, 4, config.ports)
                           : NetworkTopology::fat_tree(4, config.ports);
  Rng rng(config.seed, 7);
  return build_network_cbr_mix(config, topology, light_mix(), rng);
}

struct RunResult {
  NetworkMetrics metrics;
  std::vector<std::uint64_t> hashes;  ///< StateHash every 250 early cycles
  std::vector<trace::Event> events;   ///< empty unless trace= configured
  std::uint64_t final_hash = 0;
};

RunResult run_case(SimConfig config, Topo topo, std::uint32_t net_threads) {
  config.net_threads = net_threads;
  MmrNetworkSimulation sim(config, make_workload(config, topo));
  RunResult result;
  // Hash the state every 250 cycles across the first 1000 by stepping
  // manually; run() then completes the remaining cycles and finalizes.
  while (sim.now() < 1'000) {
    for (int i = 0; i < 250; ++i) sim.step_one();
    result.hashes.push_back(sim.state_hash());
  }
  result.metrics = sim.run();
  result.final_hash = sim.state_hash();
  if (sim.tracer() != nullptr) result.events = sim.tracer()->snapshot();
  return result;
}

void expect_stats_equal(const StreamingStats& a, const StreamingStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  if (!a.empty() && !b.empty()) {
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
  }
}

void expect_bit_identical(const RunResult& serial, const RunResult& sharded) {
  EXPECT_EQ(serial.hashes, sharded.hashes);
  EXPECT_EQ(serial.final_hash, sharded.final_hash);

  const NetworkMetrics& a = serial.metrics;
  const NetworkMetrics& b = sharded.metrics;
  EXPECT_EQ(a.flits_generated, b.flits_generated);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.backlog_flits, b.backlog_flits);
  EXPECT_EQ(a.frames_completed, b.frames_completed);
  expect_stats_equal(a.flit_delay_us, b.flit_delay_us);
  expect_stats_equal(a.delivered_hops, b.delivered_hops);
  expect_stats_equal(a.frame_delay_us, b.frame_delay_us);
  EXPECT_EQ(a.router_utilization, b.router_utilization);
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (std::size_t i = 0; i < a.per_class.size(); ++i) {
    EXPECT_EQ(a.per_class[i].label, b.per_class[i].label);
    EXPECT_EQ(a.per_class[i].flits_generated, b.per_class[i].flits_generated);
    EXPECT_EQ(a.per_class[i].flits_delivered, b.per_class[i].flits_delivered);
    expect_stats_equal(a.per_class[i].flit_delay_us,
                       b.per_class[i].flit_delay_us);
    EXPECT_EQ(a.per_class[i].flit_delay_hist.count(),
              b.per_class[i].flit_delay_hist.count());
  }
  EXPECT_EQ(a.degradation.flits_dropped, b.degradation.flits_dropped);
  EXPECT_EQ(a.degradation.flits_corrupted, b.degradation.flits_corrupted);
  EXPECT_EQ(a.degradation.credits_lost, b.degradation.credits_lost);
  EXPECT_EQ(a.degradation.credits_restored, b.degradation.credits_restored);
  EXPECT_EQ(a.degradation.teardowns, b.degradation.teardowns);
  EXPECT_EQ(a.mmu.admitted_shared, b.mmu.admitted_shared);
  EXPECT_EQ(a.mmu.pause_events, b.mmu.pause_events);
  EXPECT_EQ(a.mmu.ecn_marked, b.mmu.ecn_marked);
  EXPECT_EQ(a.mmu.ecn_cuts, b.mmu.ecn_cuts);
  EXPECT_EQ(a.overload.compliant_delivered, b.overload.compliant_delivered);
  EXPECT_EQ(a.overload.rogue_violations, b.overload.rogue_violations);
  expect_stats_equal(a.overload.shape_delay_us, b.overload.shape_delay_us);
  EXPECT_EQ(a.cicq.transfers, b.cicq.transfers);

  // Trace bytes: the staged replay must reproduce the serial emission order
  // exactly, event for event.
  ASSERT_EQ(serial.events.size(), sharded.events.size());
  for (std::size_t i = 0; i < serial.events.size(); ++i) {
    ASSERT_EQ(std::memcmp(&serial.events[i], &sharded.events[i],
                          sizeof(trace::Event)),
              0)
        << "first trace divergence at event " << i;
  }
}

TEST(NetworkShard, TorusShardedMatchesSerial) {
  const SimConfig config = shard_config();
  const RunResult serial = run_case(config, Topo::kTorus, 0);
  for (const std::uint32_t threads : {2u, 3u, 4u}) {
    const RunResult sharded = run_case(config, Topo::kTorus, threads);
    expect_bit_identical(serial, sharded);
  }
}

TEST(NetworkShard, FatTreeShardedMatchesSerial) {
  const SimConfig config = shard_config();
  const RunResult serial = run_case(config, Topo::kFatTree, 0);
  const RunResult sharded = run_case(config, Topo::kFatTree, 2);
  expect_bit_identical(serial, sharded);
}

TEST(NetworkShard, FaultInjectedTraceAndMetricsMatchSerial) {
  // Fault draws come from per-channel RNG streams owned by exactly one
  // shard, and trace events from every phase ride the staging replay — this
  // case exercises both under drop/corrupt/credit-loss noise.
  SimConfig config = shard_config();
  config.fault_spec =
      "drop:0.01,corrupt:0.005,credit_loss:0.005,"
      "resync_period:256,resync_timeout:512";
  config.trace_spec = "stream";
  const RunResult serial = run_case(config, Topo::kTorus, 0);
  const RunResult sharded = run_case(config, Topo::kTorus, 2);
  expect_bit_identical(serial, sharded);
}

TEST(NetworkShard, NetThreadsOneRunsTheSerialEngine) {
  // 1 is an alias for the serial engine (not a 1-shard parallel run), so
  // unset and 1 are trivially bit-identical.
  const SimConfig config = shard_config();
  const RunResult unset = run_case(config, Topo::kTorus, 0);
  const RunResult one = run_case(config, Topo::kTorus, 1);
  expect_bit_identical(unset, one);
}

// Every opt-in subsystem composes with the network and with the shared-
// buffer MMU, and stays bit-identical under sharding: the per-router MMU's
// Xon/Xoff frames gate upstream routers across shards, ECN throttles reach
// sources in other shards, and audit sweeps check inter-router credit
// conservation on every channel.
TEST(NetworkShard, OptInsComposeOnATorus) {
  const std::vector<std::vector<std::string>> opt_ins = {
      {"police=shape"},
      {"rogue=frac:0.25,scale:4"},
      {"qd=voq"},
      {"qd=cicq"},
      {"audit=16"},
  };
  // A tight pool pauses channels and marks flits on this light load; the
  // default one never fills.
  const std::string tight = "flow=shared,pool:4,reserved:1,xoff:2,xon:1";
  std::vector<std::vector<std::string>> cases = {{"flow=shared"}, {tight}};
  for (const auto& opt : opt_ins) {
    cases.push_back(opt);
    std::vector<std::string> shared = opt;
    shared.push_back("flow=shared");
    cases.push_back(shared);
  }
  // An outage tears connections down (draining VOQs and crosspoints) and
  // re-admits them; lost flits and credits exercise the resync watchdog.
  const std::string outage =
      "fault=drop:0.005,credit_loss:0.005,down:0:400:900,down:9:300:1200,"
      "resync_period:128,resync_timeout:256";
  for (const char* qd : {"qd=voq", "qd=cicq"}) {
    cases.push_back({qd, outage, "audit=16"});
    cases.push_back({qd, outage, "flow=shared"});
  }
  // Demoted flits are charged to the lossy pool; a teardown that flushes
  // them must return that charge, not one of their connection's class.
  const std::string demote = "police=demote";
  for (const char* qd : {"qd=vc", "qd=voq", "qd=cicq"}) {
    cases.push_back(
        {"flow=shared", outage, demote, "rogue=frac:0.25,scale:4", qd});
  }
  const auto has = [](const std::vector<std::string>& overrides,
                      const std::string& key) {
    return std::find(overrides.begin(), overrides.end(), key) !=
           overrides.end();
  };
  for (const auto& overrides : cases) {
    SimConfig config = shard_config();
    config.warmup_cycles = 300;
    config.measure_cycles = 1'200;
    apply_overrides(config, overrides);
    std::string label;
    for (const std::string& o : overrides) label += o + " ";
    SCOPED_TRACE(label);
    const RunResult serial = run_case(config, Topo::kTorus, 0);
    const RunResult sharded = run_case(config, Topo::kTorus, 2);
    expect_bit_identical(serial, sharded);
    EXPECT_EQ(serial.metrics.mmu.drops_lossless, 0u);
    EXPECT_GT(serial.metrics.flits_delivered, 0u);
    if (has(overrides, tight)) {
      EXPECT_GT(serial.metrics.mmu.pause_events, 0u);
      EXPECT_GT(serial.metrics.mmu.ecn_cuts, 0u);
    }
    if (has(overrides, outage)) {
      EXPECT_GT(serial.metrics.degradation.teardowns, 0u);
      EXPECT_GT(serial.metrics.degradation.flits_flushed, 0u);
    }
    if (has(overrides, demote)) {
      EXPECT_GT(serial.metrics.overload.rogue_policed, 0u);
    }
  }
}

}  // namespace
}  // namespace mmr

// Trace layer (ISSUE 5 tentpole): spec parsing, stream/flight buffering,
// flight-recorder dump triggers (watchdog alarm, fault activation, assert
// hook, SimAuditor violations), exporter well-formedness and byte
// determinism, and — the property everything else rests on — that arming a
// tracer never perturbs simulation results.

#include "mmr/trace/tracer.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mmr/audit/sim_auditor.hpp"
#include "mmr/core/simulation.hpp"
#include "mmr/sim/assert.hpp"
#include "mmr/trace/export.hpp"

namespace mmr {
namespace {

using trace::Event;
using trace::EventType;
using trace::TraceMeta;
using trace::Tracer;
using trace::TraceScope;
using trace::TraceSpec;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TraceMeta tiny_meta() {
  TraceMeta meta;
  meta.ports = 2;
  meta.vcs = 4;
  meta.levels = 2;
  meta.arbiter = "coa";
  meta.seed = 7;
  return meta;
}

TEST(TraceSpec, ParseModesAndKeys) {
  const TraceSpec stream = TraceSpec::parse("stream");
  EXPECT_EQ(stream.mode, TraceSpec::Mode::kStream);
  EXPECT_TRUE(stream.out.empty());

  const TraceSpec full = TraceSpec::parse(
      "stream,out:run.jsonl,chrome:run.json,summary:conns.txt,limit:500");
  EXPECT_EQ(full.out, "run.jsonl");
  EXPECT_EQ(full.chrome, "run.json");
  EXPECT_EQ(full.summary, "conns.txt");
  EXPECT_EQ(full.limit, 500u);

  const TraceSpec flight =
      TraceSpec::parse("flight,ring:64,dump:crash,dumps:2");
  EXPECT_EQ(flight.mode, TraceSpec::Mode::kFlight);
  EXPECT_EQ(flight.ring, 64u);
  EXPECT_EQ(flight.dump_prefix, "crash");
  EXPECT_EQ(flight.max_dumps, 2u);
}

TEST(TraceSpec, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)TraceSpec::parse(""), std::invalid_argument);
  EXPECT_THROW((void)TraceSpec::parse("out:x.jsonl"), std::invalid_argument);
  EXPECT_THROW((void)TraceSpec::parse("stream,flight"), std::invalid_argument);
  EXPECT_THROW((void)TraceSpec::parse("stream,bogus:1"), std::invalid_argument);
  EXPECT_THROW((void)TraceSpec::parse("flight,ring:abc"),
               std::invalid_argument);
  EXPECT_THROW((void)TraceSpec::parse("stream,noseparator"),
               std::invalid_argument);
}

TEST(TraceScopeTest, ArmsPerThreadAndNests) {
  EXPECT_EQ(trace::current(), nullptr);
  Tracer outer(TraceSpec::parse("stream"), tiny_meta());
  {
    TraceScope arm_outer(&outer);
    EXPECT_EQ(trace::current(), &outer);
    {
      TraceScope disarm(nullptr);
      EXPECT_EQ(trace::current(), nullptr);
    }
    EXPECT_EQ(trace::current(), &outer);
  }
  EXPECT_EQ(trace::current(), nullptr);
}

TEST(TracerStream, BuffersInOrderAndTruncatesAtLimit) {
  Tracer tracer(TraceSpec::parse("stream,limit:3"), tiny_meta());
  for (std::uint64_t i = 0; i < 5; ++i)
    tracer.emit(trace::inject_event(/*now=*/i, /*link=*/0, /*vc=*/1,
                                    /*connection=*/9, /*seq=*/i));
  EXPECT_EQ(tracer.emitted(), 5u);
  EXPECT_EQ(tracer.truncated(), 2u);
  const std::vector<Event> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (std::uint64_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].cycle, i);
    EXPECT_EQ(events[i].a, i);
    EXPECT_EQ(events[i].type, EventType::kInject);
  }
}

TEST(TracerFlight, RingKeepsTheLastNInOrder) {
  Tracer tracer(TraceSpec::parse("flight,ring:16"), tiny_meta());
  for (std::uint64_t i = 0; i < 50; ++i)
    tracer.emit(trace::vc_enqueue_event(/*now=*/i, /*port=*/0, /*vc=*/0,
                                        /*connection=*/1, /*seq=*/i));
  EXPECT_EQ(tracer.emitted(), 50u);
  const std::vector<Event> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 16u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].cycle, 34u + i);  // the last 16, oldest first
}

TEST(TracerFlight, SnapshotMergesNodesByCycle) {
  Tracer tracer(TraceSpec::parse("flight,ring:16"), tiny_meta());
  for (std::uint64_t cycle = 0; cycle < 6; ++cycle) {
    tracer.set_node(static_cast<std::uint16_t>(cycle % 2));
    tracer.emit(trace::credit_return_event(cycle, /*input=*/0, /*vc=*/0));
  }
  const std::vector<Event> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 6u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].cycle, i);
    EXPECT_EQ(events[i].node, i % 2);
  }
}

TEST(TracerFlight, WatchdogAlarmTriggersADump) {
  const std::string prefix = tmp_path("wd-dump");
  Tracer tracer(TraceSpec::parse("flight,ring:16,dump:" + prefix),
                tiny_meta());
  tracer.emit(trace::inject_event(1, 0, 0, 3, 0));
  // Stage transitions below the alarm stage must not dump.
  tracer.emit(trace::watchdog_event(2, /*stage=*/2, /*escalated=*/true, 10));
  EXPECT_EQ(tracer.dumps_written(), 0u);
  tracer.emit(trace::watchdog_event(3, /*stage=*/3, /*escalated=*/true, 99));
  ASSERT_EQ(tracer.dumps_written(), 1u);
  const std::string body = read_file(tracer.dump_paths().front());
  EXPECT_NE(body.find("\"schema\":\"mmr-trace-v1\""), std::string::npos);
  EXPECT_NE(body.find("\"trigger\":\"watchdog-alarm\""), std::string::npos);
  EXPECT_NE(body.find("\"type\":\"watchdog\""), std::string::npos);
}

TEST(TracerFlight, LinkDownTriggersADumpAndTheCapHolds) {
  const std::string prefix = tmp_path("fault-dump");
  Tracer tracer(TraceSpec::parse("flight,ring:16,dumps:1,dump:" + prefix),
                tiny_meta());
  tracer.emit(trace::fault_event(5, trace::FaultKind::kLinkDown, 2));
  ASSERT_EQ(tracer.dumps_written(), 1u);
  EXPECT_NE(read_file(tracer.dump_paths().front())
                .find("\"trigger\":\"fault-down\""),
            std::string::npos);
  // A second trigger is over the dumps:1 cap: recorded, not dumped.
  tracer.emit(trace::fault_event(9, trace::FaultKind::kLinkDown, 3));
  EXPECT_EQ(tracer.dumps_written(), 1u);
  EXPECT_EQ(tracer.emitted(), 2u);
}

TEST(TracerDeathTest, AssertFailureDumpsTheFlightRecorder) {
  const std::string prefix = tmp_path("assert-dump");
  EXPECT_DEATH(
      {
        Tracer tracer(TraceSpec::parse("flight,ring:16,dump:" + prefix),
                      tiny_meta());
        TraceScope arm(&tracer);
        MMR_TRACE_EVENT(trace::inject_event(1, 0, 0, 7, 0));
        MMR_ASSERT_MSG(false, "deliberate failure for the dump test");
      },
      "flight recorder dumped");
  // The dump was written by the death-test child before it aborted.
  const std::string body = read_file(prefix + "-assert-0.jsonl");
  EXPECT_NE(body.find("\"schema\":\"mmr-trace-v1\""), std::string::npos);
  EXPECT_NE(body.find("\"trigger\":\"assert\""), std::string::npos);
}

TEST(TracerDeathTest, SimAuditorViolationDumpsTheFlightRecorder) {
  SimConfig config;
  config.ports = 2;
  config.vcs_per_link = 4;
  config.audit_every = 8;
  const std::string prefix = tmp_path("audit-dump");
  EXPECT_DEATH(
      {
        Tracer tracer(TraceSpec::parse("flight,ring:16,dump:" + prefix),
                      tiny_meta());
        TraceScope arm(&tracer);
        audit::SimAuditor auditor(config, {});
        ConnectionTable table(config.ports);
        const MmrRouter router(config, table, Rng(1, 1));
        // Two same-cycle departures from one input: a crossbar-conflict
        // invariant the auditor must kill the run over.
        std::vector<MmrRouter::Departure> departures(2);
        departures[0].input = departures[1].input = 0;
        departures[0].output = 0;
        departures[1].output = 1;
        // Distinct nonzero seqs keep the per-VC FIFO invariant quiet so the
        // crossbar-conflict one is what kills the run.
        departures[0].flit.seq = 1;
        departures[1].flit.seq = 2;
        auditor.on_departures(/*now=*/1, router, departures);
      },
      "two departures from one input");
  const std::string body = read_file(prefix + "-assert-0.jsonl");
  EXPECT_NE(body.find("\"trigger\":\"assert\""), std::string::npos);
}

TEST(TraceExport, JsonlCarriesHeaderAndAllIntegerEventFields) {
  Tracer tracer(TraceSpec::parse("stream"), tiny_meta());
  tracer.emit(trace::candidate_event(3, 1, 0, 2, 1, 40));
  tracer.emit(trace::deliver_event(4, 1, 0, 2, 5, 17, 9));
  std::ostringstream out;
  tracer.export_jsonl(out, "end");
  const std::string text = out.str();
  EXPECT_NE(text.find("\"schema\":\"mmr-trace-v1\""), std::string::npos);
  EXPECT_NE(text.find("\"arbiter\":\"coa\""), std::string::npos);
  EXPECT_NE(text.find("\"events\":2"), std::string::npos);
  EXPECT_NE(text.find("{\"cycle\":3,\"type\":\"candidate\",\"node\":0,"
                      "\"input\":1,\"output\":0,\"vc\":2,\"conn\":" +
                      std::to_string(trace::kNoConnection) +
                      ",\"level\":1,\"a\":40,\"b\":0}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"type\":\"deliver\""), std::string::npos);
}

/// Brace/bracket balance outside of string literals — a cheap well-formedness
/// check that catches truncated or comma-broken JSON without a parser.
bool json_balanced(const std::string& text) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

TEST(TraceExport, ChromeTraceIsWellFormedWithNamedTracks) {
  std::vector<Event> events;
  events.push_back(trace::vc_enqueue_event(1, 0, 2, 4, 0));
  events.push_back(trace::xbar_event(2, 0, 1, 2, 4, 0));
  events.push_back(trace::watchdog_event(3, 1, true, 5));  // control track
  std::ostringstream out;
  trace::write_chrome(out, tiny_meta(), events);
  const std::string text = out.str();
  EXPECT_TRUE(json_balanced(text)) << text;
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("\"in0/vc2\""), std::string::npos);
  EXPECT_NE(text.find("\"control\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\",\"dur\":1"), std::string::npos);
}

TEST(TraceExport, ConnectionSummaryCountsLifecycleEvents) {
  std::vector<Event> events;
  events.push_back(trace::inject_event(1, 0, 0, 5, 0));
  events.push_back(trace::inject_event(2, 0, 0, 5, 1));
  events.push_back(trace::deliver_event(3, 0, 1, 0, 5, 0, 2));
  events.push_back(trace::inject_event(3, 1, 1, 6, 0));
  events.push_back(trace::candidate_event(3, 0, 1, 0, 0, 9));  // no conn
  const std::string table = trace::render_connection_summary(events);
  EXPECT_NE(table.find("conn"), std::string::npos);
  EXPECT_NE(table.find("inject"), std::string::npos);
  EXPECT_NE(table.find("deliver"), std::string::npos);
  EXPECT_NE(table.find('5'), std::string::npos);
  EXPECT_NE(table.find('6'), std::string::npos);
}

SimConfig golden_config() {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 2'000;
  config.measure_cycles = 10'000;
  config.arbiter = "coa";
  return config;
}

SimulationMetrics run_cbr_golden(Tracer* tracer) {
  const SimConfig config = golden_config();
  Rng rng(config.seed, 1);
  CbrMixSpec spec;
  spec.target_load = 0.6;
  spec.classes = {kCbrHigh, kCbrMedium};
  spec.class_weights = {3.0, 1.0};
  MmrSimulation simulation(config, build_cbr_mix(config, spec, rng));
  TraceScope arm(tracer);
  return simulation.run();
}

SimulationMetrics run_vbr_golden(Tracer* tracer) {
  SimConfig config = golden_config();
  config.measure_cycles = 5'000;
  Rng rng(config.seed, 2);
  VbrMixSpec spec;
  spec.target_load = 0.5;
  MmrSimulation simulation(config, build_vbr_mix(config, spec, rng));
  TraceScope arm(tracer);
  return simulation.run();
}

void expect_bit_identical(const SimulationMetrics& off,
                          const SimulationMetrics& on) {
  EXPECT_EQ(off.flits_generated, on.flits_generated);
  EXPECT_EQ(off.flits_delivered, on.flits_delivered);
  EXPECT_EQ(off.flit_delay_us.mean(), on.flit_delay_us.mean());
  EXPECT_EQ(off.flit_delay_us.max(), on.flit_delay_us.max());
  EXPECT_EQ(off.delivered_load, on.delivered_load);
  EXPECT_EQ(off.crossbar_utilization, on.crossbar_utilization);
}

// The determinism proof: arming a tracer must not perturb the simulation in
// any way — golden-seed metrics are bit-identical with tracing on and off.
TEST(TraceDeterminism, TracedCbrRunIsBitIdentical) {
  const SimulationMetrics off = run_cbr_golden(nullptr);
  Tracer tracer(TraceSpec::parse("stream,limit:2000000"), tiny_meta());
  const SimulationMetrics on = run_cbr_golden(&tracer);
  expect_bit_identical(off, on);
  EXPECT_GT(tracer.emitted(), 0u);
}

TEST(TraceDeterminism, TracedVbrRunIsBitIdentical) {
  const SimulationMetrics off = run_vbr_golden(nullptr);
  Tracer tracer(TraceSpec::parse("flight,ring:1024"), tiny_meta());
  const SimulationMetrics on = run_vbr_golden(&tracer);
  expect_bit_identical(off, on);
  EXPECT_GT(tracer.emitted(), 0u);
}

/// One tiny 2-port CBR run with every output configured; used by both the
/// byte-determinism and the golden-file tests.
SimulationMetrics run_tiny_traced(const std::string& tag) {
  SimConfig config;
  config.ports = 2;
  config.vcs_per_link = 4;
  config.warmup_cycles = 20;
  config.measure_cycles = 200;
  config.arbiter = "coa";
  config.audit_every = 64;
  config.trace_spec = "stream,out:" + tmp_path(tag + ".jsonl") +
                      ",chrome:" + tmp_path(tag + ".json") +
                      ",summary:" + tmp_path(tag + ".txt");
  Rng rng(config.seed, 1);
  CbrMixSpec spec;
  spec.target_load = 0.5;
  spec.classes = {kCbrHigh};
  spec.class_weights = {1.0};
  MmrSimulation simulation(config, build_cbr_mix(config, spec, rng));
  return simulation.run();
}

// Satellite (c): identical SimConfig + seed must produce *byte-identical*
// mmr-trace-v1 output (and Chrome / summary renderings) across runs in one
// process — no unordered-container iteration or capacity-dependent ordering
// may leak into the files.
TEST(TraceDeterminism, RepeatedRunsProduceByteIdenticalOutputs) {
  const SimulationMetrics first = run_tiny_traced("det-a");
  const SimulationMetrics second = run_tiny_traced("det-b");
  EXPECT_EQ(first.flits_delivered, second.flits_delivered);
  for (const char* ext : {".jsonl", ".json", ".txt"}) {
    const std::string a = read_file(tmp_path(std::string("det-a") + ext));
    const std::string b = read_file(tmp_path(std::string("det-b") + ext));
    EXPECT_FALSE(a.empty()) << ext;
    EXPECT_EQ(a, b) << "trace output diverged across identical runs: " << ext;
  }
}

// Golden-file pin of the mmr-trace-v1 format for a tiny deterministic run.
// Regenerate deliberately (after a reviewed schema change) with:
//   MMR_REGEN_GOLDEN=1 ./test_trace --gtest_filter='*MatchesGoldenFile*'
TEST(TraceGolden, TinyCbrRunMatchesGoldenFile) {
  (void)run_tiny_traced("golden");
  const std::string produced = read_file(tmp_path("golden.jsonl"));
  ASSERT_FALSE(produced.empty());
  const std::string golden_path =
      std::string(MMR_TEST_DATA_DIR) + "/trace_golden.jsonl";
  if (std::getenv("MMR_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out << produced;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  const std::string golden = read_file(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << golden_path;
  EXPECT_EQ(produced, golden)
      << "trace format drifted from " << golden_path
      << " (regenerate with MMR_REGEN_GOLDEN=1 if the change is intended)";
}

}  // namespace
}  // namespace mmr

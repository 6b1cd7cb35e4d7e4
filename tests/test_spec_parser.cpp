// The one spec parser (mmr/sim/spec_parser.hpp), checked through every
// grammar's key table: each row accepts its bounds and rejects one past
// them, every accepted spec survives parse(print(spec)), and the
// unknown-key message lists exactly the table.  Plus regressions for inputs
// the hand-written parsers truncated or coerced, the spec strings the docs,
// benches and examples use, pinned to their parsed meaning, and the
// command-line rows the bench mains share (list rows included).

#include "mmr/sim/spec_parser.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mmr/fault/fault_plan.hpp"
#include "mmr/mmu/spec.hpp"
#include "mmr/overload/spec.hpp"
#include "mmr/router/qd_spec.hpp"
#include "mmr/sim/config.hpp"
#include "mmr/snapshot/spec.hpp"
#include "command_line_rows.hpp"
#include "mmr/trace/spec.hpp"
#include "spec_test_util.hpp"

namespace mmr {
namespace {

using overload::PoliceSpec;
using overload::RogueSpec;
using spec::Grammar;
using spec::Key;
using spec::Kind;

bool is_mode(const Key& key) {
  return key.kind == Kind::kWord && *key.name == '\0';
}

/// Applies `value` to `key` on a default spec, preceded by the mode word the
/// grammar's keys need.  No cross-field validate(): this checks the table.
template <class S>
S apply_one(const Grammar& grammar, const Key& key, const std::string& value) {
  std::vector<std::string> tokens;
  if (is_mode(grammar.keys.front()) && !is_mode(key))
    tokens.emplace_back(grammar.keys.front().words[static_cast<std::size_t>(
        grammar.keyed_mode >= 0 ? grammar.keyed_mode : 0)]);
  tokens.push_back(is_mode(key) ? value
                                : key.name + std::string(1, grammar.separator) +
                                      value);
  S spec{};
  spec::apply(grammar, &spec, {tokens.begin(), tokens.end()});
  return spec;
}

/// parse(print(spec)), without the cross-field validate().
template <class S>
S reparse(const Grammar& grammar, const S& spec) {
  const S defaults{};
  const std::vector<std::string> tokens =
      spec::print_tokens(grammar, &spec, &defaults);
  S out{};
  spec::apply(grammar, &out, {tokens.begin(), tokens.end()});
  return out;
}

std::string text(double value) { return spec::show(Key{}, value).front(); }

/// The values a row must accept (its bounds) and reject (one past them).
std::pair<std::vector<std::string>, std::vector<std::string>> probes(
    const Key& key) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (key.kind) {
    case Kind::kUnsigned: {
      std::vector<std::string> reject = {
          key.hi == std::numeric_limits<std::uint64_t>::max()
              ? "18446744073709551616"
              : std::to_string(key.hi + 1)};
      if (key.lo > 0) reject.push_back(std::to_string(key.lo - 1));
      return {{std::to_string(key.lo), std::to_string(key.hi)}, reject};
    }
    case Kind::kDouble:
      return {{text(key.dlo), text(key.dhi)},
              {text(std::nextafter(key.dlo, -kInf)),
               text(std::nextafter(key.dhi, kInf))}};
    case Kind::kBool:
      return {{"0", "1"}, {"2", "-1"}};
    case Kind::kWord:
      return {{key.words.begin(), key.words.end()}, {"bogus"}};
    case Kind::kString:
      return {{"", "out/x.jsonl"}, {}};
    case Kind::kSetter:
    case Kind::kList:
      break;  // pinned by the grammar's own tests below
  }
  return {};
}

template <class S>
void check_table(const Grammar& grammar) {
  std::set<std::string> names;
  std::string listing;
  for (const Key& key : grammar.keys) {
    const std::string name = is_mode(key) ? "(mode)" : key.name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate row " << name;
    std::vector<std::string> words(key.words.begin(), key.words.end());
    if (!listing.empty()) listing += ", ";
    listing += is_mode(key) ? spec::join(words, '|') : name;

    const auto [accept, reject] = probes(key);
    for (const std::string& value : accept) {
      SCOPED_TRACE(name + " <- '" + value + "'");
      const S parsed = apply_one<S>(grammar, key, value);
      EXPECT_EQ(key.get(key, &parsed), std::vector<std::string>{value});
      EXPECT_TRUE(reparse(grammar, parsed) == parsed);
    }
    for (const std::string& value : reject)
      EXPECT_INVALID((void)apply_one<S>(grammar, key, value),
                     is_mode(key) ? std::string("is not one of") : name);
  }
  // The unknown-key message ends with exactly the table's keys.
  S spec{};
  const std::string bogus = std::string("no_such_key") + grammar.separator;
  try {
    spec::apply(grammar, &spec, {bogus + "1"});
    ADD_FAILURE() << "unknown key accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind(std::string(grammar.name) + " spec: ", 0), 0u) << what;
    EXPECT_EQ(what.substr(what.find("valid keys: ") + 12), listing);
  }
}

TEST(SpecTable, Config) { check_table<SimConfig>(SimConfig::grammar()); }
TEST(SpecTable, Fault) { check_table<FaultPlan>(FaultPlan::grammar()); }
TEST(SpecTable, Flow) { check_table<mmu::MmuSpec>(mmu::MmuSpec::grammar()); }
TEST(SpecTable, Police) { check_table<PoliceSpec>(PoliceSpec::grammar()); }
TEST(SpecTable, Rogue) { check_table<RogueSpec>(RogueSpec::grammar()); }
TEST(SpecTable, Qd) { check_table<QdSpec>(QdSpec::grammar()); }
TEST(SpecTable, Trace) { check_table<trace::TraceSpec>(trace::TraceSpec::grammar()); }
TEST(SpecTable, Snap) {
  check_table<snapshot::SnapSpec>(snapshot::SnapSpec::grammar());
}

// The two setter keys.
TEST(SpecTable, FaultDownWindowsRepeatAndRoundTrip) {
  const FaultPlan plan = FaultPlan::parse("down:0:10:20,down:3:5:6");
  ASSERT_EQ(plan.down_windows.size(), 2u);
  EXPECT_EQ(plan.down_windows[1], (LinkDownWindow{3, 5, 6}));
  EXPECT_EQ(spec::print(FaultPlan::grammar(), plan), "down:0:10:20,down:3:5:6");
  EXPECT_TRUE(FaultPlan::parse(spec::print(FaultPlan::grammar(), plan)) == plan);
  EXPECT_INVALID((void)FaultPlan::parse("down:4294967296:1:2"), "out of range");
  EXPECT_INVALID((void)FaultPlan::parse("down:0:1:2:3"), "unsigned integer");
  EXPECT_INVALID((void)FaultPlan::parse("down:0::2"), "unsigned integer");
  EXPECT_INVALID((void)FaultPlan::parse("down:5:5"), "CH:FROM:TO");
}

TEST(SpecTable, NetThreadsTakesHwOrABoundedCount) {
  SimConfig config;
  apply_overrides(config, {"net_threads=4096"});
  EXPECT_EQ(config.net_threads, 4096u);
  EXPECT_INVALID(apply_overrides(config, {"net_threads=4097"}),
                 "out of range [0, 4096]");
  apply_overrides(config, {"net_threads=hw"});
  EXPECT_GE(config.net_threads, 1u);
  // "hw" is resolved at parse time, so print() carries the number.
  const SimConfig defaults;
  SimConfig copy;
  apply_overrides(copy,
                  spec::print_tokens(SimConfig::grammar(), &config, &defaults));
  EXPECT_TRUE(copy == config);
}

// Inputs the hand-written parsers silently truncated or coerced.
TEST(SpecRegression, NoSilentTruncationOrCoercion) {
  EXPECT_INVALID((void)QdSpec::parse("cicq,xp:4294967297"),
                 "'xp:4294967297' out of range [1, 4294967295]");
  SimConfig config;
  EXPECT_INVALID(apply_overrides(config, {"vcs=4294967297"}),
                 "'vcs=4294967297' out of range");
  EXPECT_INVALID((void)PoliceSpec::parse("shape,penalty:4294967296"),
                 "'penalty:4294967296' out of range");
  EXPECT_INVALID((void)QdSpec::parse("cicq,stab:7"),
                 "'stab:7' out of range [0, 1]");
  EXPECT_INVALID((void)mmu::MmuSpec::parse("shared,ecn:2"), "out of range");
  EXPECT_INVALID((void)snapshot::SnapSpec::parse("crash:2"), "out of range");
  // A pool of 2^64-1 used to wrap the 32-bit allowance check back to small.
  EXPECT_INVALID((void)mmu::MmuSpec::parse("shared,pool:18446744073709551615")
                     .resolve(SimConfig{}),
                 "too large for 32-bit credit accounting");
  EXPECT_INVALID((void)FaultPlan::parse("seed:-1"), "unsigned integer");
  EXPECT_INVALID((void)FaultPlan::parse("drop: 0.1"), "finite number");
}

TEST(SpecRegression, DuplicateKeysAreRejectedInEveryGrammar) {
  EXPECT_INVALID((void)PoliceSpec::parse("shape,burst:2,burst:3"),
                 "duplicate key 'burst'");
  EXPECT_INVALID((void)RogueSpec::parse("frac:0.1,frac:0.2"), "duplicate key");
  EXPECT_INVALID((void)QdSpec::parse("cicq,xp:2,xp:3"), "duplicate key");
  EXPECT_INVALID((void)mmu::MmuSpec::parse("shared,pool:8,pool:9"),
                 "duplicate key");
  EXPECT_INVALID((void)trace::TraceSpec::parse("stream,out:a,out:b"),
                 "duplicate key");
  EXPECT_INVALID((void)snapshot::SnapSpec::parse("every:1,every:2"),
                 "duplicate key");
  EXPECT_INVALID((void)FaultPlan::parse("seed:1,seed:2"), "duplicate key");
  EXPECT_INVALID((void)QdSpec::parse("cicq,voq"), "duplicate mode word");
  SimConfig config;
  EXPECT_INVALID(apply_overrides(config, {"measure=1", "measure=2"}),
                 "duplicate key 'measure'");
}

TEST(SpecRegression, ModeWordMayStandAnywhereAndKeysNeedTheirMode) {
  EXPECT_EQ(QdSpec::parse("xp:3,cicq").crosspoint_flits, 3u);
  EXPECT_EQ(PoliceSpec::parse("penalty:8,shape").policy,
            overload::OverloadPolicy::kShape);
  EXPECT_INVALID((void)mmu::MmuSpec::parse("credit,alpha:2"),
                 "key 'alpha' only applies to shared");
  EXPECT_INVALID((void)QdSpec::parse("voq,thresh:2"),
                 "key 'thresh' only applies to cicq");
  EXPECT_INVALID((void)PoliceSpec::parse("burst:2"),
                 "must name one of drop|shape|demote");
}

// Every spec string in README, DESIGN, EXPERIMENTS, scripts/, bench/ and
// examples/, with its canonical print(): the mode word plus every field
// that differs from the default.  A documented spec may never change
// meaning.
template <class S>
void expect_meanings(const std::vector<std::pair<std::string, std::string>>&
                         documented) {
  for (const auto& [text, canonical] : documented) {
    const S parsed = S::parse(text);
    EXPECT_EQ(spec::print(S::grammar(), parsed), canonical) << text;
  }
}

TEST(SpecDocs, DocumentedSpecsKeepTheirMeaning) {
  expect_meanings<FaultPlan>({
      {"drop:1e-3,down:0:30000:45000", "drop:0.001,down:0:30000:45000"},
      {"drop:2e-4,corrupt:1e-4,credit_loss:1e-4,down:0:70000:110000",
       "drop:2e-04,corrupt:1e-04,credit_loss:1e-04,down:0:70000:110000"},
      {"drop:0.01,credit_loss:0.005,resync_period:256,resync_timeout:512",
       "drop:0.01,credit_loss:0.005,resync_period:256,resync_timeout:512"},
  });
  expect_meanings<mmu::MmuSpec>({
      {"credit", "credit"},
      {"shared", "shared"},
      {"shared,alpha:0.5,xoff:32,xon:16", "shared,alpha:0.5,xoff:32,xon:16"},
  });
  expect_meanings<PoliceSpec>({
      {"drop", "drop"},
      {"shape", "shape"},
      {"demote", "demote"},
      {"shape,penalty:64", "shape"},
      {"shape,penalty:48", "shape,penalty:48"},
      {"demote,wd_window:256", "demote,wd_window:256"},
      {"demote,wd_window:128,wd_high:16,wd_low:4",
       "demote,wd_window:128,wd_high:16,wd_low:4"},
  });
  expect_meanings<RogueSpec>({
      {"frac:0.25,scale:6", "scale:6"},
      {"frac:0.25,scale:4", "scale:4"},
      {"frac:0.3,scale:5", "frac:0.3,scale:5"},
      {"frac:0.5,scale:5", "frac:0.5,scale:5"},
      {"count:4,scale:6", "count:4,scale:6"},
      {"count:2,scale:3,seed:1", "count:2,seed:1"},
      {"count:1,scale:3,burst_scale:2,burst_period:1500,burst_len:300,"
       "class:cbr,seed:1",
       "count:1,burst_scale:2,burst_period:1500,burst_len:300,seed:1,"
       "class:cbr"},
      {"count:1,scale:4,burst_scale:2,burst_period:5000,burst_len:1000,"
       "class:cbr",
       "count:1,scale:4,burst_scale:2,burst_period:5000,burst_len:1000,"
       "class:cbr"},
  });
  expect_meanings<QdSpec>({
      {"", "vc"},
      {"vc", "vc"},
      {"voq", "voq"},
      {"cicq", "cicq"},
      {"cicq,stab:0", "cicq,stab:0"},
      {"cicq,stab:1", "cicq"},
      {"cicq,stab:1,xp:4,thresh:2", "cicq,xp:4,thresh:2"},
      {"cicq,stab:0,xp:12,thresh:4", "cicq,stab:0,xp:12"},
      {"cicq,stab:1,xp:12,thresh:4", "cicq,xp:12"},
  });
  expect_meanings<trace::TraceSpec>({
      {"stream", "stream"},
      {"flight", "flight"},
      {"stream,out:run.jsonl", "stream,out:run.jsonl"},
      {"stream,out:coa.jsonl", "stream,out:coa.jsonl"},
      {"stream,out:run.jsonl,chrome:run.json,summary:run.txt",
       "stream,out:run.jsonl,chrome:run.json,summary:run.txt"},
      {"stream,limit:50000000", "stream,limit:50000000"},
      {"flight,ring:4096", "flight"},
      {"flight,ring:4096,dump:quickstart", "flight,dump:quickstart"},
      {"flight,ring:8192,dump:my-crash", "flight,dump:my-crash,ring:8192"},
      {"flight,ring:2048,dump:traced-saturation",
       "flight,dump:traced-saturation,ring:2048"},
  });
  expect_meanings<snapshot::SnapSpec>({
      {"every:20000,prefix:ck", "every:20000,prefix:ck"},
      {"every:1500,prefix:ck", "every:1500,prefix:ck"},
      {"hash_every:1000,hash_out:hashes.jsonl",
       "hash_every:1000,hash_out:hashes.jsonl"},
      {"hash_every:500,prefix:soak", "hash_every:500,prefix:soak"},
      {"prefix:soak", "prefix:soak"},
      {"resume:ck-20000.snap", "resume:ck-20000.snap"},
      {"hash_every:500,prefix:soak_re,resume:soak.snap",
       "hash_every:500,prefix:soak_re,resume:soak.snap"},
  });
}

// The command-line rows the bench mains share, parse-only: no bound checked
// here starts a thread or a run.  check_table() probes the scalar rows.
TEST(SpecTable, CommandLine) {
  check_table<CommandLine>(command_line_grammar());
}

CommandLine apply_line(const std::vector<std::string_view>& tokens) {
  CommandLine line;
  spec::apply(command_line_grammar(), &line, tokens);
  return line;
}

TEST(CommandLine, ListRowsTakeCommaSeparatedElementsAndRoundTrip) {
  const CommandLine line =
      apply_line({"loads=0.2,0.85", "arbiters=coa,wfa-fixed", "ports=2,1024",
                  "arbiter=coa", "arbiter=rr"});
  EXPECT_EQ(line.loads, (std::vector<double>{0.2, 0.85}));
  EXPECT_EQ(line.arbiters, (std::vector<std::string>{"coa", "wfa-fixed"}));
  EXPECT_EQ(line.ports, (std::vector<std::uint32_t>{2, 1024}));
  EXPECT_EQ(line.arbiter, (std::vector<std::string>{"coa", "rr"}));
  const CommandLine defaults;
  EXPECT_EQ(spec::print_tokens(command_line_grammar(), &line, &defaults),
            (std::vector<std::string>{"loads=0.2,0.85",
                                      "arbiters=coa,wfa-fixed", "ports=2,1024",
                                      "arbiter=coa", "arbiter=rr"}));
  EXPECT_TRUE(reparse(command_line_grammar(), line) == line);
}

TEST(CommandLine, RejectsEmptyListsAndElementsJunkAndOutOfRange) {
  EXPECT_INVALID(apply_line({"loads="}), "'loads=' has an empty list element");
  EXPECT_INVALID(apply_line({"loads=0.2,,0.4"}), "empty list element");
  EXPECT_INVALID(apply_line({"arbiters=coa,"}), "empty list element");
  EXPECT_INVALID(apply_line({"loads=0.5x"}), "'loads=0.5x' is not a finite");
  EXPECT_INVALID(apply_line({"ports=4x"}), "is not an unsigned integer");
  EXPECT_INVALID(apply_line({"loads=0.2,0"}), "out of range (0, max]");
  EXPECT_INVALID(apply_line({"ports=4,1"}), "out of range [2, 1024]");
  EXPECT_INVALID(apply_line({"arbiters=coa,bogus"}), "is not one of coa|");
  EXPECT_INVALID(apply_line({"arbiter=coa,wfa"}), "is not one of coa|");
  EXPECT_INVALID(apply_line({"threads=-1"}), "is not an unsigned integer");
  EXPECT_INVALID(apply_line({"seeds=0x"}), "is not an unsigned integer");
  EXPECT_INVALID(apply_line({"full=maybe"}), "is not an unsigned integer");
}

TEST(CommandLine, EntryPointRoutesFlagsOwnKeysAndOverrides) {
  const char* argv[] = {"main", "full", "measure=100", "arbiter=wfa",
                        "vcs=64"};
  CommandLine line;
  std::vector<std::string> overrides;
  spec::parse_command_line(command_line_grammar(), &line, 5, argv, &overrides);
  EXPECT_TRUE(line.full);
  EXPECT_EQ(line.arbiter, std::vector<std::string>{"wfa"});
  EXPECT_EQ(overrides, (std::vector<std::string>{"measure=100", "vcs=64"}));
}

// A key neither the main's grammar nor SimConfig's has: the message lists
// both, the main's rows first, a SimConfig key the main shadows (ports,
// arbiter) once.
TEST(CommandLineDeathTest, UnknownKeyListsTheMainsAndTheConfigKeys) {
  const char* argv[] = {"main", "loads=0.2", "vcs=64", "bogus=1"};
  CommandLine line;
  std::vector<std::string> overrides;
  EXPECT_EXIT(spec::parse_command_line(command_line_grammar(), &line, 4, argv,
                                       &overrides),
              ::testing::ExitedWithCode(1),
              "error: command line spec: unknown key 'bogus'; valid keys: "
              "loads, arbiters, threads, full, seeds, ports, arbiter, vcs, "
              "link_bps, .*, net_threads\n");
}

}  // namespace
}  // namespace mmr

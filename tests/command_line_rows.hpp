// The command-line rows the bench mains share (bench/bench_util.hpp) and a
// repeatable list row, on one options struct, for test_spec_parser and
// fuzz_specs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace mmr {

struct CommandLine {
  std::vector<double> loads;
  std::vector<std::string> arbiters = {"coa", "wfa"};
  std::size_t threads = 0;
  bool full = false;
  std::uint32_t seeds = 200;
  std::vector<std::uint32_t> ports = {4};
  std::vector<std::string> arbiter;  ///< repeatable, as in audit_soak
  bool operator==(const CommandLine&) const = default;
};

inline const spec::Grammar& command_line_grammar() {
  using C = CommandLine;
  static const spec::Grammar grammar{
      "command line", '=',
      {bench::loads<&C::loads>(), bench::arbiters<&C::arbiters>(),
       bench::threads<&C::threads>(), bench::full<&C::full>(),
       bench::seeds<&C::seeds>(), bench::ports<&C::ports>(),
       spec::bind<&C::arbiter>({.name = "arbiter",
                                .words = bench::arbiter_words(),
                                .repeat = true})}};
  return grammar;
}

}  // namespace mmr

// Command line of the seeded differential-oracle test binaries (test_nic,
// test_vcm): gtest flags plus `iterations=N` and `seed=S`, in the style of
// fuzz_specs.  The defaults keep the tier-1 run fast; ctest's tier-2 label
// and scripts/check.sh run the same oracles longer.
//
//   test_nic [--gtest_*] [iterations=N] [seed=S]
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "mmr/sim/spec_parser.hpp"

namespace mmr::oracle {

struct Args {
  std::uint64_t iterations = 2'000;  ///< random steps per oracle scenario
  std::uint64_t seed = 1;
};

inline Args& args() {
  static Args parsed;
  return parsed;
}

/// The test binary's main: strips gtest flags, parses the rest.
inline int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  const spec::Grammar grammar{
      "oracle", '=',
      {spec::bind<&Args::iterations>({.name = "iterations", .lo = 1}),
       spec::bind<&Args::seed>({.name = "seed"})}};
  spec::parse_command_line(grammar, &args(), argc, argv);
  return RUN_ALL_TESTS();
}

}  // namespace mmr::oracle

// Command line of the seeded differential-oracle test binaries (test_nic,
// test_vcm): gtest flags plus `iterations=N` and `seed=S`, in the style of
// fuzz_specs.  The defaults keep the tier-1 run fast; ctest's tier-2 label
// and scripts/check.sh run the same oracles longer.
//
//   test_nic [--gtest_*] [iterations=N] [seed=S]
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <string>

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
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg.rfind("iterations=", 0) == 0) {
        args().iterations = std::stoull(arg.substr(11));
        continue;
      }
      if (arg.rfind("seed=", 0) == 0) {
        args().seed = std::stoull(arg.substr(5));
        continue;
      }
    } catch (const std::exception&) {
    }
    std::cerr << "usage: " << argv[0]
              << " [--gtest_*] [iterations=N] [seed=S]\n";
    return 2;
  }
  return RUN_ALL_TESTS();
}

}  // namespace mmr::oracle

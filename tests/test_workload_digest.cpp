// Workload digests (workload_digest.hpp) of every mix builder.  The
// expected values pin every builder's draw order on one router and on routed
// fabrics, so a refactor of the placement code must reproduce each mix
// exactly.  A digest that moves is a changed workload, never a test to
// re-pin without a reviewed reason.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mmr/traffic/mix.hpp"
#include "workload_digest.hpp"

namespace mmr {
namespace {

SimConfig single_config(std::uint32_t ports) {
  SimConfig config;
  config.ports = ports;
  return config;
}

CbrMixSpec fat_mix(double load) {
  CbrMixSpec spec;
  spec.target_load = load;
  spec.classes = {kCbrHigh, kCbrMedium};
  spec.class_weights = {3.0, 1.0};
  return spec;
}

struct Case {
  const char* name;
  std::function<Workload()> build;
  std::uint64_t expected;
};

std::vector<Case> cases() {
  std::vector<Case> all;
  const auto cbr4 = [](CbrMixSpec spec, std::uint64_t stream) {
    return [spec, stream] {
      const SimConfig config = single_config(4);
      Rng rng(config.seed, stream);
      return build_cbr_mix(config, spec, rng);
    };
  };
  {
    CbrMixSpec spec;
    spec.target_load = 0.70;
    all.push_back({"single4-cbr-uniform", cbr4(spec, 1), 0x1e5a82744c9a0873ull});
    spec.destinations = DestinationPolicy::kBalanced;
    all.push_back({"single4-cbr-balanced", cbr4(spec, 2), 0x8d0618f14f95afbdull});
  }
  {
    CbrMixSpec spec;
    spec.target_load = 0.30;
    spec.hot_output = 2;
    all.push_back({"single4-cbr-hot-output", cbr4(spec, 3), 0x3de4952d917b3af8ull});
  }
  {
    CbrMixSpec spec;
    spec.target_load = 1.0;
    spec.enforce_admission = true;
    all.push_back({"single4-cbr-admission", cbr4(spec, 4), 0x00a6c99dad315413ull});
  }
  // The class fallback: the high class dominates the draws, so a link's
  // budget soon forces smaller classes, and eight VCs end the link first.
  all.push_back({"single4-cbr-fallback", [] {
                   SimConfig config = single_config(4);
                   config.vcs_per_link = 8;
                   Rng rng(config.seed, 5);
                   CbrMixSpec spec;
                   spec.target_load = 0.05;
                   spec.class_weights = {1.0, 1.0, 50.0};
                   return build_cbr_mix(config, spec, rng);
                 },
                 0x99c6f66c26ced043ull});
  all.push_back({"single16-vbr-bb", [] {
                   const SimConfig config = single_config(16);
                   Rng rng(config.seed, 6);
                   VbrMixSpec spec;
                   spec.target_load = 0.70;
                   spec.model = InjectionModel::kBackToBack;
                   spec.destinations = DestinationPolicy::kBalanced;
                   spec.trace_gops = 2;
                   return build_vbr_mix(config, spec, rng);
                 },
                 0xf20ceb6f8ee39773ull});
  all.push_back({"single4-cbr+best-effort", [] {
                   const SimConfig config = single_config(4);
                   Rng rng(config.seed, 7);
                   CbrMixSpec spec;
                   spec.target_load = 0.30;
                   Workload workload = build_cbr_mix(config, spec, rng);
                   Rng be_rng(config.seed, 8);
                   BestEffortSpec be;
                   be.load = 0.2;
                   be.connections_per_link = 3;
                   add_best_effort(workload, config, be, be_rng);
                   return workload;
                 },
                 0xf8aa3ef0fe663365ull});
  all.push_back({"torus4x4-cbr", [] {
                   SimConfig config = single_config(5);
                   config.vcs_per_link = 64;
                   Rng rng(config.seed, 9);
                   Workload workload(NetworkTopology::torus2d(4, 4, 5));
                   add_cbr_mix(workload, config, fat_mix(0.35), rng);
                   return workload;
                 },
                 0x07129b36628d0a0aull});
  all.push_back({"torus4x4-vbr", [] {
                   SimConfig config = single_config(5);
                   config.vcs_per_link = 160;
                   Rng rng(config.seed, 10);
                   VbrMixSpec spec;
                   spec.target_load = 0.30;
                   spec.trace_gops = 2;
                   Workload workload(NetworkTopology::torus2d(4, 4, 5));
                   add_vbr_mix(workload, config, spec, rng);
                   return workload;
                 },
                 0x0734880cd646ea4full});
  all.push_back({"fat-tree4-cbr", [] {
                   SimConfig config = single_config(4);
                   config.vcs_per_link = 64;
                   Rng rng(config.seed, 11);
                   Workload workload(NetworkTopology::fat_tree(4, 4));
                   add_cbr_mix(workload, config, fat_mix(0.35), rng);
                   return workload;
                 },
                 0x9497a5fc65a0243bull});
  return all;
}

TEST(WorkloadDigest, EveryBuilderReproducesItsPinnedMix) {
  for (const Case& c : cases()) {
    Workload workload = c.build();
    EXPECT_GT(workload.size(), 0u) << c.name;
    const std::uint64_t got = test::workload_digest(workload);
    EXPECT_EQ(got, c.expected)
        << c.name << ": digest 0x" << std::hex << got << " != pinned 0x"
        << c.expected;
  }
}

}  // namespace
}  // namespace mmr

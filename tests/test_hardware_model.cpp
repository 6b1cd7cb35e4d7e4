#include "mmr/arbiter/hardware_model.hpp"

#include <gtest/gtest.h>

#include "mmr/arbiter/factory.hpp"

namespace mmr {
namespace {

TEST(HwBlocks, ComparatorAndAdderScaleLinearlyInArea) {
  EXPECT_DOUBLE_EQ(hw::comparator(32).gate_equivalents,
                   2 * hw::comparator(16).gate_equivalents);
  EXPECT_DOUBLE_EQ(hw::adder(32).gate_equivalents,
                   2 * hw::adder(16).gate_equivalents);
  // Delay grows logarithmically.
  EXPECT_EQ(hw::comparator(32).critical_path_gates,
            hw::comparator(16).critical_path_gates + 1);
}

TEST(HwBlocks, MaxTreeDepthIsLogarithmic) {
  const HardwareEstimate small = hw::max_tree(4, 16);
  const HardwareEstimate big = hw::max_tree(16, 16);
  EXPECT_DOUBLE_EQ(big.critical_path_gates, 2 * small.critical_path_gates);
  EXPECT_GT(big.gate_equivalents, small.gate_equivalents);
  EXPECT_DOUBLE_EQ(hw::max_tree(1, 16).gate_equivalents, 0.0);
}

TEST(HwBlocks, DividerDwarfsShifter) {
  const HardwareEstimate shifter = hw::barrel_shifter(16);
  const HardwareEstimate divider = hw::array_divider(16);
  EXPECT_GT(divider.gate_equivalents, 5 * shifter.gate_equivalents);
  EXPECT_GT(divider.critical_path_gates, 10 * shifter.critical_path_gates);
}

TEST(PriorityLogic, SiabpBeatsIabpLikeThePaper) {
  // Section 3.1: VHDL synthesis showed ~10x area and ~38x delay reduction
  // replacing the IABP divider with the SIABP shifter.  The structural
  // model should land in that order of magnitude.
  const HardwareEstimate siabp =
      estimate_priority_logic(PriorityScheme::kSiabp, 20, 16);
  const HardwareEstimate iabp =
      estimate_priority_logic(PriorityScheme::kIabp, 20, 16);
  const double area_ratio = iabp.gate_equivalents / siabp.gate_equivalents;
  const double delay_ratio =
      iabp.critical_path_gates / siabp.critical_path_gates;
  EXPECT_GT(area_ratio, 4.0);
  EXPECT_LT(area_ratio, 40.0);
  EXPECT_GT(delay_ratio, 10.0);
  EXPECT_LT(delay_ratio, 100.0);
}

TEST(PriorityLogic, OrderingAcrossSchemes) {
  const auto area = [](PriorityScheme scheme) {
    return estimate_priority_logic(scheme, 20, 16).gate_equivalents;
  };
  EXPECT_LT(area(PriorityScheme::kStatic), area(PriorityScheme::kFifoAge));
  EXPECT_LT(area(PriorityScheme::kFifoAge), area(PriorityScheme::kSiabp));
  EXPECT_LT(area(PriorityScheme::kSiabp), area(PriorityScheme::kIabp));
}

TEST(ArbiterModel, EveryRegisteredArbiterHasAnEstimate) {
  for (const std::string& name : arbiter_names()) {
    const HardwareEstimate estimate = estimate_arbiter(name, 4, 4, 16);
    EXPECT_GT(estimate.gate_equivalents, 0.0) << name;
    EXPECT_GT(estimate.critical_path_gates, 0.0) << name;
  }
  EXPECT_THROW((void)estimate_arbiter("bogus", 4, 4, 16),
               std::invalid_argument);
}

TEST(ArbiterModel, OnlyMaxMatchIsInfeasibleAtLineRate) {
  for (const std::string& name : arbiter_names()) {
    const HardwareEstimate estimate = estimate_arbiter(name, 8, 4, 16);
    EXPECT_EQ(estimate.line_rate_feasible, name != "maxmatch") << name;
  }
}

TEST(ArbiterModel, WfaIsTheAreaBaseline) {
  // The paper picks WFA partly for hardware cost: it must undercut COA and
  // the sorting-based greedy scheme in area at equal ports.
  const double wfa = estimate_arbiter("wfa", 8, 4, 16).gate_equivalents;
  const double coa = estimate_arbiter("coa", 8, 4, 16).gate_equivalents;
  const double greedy = estimate_arbiter("greedy", 8, 4, 16).gate_equivalents;
  EXPECT_LT(wfa, coa);
  EXPECT_LT(wfa, greedy);
}

TEST(ArbiterModel, WrappedWfaIsFasterThanPlain) {
  const HardwareEstimate plain = estimate_arbiter("wfa", 16, 4, 16);
  const HardwareEstimate wrapped = estimate_arbiter("wwfa", 16, 4, 16);
  EXPECT_LT(wrapped.critical_path_gates, plain.critical_path_gates);
}

TEST(ArbiterModel, AreaGrowsWithPorts) {
  for (const char* name : {"coa", "wfa", "islip", "pim", "greedy"}) {
    const double small = estimate_arbiter(name, 4, 4, 16).gate_equivalents;
    const double big = estimate_arbiter(name, 16, 4, 16).gate_equivalents;
    EXPECT_GT(big, small) << name;
  }
}

TEST(ArbiterModel, SingleIterationVariantsAreFaster) {
  EXPECT_LT(estimate_arbiter("islip1", 8, 4, 16).critical_path_gates,
            estimate_arbiter("islip", 8, 4, 16).critical_path_gates);
  EXPECT_LT(estimate_arbiter("pim1", 8, 4, 16).critical_path_gates,
            estimate_arbiter("pim", 8, 4, 16).critical_path_gates);
}

TEST(ArbiterModel, IterativeCriticalPathCostsTheSimulatorsBudget) {
  // One grant and one accept encoder traversal per iteration, for exactly
  // the iterations the simulator runs.
  for (const char* name : {"islip", "pim", "islip1", "pim1"}) {
    for (const std::uint32_t ports : {4u, 5u, 8u, 16u}) {
      const double encoder = hw::priority_encoder(ports).critical_path_gates;
      EXPECT_DOUBLE_EQ(estimate_arbiter(name, ports, 4, 16).critical_path_gates,
                       2.0 * arbiter_iterations(name, ports) * encoder)
          << name << " at " << ports << " ports";
    }
  }
}

TEST(ArbiterModel, EstimatesCompose) {
  const HardwareEstimate a{10.0, 2.0, true};
  const HardwareEstimate b{5.0, 3.0, false};
  const HardwareEstimate sum = a + b;
  EXPECT_DOUBLE_EQ(sum.gate_equivalents, 15.0);
  EXPECT_DOUBLE_EQ(sum.critical_path_gates, 5.0);
  EXPECT_FALSE(sum.line_rate_feasible);
}

}  // namespace
}  // namespace mmr

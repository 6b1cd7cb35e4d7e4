// Hardware cost analysis (the paper's future work, Section 6): first-order
// area (gate equivalents) and delay (gate delays) of every switch scheduler
// vs port count, plus the Section 3.1 SIABP-vs-IABP link-scheduler
// comparison the paper quantified by VHDL synthesis (~10x area, ~38x delay).

#include <iostream>

#include "mmr/arbiter/factory.hpp"
#include "mmr/arbiter/hardware_model.hpp"
#include "mmr/sim/spec_parser.hpp"
#include "mmr/sim/table.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  spec::parse_command_line({"hardware_cost", '=', {}}, nullptr, argc, argv);
  constexpr std::uint32_t kLevels = 4;
  constexpr std::uint32_t kPriorityBits = 16;
  const std::vector<std::uint32_t> port_counts = {4, 8, 16, 32};

  std::cout << "==== Switch scheduler hardware cost (structural model) "
               "====\n"
            << kLevels << " candidate levels, " << kPriorityBits
            << "-bit priorities; area in 2-input gate equivalents (GE), "
               "delay in gate delays\n\n";

  AsciiTable area({"arbiter", "4x4 GE", "8x8 GE", "16x16 GE", "32x32 GE"});
  AsciiTable delay({"arbiter", "4x4", "8x8", "16x16", "32x32"});
  for (const std::string& name : arbiter_names()) {
    std::vector<std::string> area_row = {name};
    std::vector<std::string> delay_row = {name};
    for (std::uint32_t ports : port_counts) {
      const HardwareEstimate estimate =
          estimate_arbiter(name, ports, kLevels, kPriorityBits);
      if (!estimate.line_rate_feasible) {
        area_row.emplace_back("(oracle)");
        delay_row.emplace_back("(oracle)");
      } else {
        area_row.push_back(AsciiTable::num(estimate.gate_equivalents, 0));
        delay_row.push_back(AsciiTable::num(estimate.critical_path_gates, 0));
      }
    }
    area.add_row(std::move(area_row));
    delay.add_row(std::move(delay_row));
  }
  std::cout << "Area:\n" << area.render();
  std::cout << "Critical path (per arbitration):\n" << delay.render() << '\n';

  std::cout << "==== Link-scheduler priority biasing (per VC) ====\n";
  AsciiTable bias({"scheme", "area (GE)", "delay (gates)", "vs SIABP area",
                   "vs SIABP delay"});
  const HardwareEstimate siabp =
      estimate_priority_logic(PriorityScheme::kSiabp, 20, kPriorityBits);
  for (PriorityScheme scheme :
       {PriorityScheme::kSiabp, PriorityScheme::kIabp,
        PriorityScheme::kFifoAge, PriorityScheme::kStatic}) {
    const HardwareEstimate estimate =
        estimate_priority_logic(scheme, 20, kPriorityBits);
    bias.add_row({to_string(scheme),
                  AsciiTable::num(estimate.gate_equivalents, 0),
                  AsciiTable::num(estimate.critical_path_gates, 1),
                  AsciiTable::num(
                      estimate.gate_equivalents / siabp.gate_equivalents, 1),
                  AsciiTable::num(estimate.critical_path_gates /
                                      siabp.critical_path_gates,
                                  1)});
  }
  std::cout << bias.render();
  std::cout << "\nPaper reference (Section 3.1, VHDL synthesis): replacing "
               "IABP's divider with\nSIABP's shifter reduced silicon area "
               "~10x and delay ~38x at equal QoS.\n";
  return 0;
}

#include "support/twins.hpp"

#include "mmr/arbiter/factory.hpp"
#include "support/scan_arbiters.hpp"

namespace mmr::test_support {

const std::vector<Twin>& twins() {
  using Arbiter = std::unique_ptr<SwitchArbiter>;
  static const std::vector<Twin> table = {
      {"coa", "coa-scan",
       [](std::uint32_t p, Rng rng) -> Arbiter {
         return std::make_unique<CandidateOrderScanArbiter>(p, rng);
       }},
      {"wfa", "wfa-scan",
       [](std::uint32_t p, Rng) -> Arbiter {
         return std::make_unique<WaveFrontScanArbiter>(p, /*rotate=*/true);
       }},
      {"wfa-fixed", "wfa-fixed-scan",
       [](std::uint32_t p, Rng) -> Arbiter {
         return std::make_unique<WaveFrontScanArbiter>(p, /*rotate=*/false);
       }},
      {"islip", "islip-scan",
       [](std::uint32_t p, Rng) -> Arbiter {
         return std::make_unique<IslipScanArbiter>(
             p, arbiter_iterations("islip", p));
       }},
      {"pim", "pim-scan",
       [](std::uint32_t p, Rng rng) -> Arbiter {
         return std::make_unique<PimScanArbiter>(
             p, rng, arbiter_iterations("pim", p));
       }},
      {"rr", "rr-scan",
       [](std::uint32_t p, Rng) -> Arbiter {
         return std::make_unique<RoundRobinScanArbiter>(p);
       }},
  };
  return table;
}

}  // namespace mmr::test_support

#include "mmr/mmu/spec.hpp"

#include "mmr/sim/assert.hpp"

namespace mmr::mmu {

constexpr const char* kFlowWords[] = {"credit", "shared"};
constexpr double kBelowOne = 1.0 - 0x1p-53;  ///< largest double < 1

const char* to_string(FlowMode m) {
  return kFlowWords[static_cast<std::size_t>(m)];
}

const spec::Grammar& MmuSpec::grammar() {
  using spec::bind;
  using spec::kPositive;
  using M = MmuSpec;
  static const spec::Grammar grammar{"mmu", ':', {
      bind<&M::mode>({.words = kFlowWords}),
      bind<&M::pool_flits>({.name = "pool"}),
      bind<&M::reserved_per_class>({.name = "reserved"}),
      bind<&M::headroom_flits>({.name = "headroom"}),
      bind<&M::alpha>({.name = "alpha", .dlo = kPositive}),
      bind<&M::alpha_be>({.name = "alpha_be", .dlo = kPositive}),
      bind<&M::xoff_flits>({.name = "xoff"}),
      bind<&M::xon_flits>({.name = "xon"}),
      bind<&M::ecn>({.name = "ecn"}),
      bind<&M::ecn_kmin>({.name = "kmin"}),
      bind<&M::ecn_kmax>({.name = "kmax"}),
      bind<&M::ecn_pmax>({.name = "pmax", .dlo = kPositive, .dhi = 1}),
      bind<&M::ecn_cut>(
          {.name = "ecn_cut", .dlo = kPositive, .dhi = kBelowOne}),
      bind<&M::ecn_floor>({.name = "ecn_floor", .dlo = kPositive, .dhi = 1}),
      bind<&M::ecn_recover>({.name = "ecn_recover"}),
      bind<&M::ecn_step>({.name = "ecn_step", .dlo = kPositive}),
      bind<&M::sample_every>({.name = "sample", .lo = 1})},
      /*mode_required=*/true, /*keyed_mode=*/int(FlowMode::kShared)};
  return grammar;
}

MmuSpec MmuSpec::resolve(const SimConfig& config) const {
  MMR_ASSERT_MSG(mode == FlowMode::kShared,
                 "only the shared regime has derivable pool geometry");
  MmuSpec r = *this;
  if (r.pool_flits == 0) r.pool_flits = 48ull * config.ports;
  if (r.headroom_flits == 0) {
    // Worst case between the Xoff decision and the NIC observing it: the
    // pause frame propagates for credit_latency cycles (the NIC sends one
    // flit per cycle meanwhile), link_latency flits are already on the
    // wire, plus slack for the same-cycle arrival that triggered the pause.
    r.headroom_flits = static_cast<std::uint32_t>(config.credit_latency +
                                                  config.link_latency + 2);
  }
  if (r.xoff_flits == 0) {
    const std::uint64_t half_share = r.pool_flits / (2ull * config.ports);
    r.xoff_flits = static_cast<std::uint32_t>(half_share < 8 ? 8 : half_share);
  }
  if (r.xon_flits == 0) r.xon_flits = r.xoff_flits / 2;
  if (r.ecn_kmin == 0) r.ecn_kmin = r.pool_flits / 8;
  if (r.ecn_kmax == 0) r.ecn_kmax = r.pool_flits / 2;
  spec::check(grammar(), r);
  if (r.xon_flits >= r.xoff_flits)
    spec::fail(grammar(), "Xon must sit strictly below Xoff (hysteresis)");
  if (r.ecn_kmin >= r.ecn_kmax) spec::fail(grammar(), "ECN needs kmin < kmax");
  if (r.pool_flits > ~std::uint32_t{0} ||
      3ull * r.reserved_per_class + r.pool_flits + r.headroom_flits >
          ~std::uint32_t{0})
    spec::fail(grammar(), "shared pool too large for 32-bit credit accounting");
  return r;
}

std::uint32_t MmuSpec::vc_slots() const {
  const std::uint64_t port_allowance = 3ull * reserved_per_class + pool_flits +
                                       headroom_flits;
  MMR_ASSERT_MSG(port_allowance <= ~std::uint32_t{0},
                 "shared pool too large for 32-bit credit accounting");
  return static_cast<std::uint32_t>(port_allowance);
}

}  // namespace mmr::mmu

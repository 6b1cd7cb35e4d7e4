#include "mmr/sim/config.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "mmr/sim/thread_pool.hpp"

namespace mmr {

namespace {

constexpr const char* kPriorityWords[] = {"siabp", "iabp", "fifo-age", "static"};
/// The MMU sums both latencies into its 32-bit pause headroom.
constexpr std::uint64_t kMaxLatency = 1'000'000;

void set_net_threads(const spec::Key&, void* config, std::string_view value) {
  static_cast<SimConfig*>(config)->net_threads =
      value == "hw" ? std::clamp(std::thread::hardware_concurrency(), 1u,
                                 kMaxThreads)
                    : static_cast<std::uint32_t>(
                          spec::parse_unsigned(value, 0, kMaxThreads));
}

std::vector<std::string> get_net_threads(const spec::Key&, const void* config) {
  return {std::to_string(static_cast<const SimConfig*>(config)->net_threads)};
}

}  // namespace

const char* to_string(PriorityScheme s) {
  return kPriorityWords[static_cast<std::size_t>(s)];
}

const spec::Grammar& SimConfig::grammar() {
  using spec::bind;
  using C = SimConfig;
  static const spec::Grammar grammar{"config", '=', {
      bind<&C::ports>({.name = "ports", .lo = 2, .hi = kMaxPorts}),
      bind<&C::vcs_per_link>({.name = "vcs", .lo = 1}),
      bind<&C::link_bandwidth_bps>(
          {.name = "link_bps", .dlo = spec::kPositive}),
      bind<&C::flit_bits>({.name = "flit_bits", .lo = 1}),
      bind<&C::phit_bits>({.name = "phit_bits", .lo = 1}),
      bind<&C::buffer_flits_per_vc>({.name = "buffer_flits", .lo = 1}),
      bind<&C::candidate_levels>(
          {.name = "levels", .lo = 1, .hi = kMaxCandidateLevels}),
      bind<&C::link_latency>({.name = "link_latency", .hi = kMaxLatency}),
      bind<&C::credit_latency>({.name = "credit_latency", .hi = kMaxLatency}),
      bind<&C::round_multiple>({.name = "round_multiple", .lo = 1}),
      bind<&C::concurrency_factor>({.name = "concurrency_factor", .dlo = 1}),
      bind<&C::priority_scheme>({.name = "priority", .words = kPriorityWords}),
      bind<&C::arbiter>({.name = "arbiter"}),
      bind<&C::seed>({.name = "seed"}),
      bind<&C::warmup_cycles>({.name = "warmup"}),
      bind<&C::measure_cycles>({.name = "measure", .lo = 1}),
      bind<&C::fault_spec>({.name = "fault"}),
      bind<&C::flow_spec>({.name = "flow"}),
      bind<&C::audit_every>({.name = "audit"}),
      bind<&C::police_spec>({.name = "police"}),
      bind<&C::rogue_spec>({.name = "rogue"}),
      bind<&C::trace_spec>({.name = "trace"}),
      bind<&C::snap_spec>({.name = "snap"}),
      bind<&C::qd_spec>({.name = "qd"}),
      {.name = "net_threads", .set = set_net_threads, .get = get_net_threads}}};
  return grammar;
}

void SimConfig::validate() const {
  spec::check(grammar(), *this);
  const auto fail = [](const char* what) { spec::fail(grammar(), what); };
  if (flit_bits % phit_bits != 0)
    fail("flit_bits must be a whole number of phit_bits");
  if (candidate_levels > vcs_per_link)
    fail("more candidate levels than VCs is meaningless");
  if (std::uint64_t{round_multiple} * vcs_per_link >
      std::numeric_limits<std::uint32_t>::max())
    fail("round_multiple x vcs overflows the 32-bit round length");
  if (warmup_cycles > std::numeric_limits<Cycle>::max() - measure_cycles)
    fail("warmup + measure overflows the cycle counter");
}

void apply_overrides(SimConfig& config,
                     const std::vector<std::string>& overrides) {
  spec::apply(SimConfig::grammar(), &config,
              {overrides.begin(), overrides.end()});
}

}  // namespace mmr

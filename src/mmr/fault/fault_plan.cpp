#include "mmr/fault/fault_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "mmr/sim/assert.hpp"

namespace mmr {

bool FaultPlan::empty() const {
  return down_windows.empty() && !default_rates.any() &&
         std::none_of(channel_rates.begin(), channel_rates.end(),
                      [](const auto& entry) { return entry.second.any(); });
}

ChannelFaultRates FaultPlan::rates_for(std::uint32_t channel) const {
  ChannelFaultRates rates = default_rates;
  for (const auto& [ch, override_rates] : channel_rates) {
    if (ch == channel) rates = override_rates;
  }
  return rates;
}

namespace {

/// `down:CH:FROM:TO`, the one repeatable key.
void set_down(const spec::Key&, void* plan, std::string_view value) {
  std::uint64_t parts[3] = {};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t colon = i < 2 ? value.find(':') : value.size();
    if (colon == std::string_view::npos)
      throw std::invalid_argument("needs CH:FROM:TO");
    parts[i] = spec::parse_unsigned(value.substr(0, colon), 0,
                                    i == 0 ? ~std::uint32_t{0} : ~Cycle{0});
    value.remove_prefix(std::min(colon + 1, value.size()));
  }
  if (parts[1] >= parts[2])
    throw std::invalid_argument("needs down_at < up_at");
  static_cast<FaultPlan*>(plan)->down_windows.push_back(
      {static_cast<std::uint32_t>(parts[0]), parts[1], parts[2]});
}

std::vector<std::string> get_down(const spec::Key&, const void* plan) {
  std::vector<std::string> values;
  for (const auto& w : static_cast<const FaultPlan*>(plan)->down_windows)
    values.push_back(std::to_string(w.channel) + ":" +
                     std::to_string(w.down_at) + ":" + std::to_string(w.up_at));
  return values;
}

}  // namespace

const spec::Grammar& FaultPlan::grammar() {
  using spec::bind;
  using F = FaultPlan;
  using R = ChannelFaultRates;
  static const spec::Grammar grammar{"fault", ':', {
      bind<&F::default_rates, &R::drop_probability>(
          {.name = "drop", .dlo = 0, .dhi = 1}),
      bind<&F::default_rates, &R::corrupt_probability>(
          {.name = "corrupt", .dlo = 0, .dhi = 1}),
      bind<&F::default_rates, &R::credit_loss_probability>(
          {.name = "credit_loss", .dlo = 0, .dhi = 1}),
      {.name = "down", .repeat = true, .set = set_down, .get = get_down},
      bind<&F::resync_period>({.name = "resync_period", .lo = 1}),
      bind<&F::resync_timeout>({.name = "resync_timeout"}),
      bind<&F::qos_deadline_cycles>(
          {.name = "deadline", .dlo = spec::kPositive}),
      bind<&F::seed>({.name = "seed"})}};
  return grammar;
}

void FaultPlan::validate(std::uint32_t channels) const {
  spec::check(grammar(), *this);
  const auto fail = [](const std::string& what) { spec::fail(grammar(), what); };
  for (const auto& [channel, rates] : channel_rates) {
    if (channel >= channels) fail("rate override on unknown channel");
    FaultPlan alone;
    alone.default_rates = rates;
    spec::check(grammar(), alone);
  }
  // Windows: on a channel of the topology, non-overlapping per channel.
  std::vector<LinkDownWindow> windows = down_windows;
  std::sort(windows.begin(), windows.end(), [](const auto& a, const auto& b) {
    return std::tie(a.channel, a.down_at) < std::tie(b.channel, b.down_at);
  });
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].channel >= channels)
      fail("down window on unknown channel " +
           std::to_string(windows[i].channel) + " (the topology has " +
           std::to_string(channels) + ")");
    if (i > 0 && windows[i - 1].channel == windows[i].channel &&
        windows[i - 1].up_at > windows[i].down_at)
      fail("down windows on one channel must not overlap");
  }
}

FaultPlan FaultPlan::random_windows(std::uint32_t channels, std::uint32_t count,
                                    Cycle horizon_begin, Cycle horizon_end,
                                    Cycle min_len, Cycle max_len, Rng& rng) {
  MMR_ASSERT(channels > 0);
  MMR_ASSERT(min_len >= 1 && min_len <= max_len);
  MMR_ASSERT(horizon_begin + max_len < horizon_end);
  FaultPlan plan;
  // Per-channel cursor keeps windows on one channel disjoint by placing them
  // in increasing time order.
  std::vector<Cycle> cursor(channels, horizon_begin);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto channel = static_cast<std::uint32_t>(rng.uniform(channels));
    const Cycle len = min_len + rng.uniform(max_len - min_len + 1);
    if (cursor[channel] + len >= horizon_end) continue;  // channel is full
    const Cycle slack = horizon_end - cursor[channel] - len;
    const Cycle start = cursor[channel] + rng.uniform(slack);
    plan.down_windows.push_back({channel, start, start + len});
    cursor[channel] = start + len;
  }
  return plan;
}

}  // namespace mmr

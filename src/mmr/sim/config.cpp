#include "mmr/sim/config.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "mmr/sim/assert.hpp"

namespace mmr {

const char* to_string(PriorityScheme s) {
  switch (s) {
    case PriorityScheme::kSiabp: return "siabp";
    case PriorityScheme::kIabp: return "iabp";
    case PriorityScheme::kFifoAge: return "fifo-age";
    case PriorityScheme::kStatic: return "static";
  }
  return "?";
}

PriorityScheme priority_scheme_from_string(const std::string& s) {
  if (s == "siabp") return PriorityScheme::kSiabp;
  if (s == "iabp") return PriorityScheme::kIabp;
  if (s == "fifo-age") return PriorityScheme::kFifoAge;
  if (s == "static") return PriorityScheme::kStatic;
  throw std::invalid_argument("unknown priority scheme: " + s +
                              " (expected siabp|iabp|fifo-age|static)");
}

void SimConfig::validate() const {
  MMR_ASSERT_MSG(ports >= 2 && ports <= kMaxPorts,
                 "ports out of range (2..kMaxPorts)");
  MMR_ASSERT_MSG(vcs_per_link >= 1, "need at least one VC per link");
  MMR_ASSERT_MSG(std::isfinite(link_bandwidth_bps) && link_bandwidth_bps > 0.0,
                 "link bandwidth must be finite and positive");
  MMR_ASSERT_MSG(flit_bits > 0 && phit_bits > 0, "flit/phit bits positive");
  MMR_ASSERT_MSG(flit_bits % phit_bits == 0,
                 "flit must be a whole number of phits");
  MMR_ASSERT_MSG(buffer_flits_per_vc >= 1, "VC buffer must hold >= 1 flit");
  MMR_ASSERT_MSG(candidate_levels >= 1, "need >= 1 candidate level");
  MMR_ASSERT_MSG(candidate_levels <= vcs_per_link,
                 "more candidate levels than VCs is meaningless");
  MMR_ASSERT_MSG(round_multiple >= 1, "round must cover every VC");
  MMR_ASSERT_MSG(std::isfinite(concurrency_factor) && concurrency_factor >= 1.0,
                 "concurrency factor must be finite and >= 1");
  MMR_ASSERT_MSG(measure_cycles > 0, "nothing to measure");
}

namespace {

/// Parses a double, rejecting nan/inf (strtod accepts both spellings) — a
/// config built from overrides must never carry a non-finite field into a
/// simulation, where it would silently poison every derived quantity.
double parse_double(std::string_view v, const std::string& key) {
  // std::from_chars(double) is not universally available; strtod suffices.
  const std::string tmp(v);
  char* end = nullptr;
  const double x = std::strtod(tmp.c_str(), &end);
  if (end == tmp.c_str() || *end != '\0')
    throw std::invalid_argument("bad numeric value for " + key + ": " + tmp);
  if (!std::isfinite(x))
    throw std::invalid_argument("value for " + key +
                                " must be finite, got: " + tmp);
  return x;
}

std::uint64_t parse_u64(std::string_view v, const std::string& key) {
  std::uint64_t x = 0;
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc{} || p != v.data() + v.size())
    throw std::invalid_argument("bad integer value for " + key + ": " +
                                std::string(v));
  return x;
}

constexpr const char* kValidKeys =
    "ports, vcs, link_bps, flit_bits, phit_bits, buffer_flits, levels, "
    "link_latency, credit_latency, round_multiple, concurrency_factor, "
    "priority, arbiter, seed, warmup, measure, fault, flow, audit, police, "
    "rogue, trace, snap, qd, net_threads";

/// Largest accepted net_threads: far above any real machine, small enough
/// to catch a mistyped value before it allocates per-shard state.
constexpr std::uint32_t kMaxNetThreads = 4096;

}  // namespace

std::vector<std::string> apply_overrides(
    SimConfig& config, const std::vector<std::string>& overrides) {
  std::vector<std::string> applied;
  for (const std::string& kv : overrides) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("override must be key=value: " + kv);
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    if (key == "ports") {
      const std::uint64_t ports = parse_u64(value, key);
      // Reject unrepresentable port counts here, at parse time, with the
      // limit in the message — not deep inside arbiter construction.
      if (ports < 1 || ports > kMaxPorts)
        throw std::invalid_argument(
            "ports=" + value + " out of range: arbiters represent 1.." +
            std::to_string(kMaxPorts) +
            " ports (kMaxPorts, mmr/sim/config.hpp)");
      config.ports = static_cast<std::uint32_t>(ports);
    } else if (key == "vcs") {
      config.vcs_per_link = static_cast<std::uint32_t>(parse_u64(value, key));
    } else if (key == "link_bps") {
      const double bps = parse_double(value, key);
      if (bps <= 0.0)
        throw std::invalid_argument("link_bps must be positive, got: " + value);
      config.link_bandwidth_bps = bps;
    } else if (key == "flit_bits") {
      config.flit_bits = static_cast<std::uint32_t>(parse_u64(value, key));
    } else if (key == "phit_bits") {
      config.phit_bits = static_cast<std::uint32_t>(parse_u64(value, key));
    } else if (key == "buffer_flits") {
      config.buffer_flits_per_vc =
          static_cast<std::uint32_t>(parse_u64(value, key));
    } else if (key == "levels") {
      config.candidate_levels =
          static_cast<std::uint32_t>(parse_u64(value, key));
    } else if (key == "link_latency") {
      config.link_latency = parse_u64(value, key);
    } else if (key == "credit_latency") {
      config.credit_latency = parse_u64(value, key);
    } else if (key == "round_multiple") {
      config.round_multiple = static_cast<std::uint32_t>(parse_u64(value, key));
    } else if (key == "concurrency_factor") {
      const double factor = parse_double(value, key);
      if (factor < 1.0)
        throw std::invalid_argument("concurrency_factor must be >= 1, got: " +
                                    value);
      config.concurrency_factor = factor;
    } else if (key == "priority") {
      config.priority_scheme = priority_scheme_from_string(value);
    } else if (key == "arbiter") {
      config.arbiter = value;
    } else if (key == "seed") {
      config.seed = parse_u64(value, key);
    } else if (key == "warmup") {
      config.warmup_cycles = parse_u64(value, key);
    } else if (key == "measure") {
      config.measure_cycles = parse_u64(value, key);
    } else if (key == "fault") {
      config.fault_spec = value;
    } else if (key == "flow") {
      config.flow_spec = value;
    } else if (key == "police") {
      config.police_spec = value;
    } else if (key == "rogue") {
      config.rogue_spec = value;
    } else if (key == "trace") {
      config.trace_spec = value;
    } else if (key == "snap") {
      config.snap_spec = value;
    } else if (key == "qd") {
      config.qd_spec = value;
    } else if (key == "net_threads") {
      if (value == "hw") {
        config.net_threads = std::max(1u, std::thread::hardware_concurrency());
      } else {
        const std::uint64_t threads = parse_u64(value, key);
        if (threads > kMaxNetThreads)
          throw std::invalid_argument(
              "net_threads=" + value + " out of range: expected 0.." +
              std::to_string(kMaxNetThreads) + " or 'hw'");
        config.net_threads = static_cast<std::uint32_t>(threads);
      }
    } else if (key == "audit") {
      config.audit_every = static_cast<std::uint32_t>(parse_u64(value, key));
    } else {
      throw std::invalid_argument("unknown config key '" + key +
                                  "'; valid keys: " + kValidKeys);
    }
    applied.push_back(key);
  }
  return applied;
}

}  // namespace mmr

#include "mmr/snapshot/spec.hpp"

#include <type_traits>

#include "mmr/sim/config.hpp"

namespace mmr::snapshot {

const spec::Grammar& SnapSpec::grammar() {
  using spec::bind;
  using S = SnapSpec;
  static const spec::Grammar grammar{"snap", ':', {
      bind<&S::every>({.name = "every"}),
      bind<&S::hash_every>({.name = "hash_every"}),
      bind<&S::prefix>({.name = "prefix"}),
      bind<&S::hash_out>({.name = "hash_out"}),
      bind<&S::resume>({.name = "resume"}),
      bind<&S::on_crash>({.name = "crash"})}};
  return grammar;
}

void SnapSpec::validate() const {
  spec::check(grammar(), *this);
  if (prefix.empty()) spec::fail(grammar(), "snap prefix must not be empty");
  if (!hash_out.empty() && hash_every == 0)
    spec::fail(grammar(), "hash_out needs hash_every > 0");
}

namespace {

void fold_bytes(std::uint64_t& hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x00000100000001b3ull;
  }
}

template <typename T>
void fold(std::uint64_t& hash, T scalar) {
  static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                "fold structs field-by-field");
  fold_bytes(hash, &scalar, sizeof(scalar));
}

void fold_str(std::uint64_t& hash, const std::string& text) {
  fold(hash, static_cast<std::uint64_t>(text.size()));
  fold_bytes(hash, text.data(), text.size());
}

}  // namespace

std::uint64_t config_digest(const SimConfig& config) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  fold(hash, config.ports);
  fold(hash, config.vcs_per_link);
  fold(hash, config.link_bandwidth_bps);
  fold(hash, config.flit_bits);
  fold(hash, config.phit_bits);
  fold(hash, config.buffer_flits_per_vc);
  fold(hash, config.candidate_levels);
  fold(hash, config.link_latency);
  fold(hash, config.credit_latency);
  fold(hash, config.round_multiple);
  fold(hash, config.concurrency_factor);
  fold(hash, config.priority_scheme);
  fold_str(hash, config.arbiter);
  fold(hash, config.seed);
  fold(hash, config.warmup_cycles);
  fold(hash, config.measure_cycles);
  fold_str(hash, config.fault_spec);
  fold_str(hash, config.police_spec);
  fold_str(hash, config.rogue_spec);
  fold_str(hash, config.flow_spec);
  fold_str(hash, config.trace_spec);
  fold_str(hash, config.qd_spec);
  fold(hash, config.audit_every);
  return hash;
}

}  // namespace mmr::snapshot

#include "mmr/router/crossbar.hpp"

#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

Crossbar::Crossbar(std::uint32_t ports) : input_of_output_(ports, -1) {
  MMR_ASSERT(ports > 0);
}

void Crossbar::apply(const Matching& matching, bool measure) {
  MMR_ASSERT(matching.ports() == ports());
  std::uint32_t changed = 0;
  for (std::uint32_t out = 0; out < ports(); ++out) {
    const std::int32_t in = matching.input_of(out);
    if (in != input_of_output_[out]) {
      ++changed;
      input_of_output_[out] = in;
    }
  }
  if (measure) {
    ++cycles_;
    switched_ += matching.size();
    reconfigurations_ += changed;
  }
}

void Crossbar::apply_outputs(const std::vector<std::int32_t>& input_of_output,
                             bool measure) {
  MMR_ASSERT(input_of_output.size() == input_of_output_.size());
  std::uint32_t changed = 0;
  std::uint32_t served = 0;
  for (std::uint32_t out = 0; out < ports(); ++out) {
    const std::int32_t in = input_of_output[out];
    if (in != -1) ++served;
    if (in != input_of_output_[out]) {
      ++changed;
      input_of_output_[out] = in;
    }
  }
  if (measure) {
    ++cycles_;
    switched_ += served;
    reconfigurations_ += changed;
  }
}

std::int32_t Crossbar::input_of(std::uint32_t output) const {
  MMR_ASSERT(output < ports());
  return input_of_output_[output];
}

void Crossbar::snap(snapshot::Walker& w) {
  snapshot::walk_vector_pod(w, input_of_output_);
  snapshot::value(w, cycles_);
  snapshot::value(w, switched_);
  snapshot::value(w, reconfigurations_);
}

}  // namespace mmr

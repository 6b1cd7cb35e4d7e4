// Multiplexed crossbar: as many ports as physical channels (the VCs are
// multiplexed onto them), reconfigured every scheduling cycle from the
// arbiter's matching.  Tracks the utilization and reconfiguration counts the
// evaluation reports (Figure 8).
#pragma once

#include <vector>

#include "mmr/arbiter/matching.hpp"
#include "mmr/sim/time.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

class Crossbar {
 public:
  explicit Crossbar(std::uint32_t ports);

  [[nodiscard]] std::uint32_t ports() const {
    return static_cast<std::uint32_t>(input_of_output_.size());
  }

  /// Applies one cycle's matching; counts utilization over the measurement
  /// window only when `measure` is set (warmup exclusion).
  void apply(const Matching& matching, bool measure);

  /// CICQ variant: the output stage picks an input per output independently
  /// (crosspoint buffers decouple the stages), so the configuration is not
  /// a one-to-one matching — the same input may feed several outputs in a
  /// cycle.  `input_of_output[out]` is the serving input or -1 for idle.
  void apply_outputs(const std::vector<std::int32_t>& input_of_output,
                     bool measure);

  /// Input currently connected to `output`, or -1.
  [[nodiscard]] std::int32_t input_of(std::uint32_t output) const;

  /// Fraction of output-port cycles that carried a flit (measured window).
  [[nodiscard]] double utilization() const {
    return ratio(switched_, cycles_ * ports());
  }
  [[nodiscard]] std::uint64_t flits_switched() const { return switched_; }
  /// Crosspoint configuration changes per cycle, averaged (measured window).
  [[nodiscard]] double mean_reconfigurations() const {
    return ratio(reconfigurations_, cycles_);
  }
  /// Matching size per cycle, averaged (measured window).
  [[nodiscard]] double mean_matching_size() const {
    return ratio(switched_, cycles_);
  }

  /// Checkpoint walk.  The crosspoint configuration persists across cycles
  /// (reconfiguration counting diffs against it), so it is state, not
  /// scratch.
  void snap(snapshot::Walker& w);

 private:
  /// 0 before the first measured cycle.
  [[nodiscard]] static double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  }

  std::vector<std::int32_t> input_of_output_;
  // Totals over the measured cycles.
  std::uint64_t cycles_ = 0;
  std::uint64_t switched_ = 0;          ///< outputs that carried a flit
  std::uint64_t reconfigurations_ = 0;  ///< outputs reconfigured
};

}  // namespace mmr

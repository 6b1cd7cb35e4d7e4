// VBR source: plays an MPEG-2 trace through one of the paper's two
// injection models (Figure 7).
//
//  * Back-to-Back (BB): every frame's flits enter at a common peak rate
//    (chosen so the largest frame of the whole workload fits in one frame
//    period), starting at the frame boundary; the source then idles until
//    the next boundary.
//  * Smooth-Rate (SR): each frame's flits are spread evenly across the frame
//    period (per-frame IAT = period / flits_in_frame).
//
// Traces repeat cyclically; connections sharing a link are randomly aligned
// within a GOP time by the workload builder (phase offset).
#pragma once

#include "mmr/sim/time.hpp"
#include "mmr/traffic/flit.hpp"
#include "mmr/traffic/mpeg.hpp"

namespace mmr {

enum class InjectionModel : std::uint8_t { kBackToBack, kSmoothRate };
/// The models' words in enum order: to_string() and the `model=` key.
inline constexpr const char* kInjectionModelWords[] = {"BB", "SR"};

[[nodiscard]] const char* to_string(InjectionModel m);

class VbrSource final : public TrafficSource {
 public:
  /// `peak_bps` is only used by the BB model (the workload-wide peak rate);
  /// pass the trace's own peak when running a source stand-alone.
  /// Random GOP alignment = `start_frame` (the trace position the source
  /// begins at, wrapping) plus `phase_cycles` (sub-period boundary shift,
  /// < one frame period so every source is active from the start).
  VbrSource(ConnectionId connection, MpegTrace trace, InjectionModel model,
            TimeBase time_base, double peak_bps, double phase_cycles = 0.0,
            std::uint32_t start_frame = 0);

  [[nodiscard]] ConnectionId connection() const override { return connection_; }
  [[nodiscard]] Cycle next_emission() const override;
  void generate(Cycle now, std::vector<Flit>& out) override;
  [[nodiscard]] double mean_bps() const override { return mean_bps_; }
  void throttle(double factor) override;
  void snap(snapshot::Walker& w) override;

  [[nodiscard]] const MpegTrace& trace() const { return trace_; }
  [[nodiscard]] InjectionModel model() const { return model_; }
  [[nodiscard]] double phase_cycles() const { return phase_cycles_; }
  [[nodiscard]] std::uint32_t start_frame() const { return start_frame_; }
  /// BB inter-arrival time, link bandwidth / the workload-wide peak.
  [[nodiscard]] double peak_iat_cycles() const { return peak_iat_cycles_; }
  /// Flits of absolute frame `index` (trace position (start_frame + index)
  /// mod frames()).
  [[nodiscard]] std::uint32_t frame_flits(std::uint32_t index) const;
  /// Frame boundary (cycle, fractional) of absolute frame `index`.
  [[nodiscard]] double frame_boundary(std::uint32_t index) const;

 private:
  void advance_frame();

  ConnectionId connection_;
  MpegTrace trace_;
  InjectionModel model_;
  std::uint32_t flit_bits_;
  double period_cycles_;    ///< frame period in flit cycles
  double peak_iat_cycles_;  ///< BB inter-arrival time
  double phase_cycles_;
  std::uint32_t start_frame_;
  double mean_bps_;

  std::uint32_t frame_index_ = 0;  ///< absolute frame counter
  std::uint32_t flit_in_frame_ = 0;
  std::uint32_t flits_this_frame_ = 0;
  double iat_this_frame_ = 0.0;
  double next_time_ = 0.0;
  double throttle_ = 1.0;  ///< ECN rate factor; 1.0 = nominal rate
  std::uint64_t seq_ = 0;
};

}  // namespace mmr

#include "mmr/traffic/vbr.hpp"

#include <cmath>

#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

const char* to_string(InjectionModel m) {
  return kInjectionModelWords[static_cast<std::size_t>(m)];
}

VbrSource::VbrSource(ConnectionId connection, MpegTrace trace,
                     InjectionModel model, TimeBase time_base, double peak_bps,
                     double phase_cycles, std::uint32_t start_frame)
    : connection_(connection),
      trace_(std::move(trace)),
      model_(model),
      flit_bits_(time_base.flit_bits()),
      period_cycles_(time_base.seconds_to_cycles(kFramePeriodSeconds)),
      peak_iat_cycles_(time_base.link_bandwidth_bps() / peak_bps),
      phase_cycles_(phase_cycles),
      start_frame_(start_frame),
      mean_bps_(trace_.mean_bps()) {
  MMR_ASSERT(!trace_.frame_bits.empty());
  MMR_ASSERT(peak_bps > 0.0);
  MMR_ASSERT_MSG(peak_bps <= time_base.link_bandwidth_bps(),
                 "peak injection rate cannot exceed the link bandwidth");
  MMR_ASSERT_MSG(peak_bps + 1e-9 >= trace_.peak_bps(),
                 "BB peak must fit the largest frame in one frame period");
  MMR_ASSERT(phase_cycles >= 0.0);
  MMR_ASSERT_MSG(phase_cycles < period_cycles_,
                 "boundary phase must stay below one frame period; use "
                 "start_frame for whole-frame alignment");
  advance_frame();  // prime the first frame's cursor
}

std::uint32_t VbrSource::frame_flits(std::uint32_t index) const {
  const std::uint64_t bits =
      trace_.frame_bits[(start_frame_ + index) % trace_.frames()];
  const auto flits = static_cast<std::uint32_t>(
      (bits + flit_bits_ - 1) / flit_bits_);
  return flits == 0 ? 1u : flits;
}

double VbrSource::frame_boundary(std::uint32_t index) const {
  return phase_cycles_ + static_cast<double>(index) * period_cycles_;
}

void VbrSource::advance_frame() {
  flits_this_frame_ = frame_flits(frame_index_);
  flit_in_frame_ = 0;
  switch (model_) {
    case InjectionModel::kBackToBack:
      iat_this_frame_ = peak_iat_cycles_;
      break;
    case InjectionModel::kSmoothRate:
      iat_this_frame_ = period_cycles_ / flits_this_frame_;
      break;
  }
  const double boundary = frame_boundary(frame_index_);
  // A throttled frame may overrun its period; the next frame then starts
  // where the stretched one ended rather than bursting to catch up.  The
  // unthrottled path always takes the boundary, bit-identical to before.
  next_time_ = (throttle_ != 1.0 && next_time_ > boundary) ? next_time_
                                                           : boundary;
}

Cycle VbrSource::next_emission() const {
  return static_cast<Cycle>(std::ceil(next_time_));
}

void VbrSource::generate(Cycle now, std::vector<Flit>& out) {
  while (next_emission() <= now) {
    Flit flit;
    flit.connection = connection_;
    flit.seq = seq_++;
    flit.frame = frame_index_;
    flit.last_of_frame = (flit_in_frame_ + 1 == flits_this_frame_);
    flit.generated_at = next_emission();
    flit.frame_origin =
        static_cast<Cycle>(std::ceil(frame_boundary(frame_index_)));
    out.push_back(flit);

    ++flit_in_frame_;
    if (flit_in_frame_ == flits_this_frame_) {
      ++frame_index_;
      advance_frame();
    } else {
      // x / 1.0 is IEEE-exact: unthrottled sources stay bit-identical.
      next_time_ += iat_this_frame_ / throttle_;
    }
  }
}

void VbrSource::throttle(double factor) {
  MMR_ASSERT(factor > 0.0 && factor <= 1.0);
  throttle_ = factor;
}

void VbrSource::snap(snapshot::Walker& w) {
  snapshot::value(w, frame_index_);
  snapshot::value(w, flit_in_frame_);
  snapshot::value(w, flits_this_frame_);
  snapshot::value(w, iat_this_frame_);
  snapshot::value(w, next_time_);
  snapshot::value(w, throttle_);
  snapshot::value(w, seq_);
}

}  // namespace mmr

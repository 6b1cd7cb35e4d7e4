// Figure 7: the two VBR injection models, Back-to-Back (BB) and Smooth-Rate
// (SR).  Renders the emission pattern of one connection's first frames —
// flits at the common peak rate then idle (BB) vs evenly spread (SR) — and
// verifies both inject the same flits per frame.

#include <cstdio>
#include <iostream>

#include "mmr/sim/config.hpp"
#include "mmr/sim/rng.hpp"
#include "mmr/sim/spec_parser.hpp"
#include "mmr/traffic/vbr.hpp"

namespace {

void render_model(const mmr::MpegTrace& trace, mmr::InjectionModel model,
                  const mmr::TimeBase& time_base) {
  using namespace mmr;
  VbrSource source(0, trace, model, time_base, trace.peak_bps());

  const double period = time_base.seconds_to_cycles(kFramePeriodSeconds);
  const std::uint32_t frames_shown = 3;
  std::vector<Flit> flits;
  source.generate(static_cast<Cycle>(period * frames_shown), flits);

  std::printf("%s model: '%s', first %u frames (frame period %.0f cycles)\n",
              to_string(model), trace.sequence.c_str(), frames_shown, period);
  // One text row per frame; 100 columns span the frame period.
  constexpr int kColumns = 100;
  for (std::uint32_t frame = 0; frame < frames_shown; ++frame) {
    std::string row(kColumns, '.');
    std::uint32_t count = 0;
    for (const Flit& flit : flits) {
      if (flit.frame != frame) continue;
      ++count;
      const double offset =
          static_cast<double>(flit.generated_at) - frame * period;
      const int column = static_cast<int>(offset / period * kColumns);
      if (column >= 0 && column < kColumns)
        row[static_cast<std::size_t>(column)] = '|';
    }
    std::printf("  frame %u (%4u flits): %s\n", frame, count, row.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmr;
  spec::parse_command_line({"fig7_injection_models", '=', {}}, nullptr, argc,
                           argv);
  const SimConfig config;
  const TimeBase time_base = config.time_base();

  std::cout << "==== Figure 7: VBR injection models ====\n";
  std::cout << "'|' marks flit emissions within the 33 ms frame time; BB "
               "bursts at the\npeak rate then idles, SR spreads each frame "
               "evenly.\n\n";

  Rng rng(0x5EED, 0xF17);
  const MpegTrace trace =
      generate_mpeg_trace(mpeg_sequence("Flower Garden"), 1, rng);
  render_model(trace, InjectionModel::kBackToBack, time_base);
  render_model(trace, InjectionModel::kSmoothRate, time_base);

  std::printf("IATp (peak inter-arrival) = %.1f cycles; SR IAT varies per "
              "frame with its size.\n",
              time_base.link_bandwidth_bps() / trace.peak_bps());
  return 0;
}

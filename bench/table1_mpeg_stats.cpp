// Table 1: MPEG-2 video sequence statistics — max / min / average image
// size (bits) per sequence.  The original trace files are unavailable, so
// this prints the statistics of our synthetic trace generator (see
// DESIGN.md), realised with the default seed, plus the derived rates the
// experiments depend on.

#include <iostream>

#include "mmr/sim/rng.hpp"
#include "mmr/sim/spec_parser.hpp"
#include "mmr/sim/table.hpp"
#include "mmr/traffic/mpeg.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  struct Options {
    std::uint32_t gops = 40;  // long enough for stable extremes
    std::uint64_t seed = 0x5EED;
  } options;
  const spec::Grammar grammar{
      "table1_mpeg_stats", '=',
      {spec::bind<&Options::gops>({.name = "gops", .lo = 1}),
       spec::bind<&Options::seed>({.name = "seed"})}};
  spec::parse_command_line(grammar, &options, argc, argv);
  const auto [gops, seed] = options;

  std::cout << "==== Table 1: MPEG-2 video sequence statistics ====\n";
  std::cout << "synthetic traces, " << gops << " GOPs ("
            << gops * kGopFrames << " frames) each, GOP = IBBPBBPBBPBBPBB, "
            << "frame period = 33 ms\n\n";

  AsciiTable table({"Video Sequence", "Max (bits)", "Min (bits)",
                    "Average (bits)", "Mean rate (Mbps)", "Peak rate (Mbps)",
                    "Peak/Mean"});
  Rng rng(seed, 0x7AB1E);
  for (const MpegSequenceParams& params : mpeg_sequence_library()) {
    const MpegTrace trace = generate_mpeg_trace(params, gops, rng);
    table.add_row({params.name, std::to_string(trace.max_frame_bits()),
                   std::to_string(trace.min_frame_bits()),
                   AsciiTable::num(trace.mean_frame_bits(), 0),
                   AsciiTable::num(trace.mean_bps() / 1e6, 2),
                   AsciiTable::num(trace.peak_bps() / 1e6, 2),
                   AsciiTable::num(trace.peak_bps() / trace.mean_bps(), 2)});
  }
  std::cout << table.render();

  std::cout << "\nPer-frame-type configuration (model parameters):\n";
  AsciiTable config({"Video Sequence", "I mean (kbit)", "P mean (kbit)",
                     "B mean (kbit)", "cv I", "cv P", "cv B"});
  for (const MpegSequenceParams& params : mpeg_sequence_library()) {
    config.add_row({params.name, AsciiTable::num(params.mean_bits_i / 1e3, 0),
                    AsciiTable::num(params.mean_bits_p / 1e3, 0),
                    AsciiTable::num(params.mean_bits_b / 1e3, 0),
                    AsciiTable::num(params.cv_i, 2),
                    AsciiTable::num(params.cv_p, 2),
                    AsciiTable::num(params.cv_b, 2)});
  }
  std::cout << config.render();
  return 0;
}

// Figure 6: the bit-rate profile of a typical MPEG-2 sequence over time
// (the paper shows Flower Garden).  Prints per-frame instantaneous rate
// (Mbit/s) for a few GOPs plus an ASCII sparkline of the I/P/B structure.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "mmr/sim/csv.hpp"
#include "mmr/sim/rng.hpp"
#include "mmr/sim/spec_parser.hpp"
#include "mmr/traffic/mpeg.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  struct Options {
    std::string sequence = "Flower Garden";
    std::uint32_t gops = 4;
  } options;
  static const std::vector<const char*> sequences = [] {
    std::vector<const char*> names;
    for (const MpegSequenceParams& seq : mpeg_sequence_library())
      names.push_back(seq.name.c_str());
    return names;
  }();
  const spec::Grammar grammar{
      "fig6_trace_profile", '=',
      {spec::bind<&Options::sequence>({.name = "sequence", .words = sequences}),
       spec::bind<&Options::gops>({.name = "gops", .lo = 1})}};
  spec::parse_command_line(grammar, &options, argc, argv);
  const auto& [sequence, gops] = options;

  Rng rng(0x5EED, 0xF16);
  const MpegTrace trace =
      generate_mpeg_trace(mpeg_sequence(sequence), gops, rng);

  std::cout << "==== Figure 6: " << sequence
            << " sequence — instantaneous rate per frame ====\n";
  std::cout << "mean " << trace.mean_bps() / 1e6 << " Mbps, peak "
            << trace.peak_bps() / 1e6 << " Mbps\n\n";

  // Sparkline: one column per frame, height proportional to rate.
  const double peak = trace.peak_bps();
  constexpr int kRows = 12;
  for (int row = kRows; row >= 1; --row) {
    std::printf("%6.1f | ",
                peak / 1e6 * static_cast<double>(row) / kRows);
    for (std::uint32_t f = 0; f < trace.frames(); ++f) {
      const double rate = static_cast<double>(trace.frame_bits[f]) /
                          kFramePeriodSeconds;
      std::putchar(rate >= peak * (row - 0.5) / kRows ? '#' : ' ');
    }
    std::putchar('\n');
  }
  std::printf("Mbps   +");
  for (std::uint32_t f = 0; f < trace.frames(); ++f) std::putchar('-');
  std::printf("\n        ");
  for (std::uint32_t f = 0; f < trace.frames(); ++f)
    std::putchar(to_string(trace.frame_type(f))[0]);
  std::printf("   (frame types; %u ms per frame)\n\n",
              static_cast<unsigned>(kFramePeriodSeconds * 1e3));

  std::cout << "--- CSV ---\n";
  CsvWriter csv(std::cout, {"frame", "time_ms", "type", "bits", "mbps"});
  for (std::uint32_t f = 0; f < trace.frames(); ++f) {
    csv.row({std::to_string(f),
             std::to_string(f * kFramePeriodSeconds * 1e3),
             to_string(trace.frame_type(f)),
             std::to_string(trace.frame_bits[f]),
             std::to_string(static_cast<double>(trace.frame_bits[f]) /
                            kFramePeriodSeconds / 1e6)});
  }
  std::cout << "--- end CSV ---\n";
  return 0;
}

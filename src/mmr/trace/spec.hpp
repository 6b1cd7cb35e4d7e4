// Textual trace configuration (`trace=`, DESIGN.md §11), e.g.
// `trace=stream,out:run.jsonl` (buffer every event, write at run end) or
// `trace=flight,ring:4096,dump:flight` (keep the last `ring` events per
// router; dump on an invariant death, watchdog alarm or fault activation).
#pragma once

#include <cstdint>
#include <string>

#include "mmr/sim/spec_parser.hpp"

namespace mmr::trace {

struct TraceSpec : spec::Parsed<TraceSpec> {
  enum class Mode : std::uint8_t { kStream, kFlight };

  Mode mode = Mode::kStream;
  std::string out;      ///< run-end mmr-trace-v1 JSONL path ("" = none)
  std::string chrome;   ///< run-end Chrome trace-event JSON path ("" = none)
  std::string summary;  ///< run-end per-connection summary table ("" = none)
  std::string dump_prefix = "mmr-flight";  ///< flight dump file prefix
  std::uint64_t limit = 1u << 20;          ///< stream: max buffered events
  std::uint32_t ring = 4096;               ///< flight: events kept per router
  std::uint32_t max_dumps = 8;             ///< flight: automatic dump cap

  static const spec::Grammar& grammar();
  bool operator==(const TraceSpec&) const = default;

  /// Throws std::invalid_argument when a field combination is nonsense.
  void validate() const;
};

[[nodiscard]] const char* to_string(TraceSpec::Mode mode);

}  // namespace mmr::trace

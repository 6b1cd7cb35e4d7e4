#include "mmr/trace/spec.hpp"

namespace mmr::trace {

constexpr const char* kModeWords[] = {"stream", "flight"};

const char* to_string(TraceSpec::Mode mode) {
  return kModeWords[static_cast<std::size_t>(mode)];
}

const spec::Grammar& TraceSpec::grammar() {
  using spec::bind;
  using T = TraceSpec;
  static const spec::Grammar grammar{"trace", ':', {
      bind<&T::mode>({.words = kModeWords}),
      bind<&T::out>({.name = "out"}),
      bind<&T::chrome>({.name = "chrome"}),
      bind<&T::summary>({.name = "summary"}),
      bind<&T::dump_prefix>({.name = "dump"}),
      bind<&T::ring>({.name = "ring", .lo = 16, .hi = 1u << 24}),
      bind<&T::limit>({.name = "limit", .lo = 1}),
      bind<&T::max_dumps>({.name = "dumps"})},
      /*mode_required=*/true};
  return grammar;
}

void TraceSpec::validate() const {
  spec::check(grammar(), *this);
  if (mode == Mode::kFlight && dump_prefix.empty())
    spec::fail(grammar(), "flight mode needs a dump file prefix");
}

}  // namespace mmr::trace

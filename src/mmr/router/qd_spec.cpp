#include "mmr/router/qd_spec.hpp"

namespace mmr {

constexpr const char* kDisciplineWords[] = {"vc", "voq", "cicq"};

const char* to_string(QueueDiscipline d) {
  return kDisciplineWords[static_cast<std::size_t>(d)];
}

const spec::Grammar& QdSpec::grammar() {
  using spec::bind;
  static const spec::Grammar grammar{"qd", ':', {
      bind<&QdSpec::discipline>({.words = kDisciplineWords}),
      bind<&QdSpec::stabilize>({.name = "stab"}),
      bind<&QdSpec::crosspoint_flits>({.name = "xp", .lo = 1}),
      bind<&QdSpec::burst_threshold>({.name = "thresh", .lo = 1})},
      /*mode_required=*/false, /*keyed_mode=*/int(QueueDiscipline::kCicq)};
  return grammar;
}

void QdSpec::validate() const { spec::check(grammar(), *this); }

}  // namespace mmr

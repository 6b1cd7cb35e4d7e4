#include "mmr/arbiter/factory.hpp"

#include <bit>
#include <stdexcept>

#include "mmr/arbiter/candidate_order.hpp"
#include "mmr/arbiter/greedy_priority.hpp"
#include "mmr/arbiter/islip.hpp"
#include "mmr/arbiter/maxmatch.hpp"
#include "mmr/arbiter/pim.hpp"
#include "mmr/arbiter/rr.hpp"
#include "mmr/arbiter/wavefront.hpp"

namespace mmr {

namespace {

using Arbiter = std::unique_ptr<SwitchArbiter>;

/// Iteration budget standing for bit_width(P) + 1 rounds, which is
/// floor(log2 P) + 2: one more than the log2(P) + 1 usually quoted for
/// iSLIP, and kept so because every recorded result ran with it.
constexpr std::uint32_t kPortBits = ~std::uint32_t{0};

/// One registered arbiter: everything the factory knows about a name.  The
/// builder receives the row's resolved budget, so the iteration count an
/// arbiter runs and the one the audit assumes cannot disagree.
struct Row {
  const char* name;
  Arbiter (*build)(std::uint32_t ports, Rng rng, std::uint32_t iterations);
  ArbiterTraits traits;
  std::uint32_t budget = 0;  ///< iterations, or kPortBits; 0: not iterative
};

template <class A>
Arbiter unseeded(std::uint32_t ports, Rng, std::uint32_t) {
  return std::make_unique<A>(ports);
}
template <class A>
Arbiter seeded(std::uint32_t ports, Rng rng, std::uint32_t) {
  return std::make_unique<A>(ports, rng);
}
template <class A>
Arbiter iterative(std::uint32_t ports, Rng, std::uint32_t iterations) {
  return std::make_unique<A>(ports, iterations);
}
template <class A>
Arbiter seeded_iterative(std::uint32_t ports, Rng rng,
                         std::uint32_t iterations) {
  return std::make_unique<A>(ports, rng, iterations);
}

// Traits.  COA loops until every remaining request is blocked and greedy
// scans all candidates, so both are maximal; both grant within an output
// strictly by priority.  The wavefront sweeps visit every crosspoint while
// row/column freedom only decreases, so they are maximal too.  iSLIP/PIM
// terminate either converged (maximal) or after their iteration budget,
// gaining at least one match per iteration.  Rotation fairness: iSLIP's
// grant/accept-pointer desynchronisation, WWFA's rotating diagonal, and
// WFA's rotating corner row (under a full request matrix the corner row
// walks every input, so the diagonal matchings cover each pair once per P
// cycles).  "wfa-fixed" holds the corner at row 0 and is intentionally
// corner-biased — that starvation is the bug the rotation fixes, and the
// corner bias the paper measures.  "rr" runs a single grant/accept round
// whose pointers advance unconditionally: not maximal, and deliberately not
// rotation-fair (the synchronized-pointer pathology qd=cicq studies).
constexpr ArbiterTraits kMaximal{.maximal = true};
constexpr ArbiterTraits kPriority{.maximal = true, .priority_ordered = true};
constexpr ArbiterTraits kRotating{.maximal = true, .rotation_fair = true};
constexpr ArbiterTraits kBounded{.iteration_bounded = true};
constexpr ArbiterTraits kBoundedRotating{.iteration_bounded = true,
                                         .rotation_fair = true};

const std::vector<Row>& rows() {
  static const std::vector<Row> table = {
      {"coa", seeded<CandidateOrderArbiter>, kPriority},
      {"coa-np",
       [](std::uint32_t p, Rng rng, std::uint32_t) -> Arbiter {
         return std::make_unique<CandidateOrderArbiter>(
             p, rng, /*use_priority=*/false);
       },
       kMaximal},
      {"wfa", unseeded<WaveFrontArbiter>, kRotating},
      {"wfa-fixed",
       [](std::uint32_t p, Rng, std::uint32_t) -> Arbiter {
         return std::make_unique<WaveFrontArbiter>(p, /*rotate=*/false);
       },
       kMaximal},
      {"wwfa", unseeded<WrappedWaveFrontArbiter>, kRotating},
      {"islip", iterative<IslipArbiter>, kBoundedRotating, kPortBits},
      {"islip1", iterative<IslipArbiter>, kBounded, 1},
      {"pim", seeded_iterative<PimArbiter>, kBounded, kPortBits},
      {"pim1", seeded_iterative<PimArbiter>, kBounded, 1},
      {"greedy", seeded<GreedyPriorityArbiter>, kPriority},
      {"maxmatch", unseeded<MaxMatchArbiter>,
       {.maximal = true, .exact_maximum = true}},
      {"rr", unseeded<RoundRobinArbiter>, kBounded, 1},
  };
  return table;
}

std::uint32_t iterations(const Row& r, std::uint32_t ports) {
  return r.budget == kPortBits ? std::bit_width(ports) + 1u : r.budget;
}

/// The row named `name`; throws std::invalid_argument listing the valid
/// names otherwise.
const Row& row(const std::string& name) {
  for (const Row& r : rows())
    if (name == r.name) return r;
  std::string valid;
  for (const std::string& n : arbiter_names()) {
    if (!valid.empty()) valid += ", ";
    valid += n;
  }
  throw std::invalid_argument("unknown arbiter '" + name +
                              "'; valid arbiters: " + valid);
}

}  // namespace

std::unique_ptr<SwitchArbiter> make_arbiter(const std::string& name,
                                            std::uint32_t ports, Rng rng) {
  const Row& r = row(name);
  return r.build(ports, rng, iterations(r, ports));
}

const std::vector<std::string>& arbiter_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> all;
    for (const Row& r : rows()) all.emplace_back(r.name);
    return all;
  }();
  return names;
}

const ArbiterTraits& arbiter_traits(const std::string& name) {
  return row(name).traits;
}

std::uint32_t arbiter_iterations(const std::string& name,
                                 std::uint32_t ports) {
  return iterations(row(name), ports);
}

}  // namespace mmr

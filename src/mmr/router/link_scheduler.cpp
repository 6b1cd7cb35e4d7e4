#include "mmr/router/link_scheduler.hpp"

#include <algorithm>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/config.hpp"
#include "mmr/snapshot/walker.hpp"
#include "mmr/trace/event.hpp"
#include "mmr/trace/tracer.hpp"

namespace mmr {

namespace {

/// Top-L selection by (priority desc, older-first, vc asc): a small sorted
/// insertion buffer beats sorting every head for L << VCs.  No two heads
/// share a VC, so the order is total and the walk order cannot matter.
class TopL {
 public:
  struct Entry {
    Priority priority;
    Cycle arrived;
    std::uint32_t vc;
    std::uint32_t output;
  };

  explicit TopL(std::uint32_t levels) : levels_(levels) {
    MMR_ASSERT_MSG(levels_ <= kMaxCandidateLevels,
                   "candidate levels beyond selection buffer");
  }

  void offer(const Entry& entry) {
    if (filled_ == levels_ && !better(entry, best_[filled_ - 1])) return;
    std::uint32_t pos = std::min(filled_, levels_ - 1);
    if (filled_ < levels_) ++filled_;
    while (pos > 0 && better(entry, best_[pos - 1])) {
      best_[pos] = best_[pos - 1];
      --pos;
    }
    best_[pos] = entry;
  }

  /// Appends the selection to `out`, level 0 first.
  void emit(std::uint32_t input, Cycle now, CandidateSet& out) const {
    for (std::uint32_t level = 0; level < filled_; ++level) {
      Candidate candidate;
      candidate.input = static_cast<std::uint16_t>(input);
      candidate.output = static_cast<std::uint16_t>(best_[level].output);
      candidate.level = static_cast<std::uint8_t>(level);
      candidate.vc = best_[level].vc;
      candidate.priority = best_[level].priority;
      out.add(candidate);
      MMR_TRACE_EVENT(trace::candidate_event(now, candidate.input,
                                             candidate.output, candidate.vc,
                                             candidate.level,
                                             candidate.priority));
    }
  }

 private:
  /// Priority descending, then arrival ascending, as one 128-bit compare;
  /// the VC decides only between heads that arrived in the same cycle.
  static bool better(const Entry& a, const Entry& b) {
    __extension__ using uint128 = unsigned __int128;
    const uint128 rank_a = uint128{a.priority} << 64 | ~a.arrived;
    const uint128 rank_b = uint128{b.priority} << 64 | ~b.arrived;
    return rank_a != rank_b ? rank_a > rank_b : a.vc < b.vc;
  }

  Entry best_[kMaxCandidateLevels];
  std::uint32_t levels_;
  std::uint32_t filled_ = 0;
};

}  // namespace

LinkScheduler::LinkScheduler(std::uint32_t input_port, std::uint32_t levels,
                             PriorityFunction priority,
                             std::uint32_t phits_per_flit,
                             std::vector<std::uint32_t> output_of_vc,
                             std::vector<QosParams> qos_of_vc)
    : input_port_(input_port),
      levels_(levels),
      priority_(priority),
      phits_per_flit_(phits_per_flit),
      output_of_vc_(std::move(output_of_vc)),
      qos_of_vc_(std::move(qos_of_vc)) {
  MMR_ASSERT(levels_ >= 1);
  MMR_ASSERT(phits_per_flit_ >= 1);
  MMR_ASSERT(output_of_vc_.size() == qos_of_vc_.size());
}

std::uint32_t LinkScheduler::output_of(std::uint32_t vc) const {
  MMR_ASSERT(vc < output_of_vc_.size());
  return output_of_vc_[vc];
}

void LinkScheduler::set_vc(std::uint32_t vc, std::uint32_t output,
                           QosParams qos) {
  MMR_ASSERT(vc < output_of_vc_.size());
  output_of_vc_[vc] = output;
  qos_of_vc_[vc] = qos;
}

Priority LinkScheduler::head_priority(const InputBuffer& buffer,
                                      std::uint32_t key, Cycle now) const {
  const InputBuffer::HeadView& head = buffer.head_view(key);
  return priority_of(head.vc, head.demoted, head.arrived, now);
}

void LinkScheduler::select(const InputBuffer& buffer, Cycle now,
                           CandidateSet& out,
                           const EligibilityMask* eligible) const {
  TopL top(levels_);
  for (const InputBuffer::HeadView& head : buffer.head_views()) {
    MMR_ASSERT(head.vc < output_of_vc_.size());
    const std::uint32_t output = output_of_vc_[head.vc];
    if (eligible != nullptr &&
        !eligible->eligible(input_port_, head.vc, output))
      continue;
    top.offer({priority_of(head.vc, head.demoted, head.arrived, now),
               head.arrived, head.vc, output});
  }
  top.emit(input_port_, now, out);
}

void LinkScheduler::snap(snapshot::Walker& w) {
  snapshot::walk_vector_pod(w, output_of_vc_);
  snapshot::walk_vector(w, qos_of_vc_, [](snapshot::Walker& v, QosParams& q) {
    snapshot::value(v, q.slots_per_round);
    snapshot::value(v, q.iat_router_cycles);
  });
  snapshot::value(w, demoted_qos_.slots_per_round);
  snapshot::value(w, demoted_qos_.iat_router_cycles);
}

}  // namespace mmr

#include "mmr/qos/admission.hpp"

#include <algorithm>
#include <cmath>

#include "mmr/snapshot/walker.hpp"
#include "mmr/trace/event.hpp"
#include "mmr/trace/tracer.hpp"

namespace mmr {

AdmissionController::AdmissionController(std::uint32_t ports,
                                         RoundAccounting rounds,
                                         double concurrency_factor)
    : ports_(ports),
      rounds_(rounds),
      concurrency_factor_(concurrency_factor),
      input_budget_(ports),
      output_budget_(ports) {
  MMR_ASSERT(ports_ > 0);
  MMR_ASSERT(concurrency_factor_ >= 1.0);
}

bool AdmissionController::fits(const LinkBudget& budget,
                               std::uint32_t mean_slots,
                               std::uint32_t peak_slots) const {
  const auto round = static_cast<std::uint64_t>(rounds_.flit_cycles_per_round());
  if (budget.mean_slots + mean_slots > round) return false;
  const double peak_budget =
      concurrency_factor_ * static_cast<double>(round);
  return static_cast<double>(budget.peak_slots + peak_slots) <= peak_budget;
}

bool AdmissionController::try_admit(ConnectionDescriptor& descriptor) {
  MMR_ASSERT(descriptor.input_link < ports_);
  MMR_ASSERT(descriptor.output_link < ports_);
  if (!descriptor.is_qos()) {
    descriptor.slots_per_round = 0;
    descriptor.peak_slots_per_round = 0;
    return true;  // best effort reserves nothing
  }

  MMR_ASSERT(descriptor.mean_bandwidth_bps > 0.0);
  MMR_ASSERT(descriptor.peak_bandwidth_bps >= descriptor.mean_bandwidth_bps);
  // A request beyond the link itself can never be honoured: reject before
  // slot conversion, where the clamp would disguise it as a full-rate
  // (round-sized) reservation that fits an empty link.
  if (rounds_.oversubscribed(descriptor.mean_bandwidth_bps)) return false;
  const std::uint32_t mean_slots =
      rounds_.slots_for_bandwidth(descriptor.mean_bandwidth_bps);
  // CBR connections have peak == mean: rule (b) then collapses into (a)
  // whenever concurrency_factor >= 1, matching the paper's CBR test.
  const std::uint32_t peak_slots =
      rounds_.slots_for_bandwidth(descriptor.peak_bandwidth_bps);

  if (!fits(input_budget_[descriptor.input_link], mean_slots, peak_slots) ||
      !fits(output_budget_[descriptor.output_link], mean_slots, peak_slots)) {
    return false;
  }

  descriptor.slots_per_round = mean_slots;
  descriptor.peak_slots_per_round = peak_slots;
  input_budget_[descriptor.input_link].mean_slots += mean_slots;
  input_budget_[descriptor.input_link].peak_slots += peak_slots;
  output_budget_[descriptor.output_link].mean_slots += mean_slots;
  output_budget_[descriptor.output_link].peak_slots += peak_slots;
  ++ledger_[{descriptor.input_link, descriptor.output_link, mean_slots,
             peak_slots}];
  MMR_TRACE_EMIT_NOW(trace::admission_event, /*admitted=*/true,
                     descriptor.input_link, descriptor.output_link,
                     descriptor.vc, descriptor.id, mean_slots);
  return true;
}

void AdmissionController::release(const ConnectionDescriptor& descriptor) {
  if (!descriptor.is_qos()) return;
  const ReservationKey key{descriptor.input_link, descriptor.output_link,
                           descriptor.slots_per_round,
                           descriptor.peak_slots_per_round};
  const auto held = ledger_.find(key);
  MMR_ASSERT_MSG(held != ledger_.end() && held->second > 0,
                 "release of a QoS reservation that was never admitted "
                 "(or was already released)");
  if (--held->second == 0) ledger_.erase(held);
  auto take = [](std::uint64_t& budget, std::uint32_t amount) {
    MMR_ASSERT(budget >= amount);
    budget -= amount;
  };
  take(input_budget_[descriptor.input_link].mean_slots,
       descriptor.slots_per_round);
  take(input_budget_[descriptor.input_link].peak_slots,
       descriptor.peak_slots_per_round);
  take(output_budget_[descriptor.output_link].mean_slots,
       descriptor.slots_per_round);
  take(output_budget_[descriptor.output_link].peak_slots,
       descriptor.peak_slots_per_round);
  MMR_TRACE_EMIT_NOW(trace::admission_event, /*admitted=*/false,
                     descriptor.input_link, descriptor.output_link,
                     descriptor.vc, descriptor.id, descriptor.slots_per_round);
}

std::uint64_t AdmissionController::outstanding_reservations() const {
  std::uint64_t total = 0;
  for (const auto& [key, count] : ledger_) total += count;
  return total;
}

std::uint32_t AdmissionController::input_mean_slots(std::uint32_t link) const {
  MMR_ASSERT(link < ports_);
  return static_cast<std::uint32_t>(input_budget_[link].mean_slots);
}

std::uint32_t AdmissionController::output_mean_slots(std::uint32_t link) const {
  MMR_ASSERT(link < ports_);
  return static_cast<std::uint32_t>(output_budget_[link].mean_slots);
}

std::uint32_t AdmissionController::input_peak_slots(std::uint32_t link) const {
  MMR_ASSERT(link < ports_);
  return static_cast<std::uint32_t>(input_budget_[link].peak_slots);
}

double AdmissionController::max_mean_utilization() const {
  std::uint64_t busiest = 0;
  for (std::uint32_t link = 0; link < ports_; ++link) {
    busiest = std::max({busiest, input_budget_[link].mean_slots,
                        output_budget_[link].mean_slots});
  }
  return static_cast<double>(busiest) /
         static_cast<double>(rounds_.flit_cycles_per_round());
}

void AdmissionController::snap(snapshot::Walker& w) {
  const auto walk_budget = [](snapshot::Walker& v, LinkBudget& budget) {
    snapshot::value(v, budget.mean_slots);
    snapshot::value(v, budget.peak_slots);
  };
  snapshot::walk_vector(w, input_budget_, walk_budget);
  snapshot::walk_vector(w, output_budget_, walk_budget);
  // std::map walks in key order, which is deterministic; on load the ledger
  // is rebuilt entry by entry.
  std::uint64_t entries = ledger_.size();
  snapshot::value(w, entries);
  if (w.loading()) {
    ledger_.clear();
    for (std::uint64_t i = 0; i < entries; ++i) {
      ReservationKey key{};
      std::uint32_t count = 0;
      for (std::uint32_t& part : key) snapshot::value(w, part);
      snapshot::value(w, count);
      ledger_.emplace(key, count);
    }
  } else {
    for (auto& [key, count] : ledger_) {
      for (const std::uint32_t part : key) {
        std::uint32_t copy = part;
        snapshot::value(w, copy);
      }
      snapshot::value(w, count);
    }
  }
}

}  // namespace mmr

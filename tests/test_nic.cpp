#include "mmr/router/nic.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "mmr/audit/sim_auditor.hpp"
#include "mmr/core/simulation.hpp"
#include "mmr/traffic/mix.hpp"
#include "oracle_args.hpp"

namespace mmr {
namespace {

Flit make_flit(ConnectionId connection, std::uint64_t seq) {
  Flit flit;
  flit.connection = connection;
  flit.seq = seq;
  return flit;
}

TEST(Nic, EmptyNicSendsNothing) {
  Nic nic(4, 2, 1);
  EXPECT_FALSE(nic.select_and_send(0).has_value());
  EXPECT_EQ(nic.total_queued(), 0u);
  nic.check_invariants();
}

TEST(Nic, SendsDepositedFlitAndConsumesCredit) {
  Nic nic(4, 2, 1);
  nic.deposit(2, make_flit(7, 0));
  const auto transfer = nic.select_and_send(0);
  ASSERT_TRUE(transfer.has_value());
  EXPECT_EQ(transfer->vc, 2u);
  EXPECT_EQ(transfer->flit.connection, 7u);
  EXPECT_EQ(nic.credits().credits(2), 1u);
  EXPECT_EQ(nic.total_sent(), 1u);
  nic.check_invariants();
}

TEST(Nic, OneSendPerCycle) {
  Nic nic(4, 2, 1);
  nic.deposit(0, make_flit(0, 0));
  nic.deposit(1, make_flit(1, 0));
  EXPECT_TRUE(nic.select_and_send(0).has_value());
  // Second call in the same conceptual cycle would be a second send; the
  // engine calls once per cycle, but the NIC itself allows repeated calls —
  // the link pipeline enforces the one-per-cycle rule.  Here: the next call
  // still finds the other flit.
  EXPECT_TRUE(nic.select_and_send(1).has_value());
  EXPECT_FALSE(nic.select_and_send(2).has_value());
}

TEST(Nic, DemandDrivenRoundRobinSkipsEmptyQueues) {
  Nic nic(8, 4, 1);
  nic.deposit(1, make_flit(1, 0));
  nic.deposit(5, make_flit(5, 0));
  nic.deposit(1, make_flit(1, 1));
  // RR starts at 0: first eligible is VC 1.
  EXPECT_EQ(nic.select_and_send(0)->vc, 1u);
  // Cursor resumes after 1: next eligible is VC 5 (skipping 2,3,4).
  EXPECT_EQ(nic.select_and_send(1)->vc, 5u);
  // Wraps back to VC 1's second flit.
  EXPECT_EQ(nic.select_and_send(2)->vc, 1u);
  EXPECT_FALSE(nic.select_and_send(3).has_value());
}

TEST(Nic, CreditGatingBlocksAndResumes) {
  Nic nic(2, /*credits=*/1, /*latency=*/1);
  nic.deposit(0, make_flit(0, 0));
  nic.deposit(0, make_flit(0, 1));
  EXPECT_EQ(nic.select_and_send(0)->vc, 0u);
  // VC 0 is out of credits; flit 1 must wait.
  EXPECT_FALSE(nic.select_and_send(1).has_value());
  nic.return_credit(0, 1);  // usable at cycle 2
  EXPECT_FALSE(nic.select_and_send(1).has_value());
  EXPECT_EQ(nic.select_and_send(2)->flit.seq, 1u);
  nic.check_invariants();
}

TEST(Nic, BlockedVcDoesNotStallOthers) {
  Nic nic(3, 1, 1);
  nic.deposit(0, make_flit(0, 0));
  nic.deposit(0, make_flit(0, 1));
  nic.deposit(2, make_flit(2, 0));
  EXPECT_EQ(nic.select_and_send(0)->vc, 0u);
  // VC 0 blocked on credits; VC 2 is served instead.
  EXPECT_EQ(nic.select_and_send(1)->vc, 2u);
}

TEST(Nic, RoundRobinIsFairUnderSaturation) {
  Nic nic(4, /*credits=*/2, /*latency=*/0);
  for (std::uint32_t vc = 0; vc < 4; ++vc) {
    for (std::uint64_t i = 0; i < 100; ++i) nic.deposit(vc, make_flit(vc, i));
  }
  std::vector<int> served(4, 0);
  for (Cycle now = 0; now < 200; ++now) {
    const auto transfer = nic.select_and_send(now);
    ASSERT_TRUE(transfer.has_value());
    ++served[transfer->vc];
    // The router drains immediately: return the credit right away.
    nic.return_credit(transfer->vc, now);
  }
  for (int s : served) EXPECT_EQ(s, 50);
  nic.check_invariants();
}

TEST(Nic, QueueAccountingMatches) {
  Nic nic(2, 4, 1);
  for (int i = 0; i < 5; ++i) nic.deposit(0, make_flit(0, static_cast<std::uint64_t>(i)));
  EXPECT_EQ(nic.queued(0), 5u);
  EXPECT_EQ(nic.total_queued(), 5u);
  (void)nic.select_and_send(0);
  EXPECT_EQ(nic.queued(0), 4u);
  EXPECT_EQ(nic.total_sent(), 1u);
  nic.check_invariants();
}

TEST(Nic, BestEffortBurstStallsWithoutDropOrReorder) {
  // A best-effort burst against a VC whose router-side FIFO is full must
  // stall at the NIC — nothing dropped, nothing reordered — and drain in
  // order as credits trickle back.
  Nic nic(2, /*credits=*/4, /*latency=*/1);
  for (std::uint64_t i = 0; i < 32; ++i) nic.deposit(1, make_flit(9, i));
  ASSERT_EQ(nic.queued(1), 32u);

  std::vector<std::uint64_t> sent;
  Cycle now = 0;
  for (; now < 4; ++now) {
    const auto transfer = nic.select_and_send(now);
    ASSERT_TRUE(transfer.has_value());
    sent.push_back(transfer->flit.seq);
  }
  // Credits exhausted: the VC stalls.  The queue holds every flit.
  for (; now < 12; ++now) {
    EXPECT_FALSE(nic.select_and_send(now).has_value());
  }
  EXPECT_EQ(nic.queued(1), 28u);
  EXPECT_EQ(nic.total_sent(), 4u);
  nic.check_invariants();

  // The router drains one flit per cycle; sends resume where they left off.
  while (sent.size() < 32) {
    nic.return_credit(1, now);
    ++now;
    const auto transfer = nic.select_and_send(now);
    if (transfer.has_value()) sent.push_back(transfer->flit.seq);
    ASSERT_LT(now, 1000u) << "drain did not resume after credits returned";
  }
  // First resumed flit is seq 4 (no skip), and the whole burst arrived in
  // FIFO order with no gaps.
  ASSERT_EQ(sent.size(), 32u);
  for (std::uint64_t i = 0; i < 32; ++i) EXPECT_EQ(sent[i], i);
  EXPECT_EQ(nic.queued(1), 0u);
  EXPECT_EQ(nic.total_sent(), 32u);
  nic.check_invariants();
}

TEST(Nic, BackpressureUnderSaturationKeepsPerVcFifo) {
  // Integration: a best-effort workload offered above what the switch can
  // carry forces sustained NIC backpressure.  The SimAuditor (audit=1)
  // sweeps every cycle and aborts on any per-VC FIFO or conservation
  // violation, so a clean run is the assertion; we additionally check that
  // pressure actually built up (backlog) and that nothing was dropped.
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 16;
  config.warmup_cycles = 500;
  config.measure_cycles = 5'000;
  config.audit_every = 1;
  Rng rng(config.seed, 1);
  Workload workload(config.ports);
  BestEffortSpec spec;
  spec.load = 0.95;  // above the per-port capacity the arbiter sustains
  spec.connections_per_link = 3;
  add_best_effort(workload, config, spec, rng);

  MmrSimulation simulation(config, std::move(workload));
  ASSERT_NE(simulation.auditor(), nullptr);
  const SimulationMetrics metrics = simulation.run();
  EXPECT_EQ(simulation.auditor()->cycles_audited(), config.total_cycles());
  EXPECT_GT(metrics.flits_delivered, 0u);
  // Stall, not drop: the undeliverable surplus is still queued (the auditor
  // sweep aborts on any conservation or per-VC FIFO violation).
  EXPECT_GT(metrics.flits_generated, metrics.flits_delivered);
  EXPECT_GT(simulation.backlog(), 0u) << "expected sustained backpressure";
}

TEST(Nic, InfiniteBufferAcceptsLargeBacklog) {
  Nic nic(1, 1, 1);
  for (std::uint64_t i = 0; i < 10000; ++i) nic.deposit(0, make_flit(0, i));
  EXPECT_EQ(nic.queued(0), 10000u);
  nic.check_invariants();
}

// --- differential oracle -----------------------------------------------------
//
// The link controller must pick exactly what a linear probe of every VC
// picks: starting at the round-robin cursor, the first VC (mod n) holding
// both a flit and a credit.  ProbeNic is that probe, kept as the reference.
class ProbeNic {
 public:
  ProbeNic(std::uint32_t vcs, std::uint32_t credits_per_vc, Cycle latency)
      : queues_(vcs), credits_(vcs, credits_per_vc, latency) {}

  void deposit(std::uint32_t vc, const Flit& flit) {
    queues_[vc].push_back(flit);
  }
  void return_credit(std::uint32_t vc, Cycle now) { credits_.release(vc, now); }
  void set_paused(bool paused) { paused_ = paused; }
  void move_queue(std::uint32_t from_vc, std::uint32_t to_vc) {
    if (from_vc == to_vc) return;
    for (const Flit& flit : queues_[from_vc]) queues_[to_vc].push_back(flit);
    queues_[from_vc].clear();
  }
  [[nodiscard]] std::size_t queued(std::uint32_t vc) const {
    return queues_[vc].size();
  }

  std::optional<LinkTransfer> select_and_send(Cycle now) {
    credits_.tick(now);
    if (paused_) return std::nullopt;
    const auto n = static_cast<std::uint32_t>(queues_.size());
    for (std::uint32_t k = 0; k < n; ++k) {
      const std::uint32_t vc = (rr_next_ + k) % n;
      if (queues_[vc].empty() || !credits_.has_credit(vc)) continue;
      credits_.consume(vc);
      LinkTransfer transfer;
      transfer.flit = queues_[vc].front();
      transfer.vc = vc;
      queues_[vc].pop_front();
      rr_next_ = (vc + 1) % n;
      return transfer;
    }
    return std::nullopt;
  }

 private:
  std::vector<std::deque<Flit>> queues_;
  CreditManager credits_;
  std::uint32_t rr_next_ = 0;
  bool paused_ = false;
};

// One seeded scenario: `iterations` cycles of random deposits (single flits
// and bursts, biased to both sides of every 64-VC word boundary), credit
// returns, pauses and queue moves, with a few VCs whose credits come back
// only rarely so they sit non-empty without a credit.
void run_nic_oracle(std::uint32_t vcs, Cycle latency) {
  SCOPED_TRACE("vcs=" + std::to_string(vcs) +
               " latency=" + std::to_string(latency));
  constexpr std::uint32_t kCredits = 2;
  Nic nic(vcs, kCredits, latency);
  ProbeNic probe(vcs, kCredits, latency);
  Rng rng(oracle::args().seed, std::uint64_t{vcs} * 2 + latency);
  const auto any_vc = [&] {
    return static_cast<std::uint32_t>(rng.uniform(vcs));
  };

  std::vector<std::uint32_t> hot = {0, vcs - 1};
  for (std::uint32_t boundary = 64; boundary <= vcs; boundary += 64) {
    hot.push_back(boundary - 1);
    if (boundary < vcs) hot.push_back(boundary);
  }
  const auto pick_vc = [&] {
    return rng.chance(0.5) ? hot[rng.uniform(hot.size())] : any_vc();
  };
  std::vector<bool> starved(vcs, false);
  for (int i = 0; i < 3; ++i) starved[any_vc()] = true;

  std::vector<std::uint32_t> held;  // VCs of sent flits still in the router
  std::uint64_t seq = 0;
  std::uint64_t sends = 0;
  bool paused = false;
  for (Cycle now = 0; now < oracle::args().iterations; ++now) {
    const std::uint64_t deposits =
        rng.chance(0.05) ? rng.uniform(8) : (rng.chance(0.45) ? 1 : 0);
    const std::uint32_t burst_vc = pick_vc();
    for (std::uint64_t d = 0; d < deposits; ++d) {
      const std::uint32_t vc = deposits > 1 ? burst_vc : pick_vc();
      const Flit flit = make_flit(vc, seq++);
      nic.deposit(vc, flit);
      probe.deposit(vc, flit);
    }
    for (std::size_t i = 0; i < held.size();) {
      const std::uint32_t vc = held[i];
      if (!rng.chance(starved[vc] ? 0.01 : 0.4)) {
        ++i;
        continue;
      }
      nic.return_credit(vc, now);
      probe.return_credit(vc, now);
      held[i] = held.back();
      held.pop_back();
    }
    if (rng.chance(0.02)) {
      paused = !paused;
      nic.set_paused(paused);
      probe.set_paused(paused);
    }
    if (rng.chance(0.01)) {
      const std::uint32_t from = pick_vc();
      const std::uint32_t to = pick_vc();
      nic.move_queue(from, to);
      probe.move_queue(from, to);
    }

    const auto got = nic.select_and_send(now);
    const auto want = probe.select_and_send(now);
    ASSERT_EQ(got.has_value(), want.has_value()) << "cycle " << now;
    if (got.has_value()) {
      ASSERT_EQ(got->vc, want->vc) << "cycle " << now;
      ASSERT_EQ(got->flit.seq, want->flit.seq) << "cycle " << now;
      held.push_back(got->vc);
      ++sends;
    }
    nic.check_invariants();
  }
  for (std::uint32_t vc = 0; vc < vcs; ++vc)
    ASSERT_EQ(nic.queued(vc), probe.queued(vc)) << "vc " << vc;
  if (oracle::args().iterations >= 1'000) {
    EXPECT_GT(sends, 0u);
  }
}

TEST(NicOracle, MatchesLinearProbe) {
  for (const std::uint32_t vcs : {1u, 2u, 63u, 64u, 65u, 200u, 256u}) {
    for (const Cycle latency : {Cycle{0}, Cycle{1}}) {
      run_nic_oracle(vcs, latency);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(NicOracle, CursorWrapsAcrossWordBoundaries) {
  // 130 VCs span three words; flits on 129 (last word), 63 and 64 (either
  // side of the first boundary).  Served in cursor order, wrapping.
  Nic nic(130, 1, 1);
  for (const std::uint32_t vc : {64u, 129u, 63u})
    nic.deposit(vc, make_flit(vc, vc));
  EXPECT_EQ(nic.select_and_send(0)->vc, 63u);
  EXPECT_EQ(nic.select_and_send(1)->vc, 64u);
  EXPECT_EQ(nic.select_and_send(2)->vc, 129u);
  nic.deposit(0, make_flit(0, 0));
  nic.deposit(129, make_flit(129, 1));  // no credit left on 129
  EXPECT_EQ(nic.select_and_send(3)->vc, 0u);  // cursor wrapped to 0
  EXPECT_FALSE(nic.select_and_send(4).has_value());
  nic.check_invariants();
}

}  // namespace
}  // namespace mmr

int main(int argc, char** argv) { return mmr::oracle::main(argc, argv); }

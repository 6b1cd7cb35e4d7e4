// Central simulation configuration.  Defaults follow the paper / MMR
// literature: 4x4 router, 2.4 Gbps 16-bit links, 4096-bit flits, four
// candidate levels, SIABP link scheduling, small credit-controlled buffers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mmr/sim/spec_parser.hpp"
#include "mmr/sim/time.hpp"

namespace mmr {

/// Priority biasing function used by the link scheduler (Section 3.1).
enum class PriorityScheme : std::uint8_t {
  kSiabp,      ///< Simple-IABP: shift-based biasing (hardware-friendly)
  kIabp,       ///< Inter-Arrival Based Priority: queuing delay / IAT
  kFifoAge,    ///< age only, ignores bandwidth requirements
  kStatic,     ///< reserved slots only, ignores waiting time
};

[[nodiscard]] const char* to_string(PriorityScheme s);

/// Largest port count any arbiter can represent (bitset request rows of
/// kMaxPorts / 64 words; Candidate stores ports in 16 bits).  The `ports`
/// key rejects counts outside [2, kMaxPorts].
inline constexpr std::uint32_t kMaxPorts = 1024;

/// Most candidates a link scheduler offers per input: the selection buffer
/// and COA's per-output level mask are one 64-bit word.
inline constexpr std::uint32_t kMaxCandidateLevels = 64;

struct SimConfig {
  // --- geometry -----------------------------------------------------------
  std::uint32_t ports = 4;            ///< physical input = output links
  std::uint32_t vcs_per_link = 256;   ///< virtual channels per physical link

  // --- link technology ----------------------------------------------------
  double link_bandwidth_bps = 2.4e9;  ///< 2.4 Gbps links
  std::uint32_t flit_bits = 4096;     ///< large flits amortise arbitration
  std::uint32_t phit_bits = 16;       ///< 16-bit wide links

  // --- router resources ---------------------------------------------------
  std::uint32_t buffer_flits_per_vc = 2;  ///< MMR VC buffer ("a few flits")
  std::uint32_t candidate_levels = 4;     ///< link-scheduler candidates/port
  Cycle link_latency = 1;                 ///< NIC->MMR flit transfer, cycles
  Cycle credit_latency = 1;               ///< MMR->NIC credit return, cycles

  // --- bandwidth accounting (Section 2, "Connection Set up") --------------
  /// Flit cycles per round = round_multiple * vcs_per_link.
  std::uint32_t round_multiple = 4;
  /// VBR admission: sum of peak bandwidths <= round * concurrency_factor.
  double concurrency_factor = 3.0;

  // --- scheduling ---------------------------------------------------------
  PriorityScheme priority_scheme = PriorityScheme::kSiabp;
  std::string arbiter = "coa";  ///< see arbiter factory for names

  // --- run control ---------------------------------------------------------
  std::uint64_t seed = 0x5EEDu;
  Cycle warmup_cycles = 20'000;    ///< statistics discarded
  Cycle measure_cycles = 200'000;  ///< statistics collected

  // --- opt-in subsystems ---------------------------------------------------
  // Textual specs, parsed where the subsystem is built (grammars: README
  // "Spec reference").  Empty = the subsystem is never constructed and
  // results are bit-identical to a build without it.
  std::string fault_spec;   ///< fault=  FaultPlan (mmr/fault/fault_plan.hpp)
  std::string police_spec;  ///< police= PoliceSpec (mmr/overload/spec.hpp)
  std::string rogue_spec;   ///< rogue=  RogueSpec (mmr/overload/spec.hpp)
  std::string flow_spec;    ///< flow=   MmuSpec (mmr/mmu/spec.hpp)
  std::string trace_spec;   ///< trace=  TraceSpec (mmr/trace/spec.hpp)
  std::string snap_spec;    ///< snap=   SnapSpec (mmr/snapshot/spec.hpp)
  std::string qd_spec;      ///< qd=     QdSpec (mmr/router/qd_spec.hpp)

  /// Worker shards: 0 and 1 step serially; N >= 2 steps N contiguous router
  /// ranges on a ThreadPool, bit-identical to serial.  `net_threads=hw` is
  /// the hardware thread count.  Not in the snapshot config digest.
  std::uint32_t net_threads = 0;

  // --- runtime invariant auditing (mmr/audit/sim_auditor.hpp) --------------
  /// 0 = off.  N >= 1 attaches the invariant auditor: departure-stream
  /// checks every cycle, the credit-conservation sweep every N cycles.
  /// Auditing never changes results; violations abort with a message.
  std::uint32_t audit_every = 0;

  // --- derived ------------------------------------------------------------
  [[nodiscard]] TimeBase time_base() const {
    return TimeBase(link_bandwidth_bps, flit_bits, phit_bits);
  }
  [[nodiscard]] std::uint32_t flit_cycles_per_round() const {
    return round_multiple * vcs_per_link;
  }
  [[nodiscard]] Cycle total_cycles() const {
    return warmup_cycles + measure_cycles;
  }
  /// Throws std::invalid_argument on an out-of-range field or combination.
  void validate() const;

  static const spec::Grammar& grammar();  ///< the key=value override table
  bool operator==(const SimConfig&) const = default;
};

/// Applies "key=value" overrides (e.g. from bench argv) to a config; throws
/// std::invalid_argument on an unknown, repeated, malformed or bad value.
void apply_overrides(SimConfig& config,
                     const std::vector<std::string>& overrides);

}  // namespace mmr

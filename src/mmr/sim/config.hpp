// Central simulation configuration.  Defaults follow the paper / MMR
// literature: 4x4 router, 2.4 Gbps 16-bit links, 4096-bit flits, four
// candidate levels, SIABP link scheduling, small credit-controlled buffers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

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
[[nodiscard]] PriorityScheme priority_scheme_from_string(const std::string& s);

/// Largest port count any arbiter can represent: the bitset engines cap
/// their multi-word request rows at kMaxPorts / 64 words, and Candidate
/// stores ports in 16 bits.  Port counts outside [1, kMaxPorts] are rejected
/// at parse time (apply_overrides, SweepSpec::validate), not deep inside
/// arbiter construction.
inline constexpr std::uint32_t kMaxPorts = 1024;

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

  // --- fault injection (multi-router networks) ------------------------------
  /// Textual FaultPlan spec (see mmr/fault/fault_plan.hpp), parsed by the
  /// network simulation.  Empty = no fault machinery at all; results are
  /// bit-identical to a fault-free build.
  std::string fault_spec;

  // --- overload protection (mmr/overload/) ----------------------------------
  /// Textual PoliceSpec (see mmr/overload/spec.hpp): per-connection token-
  /// bucket policing at NIC injection plus the staged saturation watchdog.
  /// Empty = no policing machinery at all; results are bit-identical to a
  /// build without the subsystem.
  std::string police_spec;
  /// Textual RogueSpec: wraps a deterministic subset of QoS sources so they
  /// inflate past their admitted contract.  Empty = no rogue sources.
  std::string rogue_spec;

  // --- flow-control regime (mmr/mmu/) ---------------------------------------
  /// Textual MmuSpec (see mmr/mmu/spec.hpp): "credit" for the paper's
  /// dedicated per-VC buffers + credit flow control, or
  /// "shared[,key:value...]" for the shared-buffer MMU regime (dynamic-
  /// threshold admission, Xon/Xoff pause, ECN marking).  Empty = credit
  /// regime with no MMU machinery at all; results are bit-identical to a
  /// build without the subsystem.
  std::string flow_spec;

  // --- event tracing (mmr/trace/) -------------------------------------------
  /// Textual TraceSpec (see mmr/trace/spec.hpp): structured lifecycle-event
  /// tracing, either full-stream export or a flight-recorder ring dumped on
  /// invariant failure / watchdog alarm / fault activation.  Empty = no
  /// tracer is constructed at all; results are bit-identical to a build
  /// without the subsystem (and bit-identical traced vs untraced when set).
  std::string trace_spec;

  // --- checkpoint/restore (mmr/snapshot/) -----------------------------------
  /// Textual SnapSpec (see mmr/snapshot/spec.hpp): periodic checkpoints,
  /// per-cycle state hashing, crash-triggered post-mortem bundles, and
  /// resume-from-checkpoint.  Empty = no snapshot machinery at all; results
  /// are bit-identical to a build without the subsystem.
  std::string snap_spec;

  // --- queue discipline (mmr/router/qd_spec.hpp) ----------------------------
  /// Textual QdSpec: "vc" for the paper's per-VC input queueing, "voq" for
  /// per-input virtual output queues in front of the same SwitchArbiter API,
  /// or "cicq[,stab:0|1][,xp:N][,thresh:N]" for combined input-crosspoint
  /// queueing with RR/RR scheduling and the burst-stabilization credit
  /// protocol.  Empty = per-VC discipline with none of the VOQ/CICQ
  /// machinery constructed; results are bit-identical to a build without
  /// the subsystem.
  std::string qd_spec;

  // --- sharded network engine (mmr/network/) --------------------------------
  /// Worker shards for the multi-router network simulation.  0 (unset) and 1
  /// both run the original single-threaded engine — bit-identical to a build
  /// without the field.  N >= 2 partitions the routers into N contiguous
  /// shards stepped on a ThreadPool with a barrier per phase; results stay
  /// bit-identical to the serial run (metrics, trace bytes, StateHash
  /// sequence — tested).  `net_threads=hw` resolves to the hardware thread
  /// count at parse time.  Excluded from the snapshot config digest so
  /// checkpoints resume across thread counts.
  std::uint32_t net_threads = 0;

  // --- runtime invariant auditing (mmr/audit/sim_auditor.hpp) --------------
  /// 0 = off.  N >= 1 attaches the simulation-level invariant auditor:
  /// departure-stream checks (per-VC FIFO, crossbar bandwidth) run every
  /// cycle and the full credit-conservation sweep every N cycles.  Auditing
  /// never changes simulation results; violations abort with a message.
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
  /// True when flow= selects the shared-buffer MMU regime.  (Cheap prefix
  /// test; full parsing and validation live in mmr::mmu::MmuSpec, above
  /// this layer.)
  [[nodiscard]] bool shared_flow() const {
    return flow_spec.rfind("shared", 0) == 0;
  }
  /// True when qd= selects the paper's per-VC discipline (the default).
  /// Cheap test; full parsing and validation live in mmr::QdSpec.
  [[nodiscard]] bool vc_discipline() const {
    return qd_spec.empty() || qd_spec == "vc";
  }

  /// Aborts with a readable message when a field combination is nonsense.
  void validate() const;
};

/// Applies "key=value" overrides (e.g. from bench argv) to a config.
/// Unknown keys raise an error listing the valid keys.  Returns the keys that
/// were applied.
std::vector<std::string> apply_overrides(
    SimConfig& config, const std::vector<std::string>& overrides);

}  // namespace mmr

// The stepping engine: MMRs over a NetworkTopology, one NIC per local input
// link with infinite source buffers, credit-based flow control on every
// link.  The paper's Section 5 setup is NetworkTopology::single; its future
// work, "a network composed of several MMRs", is any other topology, where
// a router only offers a VC whose next hop holds a credit for it.  run()
// executes warmup + measurement and returns the paper's metrics.
//
// Opt-in subsystems hook in once each: policing, rogue sources and the ECN
// throttle per NIC (connection); the shared-buffer MMU, the queue
// discipline, the invariant auditor and the trace node per router; faults
// per inter-router channel.  `net_threads >= 2` steps contiguous router
// shards on worker threads with a barrier per phase, bit-identical to the
// serial loop (see step_one in simulation.cpp).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "mmr/core/metrics.hpp"
#include "mmr/fault/fault_injector.hpp"
#include "mmr/mmu/spec.hpp"
#include "mmr/overload/spec.hpp"
#include "mmr/qos/admission.hpp"
#include "mmr/router/link.hpp"
#include "mmr/router/nic.hpp"
#include "mmr/router/router.hpp"
#include "mmr/sim/config.hpp"
#include "mmr/sim/emission_wheel.hpp"
#include "mmr/snapshot/format.hpp"
#include "mmr/snapshot/spec.hpp"
#include "mmr/trace/spec.hpp"
#include "mmr/traffic/mix.hpp"

namespace mmr {

class ThreadPool;

namespace audit {
class SimAuditor;
}  // namespace audit

namespace mmu {
class SharedBufferMmu;
class EcnReactor;
}  // namespace mmu

namespace overload {
class InjectionPolicer;
class SaturationWatchdog;
}  // namespace overload

namespace snapshot {
class SnapshotManager;
class Walker;
}  // namespace snapshot

namespace trace {
class Tracer;
}  // namespace trace

/// Every opt-in spec of a run, parsed once by validate(); the simulation is
/// built from it, so a run validate() accepts constructs.
struct RunSpecs {
  /// The config the simulation runs: under `flow=shared` every VC's
  /// buffer_flits is the MMU's per-port admission allowance
  /// (MmuSpec::vc_slots), so the MMU, not credits, gates admission, and
  /// each input buffer's pool holds that one allowance, not one per VC.
  SimConfig built;
  mmu::MmuSpec flow;  ///< credit mode when `flow=` is unset
  QdSpec qd;
  FaultPlan fault;
  std::optional<overload::PoliceSpec> police;
  std::optional<overload::RogueSpec> rogue;
  std::optional<trace::TraceSpec> trace;
  std::optional<snapshot::SnapSpec> snap;
  std::optional<snapshot::Snapshot> resume;  ///< the `resume:` checkpoint
};

/// The one validator of a run of `config` on `topology`: SimConfig's own
/// checks, the arbiter name, the input buffer slots of one router and of
/// the run, every opt-in spec, the fault plan against the topology's
/// channels, `ports` against its routers, and a `resume:` checkpoint's
/// config digest.  Throws std::invalid_argument naming the first bad value;
/// snapshot::SnapshotError (a std::runtime_error) for a checkpoint that is
/// corrupt or was captured under another config.  Mains call it before
/// they build a workload or start a thread; MmrSimulation's constructor
/// calls it first and builds from its result.
RunSpecs validate(const SimConfig& config, const NetworkTopology& topology);

/// A single-router main's SimConfig overrides (the command-line tokens its
/// own grammar lacks, spec::parse_command_line): applies them, then
/// validate()s the config against NetworkTopology::single(config.ports).
/// Bad input prints "error: <message>" and exits 1.  A network main applies
/// its overrides and validates against each topology it builds instead.
void configure(SimConfig& config, const std::vector<std::string>& overrides);

/// A main's run: builds and runs one simulation.  A signal that stops a
/// `snap=` run exits with snapshot::report_interrupted()'s status; input
/// the constructor's validate() rejects prints "error: <message>" and
/// exits 1, for mains that run a config they did not validate themselves.
SimulationMetrics run_or_exit(const SimConfig& config, Workload workload);

class MmrSimulation {
 public:
  /// Throws what validate(config, workload.topology) throws.
  MmrSimulation(const SimConfig& config, Workload workload);
  ~MmrSimulation();  ///< out-of-line for the forward-declared subsystems

  /// Runs warmup_cycles + measure_cycles (once per instance) and returns
  /// the metrics.
  SimulationMetrics run();
  /// Runs a single cycle (fine-grained integration tests).
  void step_one();

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] const NetworkTopology& topology() const {
    return workload_.topology;
  }
  /// Every connection as its hosts see it (Workload::table).
  [[nodiscard]] const ConnectionTable& table() const { return workload_.table; }
  [[nodiscard]] const MmrRouter& router(std::uint32_t index = 0) const;

  /// Flits queued in NICs and penalty queues, on links and in routers.
  [[nodiscard]] std::uint64_t backlog() const;

  /// Invoked for every delivery to a host with its delivery cycle (tests,
  /// custom sinks), where the delivery is accounted: a sharded run calls it
  /// from the worker threads, concurrently across shards.  Set before
  /// running.
  using DepartureObserver =
      std::function<void(const MmrRouter::Departure&, Cycle)>;
  void set_departure_observer(DepartureObserver observer) {
    observer_ = std::move(observer);
  }

  /// The metrics of the run so far.  Reads the simulation only: calling it
  /// twice, or hashing the state around it, sees the same state.
  [[nodiscard]] SimulationMetrics finalize() const;

  /// Router 0's runtime invariant auditor, or nullptr when `audit=0`.
  [[nodiscard]] const audit::SimAuditor* auditor() const;

  /// The injection policer, or nullptr when `police=` is unset.
  [[nodiscard]] const overload::InjectionPolicer* policer() const {
    return policer_.get();
  }
  /// The saturation watchdog, or nullptr when policing is off or the spec
  /// disables it (wd_window:0).
  [[nodiscard]] const overload::SaturationWatchdog* watchdog() const {
    return watchdog_.get();
  }
  /// ConnectionIds wrapped as rogue sources (empty when `rogue=` is unset).
  [[nodiscard]] const std::vector<ConnectionId>& rogue_connections() const {
    return rogue_ids_;
  }

  /// The event tracer, or nullptr when `trace=` is unset.
  [[nodiscard]] trace::Tracer* tracer() { return tracer_.get(); }

  // --- faults (mmr/fault/) --------------------------------------------------
  /// Installs a fault plan (must happen before the first step; overrides any
  /// plan parsed from SimConfig::fault_spec).  An empty plan is a strict
  /// no-op: no fault machinery is instantiated.
  void set_fault_plan(FaultPlan plan);

  /// Index of the inter-router channel (fault-plan target) leaving
  /// (router, out_port), or -1 for a local output port.
  [[nodiscard]] std::int32_t channel_at(std::uint32_t router,
                                        std::uint32_t out_port) const;

  /// Where a flit popped from (router, input, vc) goes next.
  struct NextHop {
    bool local = true;                ///< delivered to the attached host
    std::uint32_t channel = 0;        ///< else: channel index...
    std::uint32_t downstream_vc = 0;  ///< ...and VC on the next input link
  };
  [[nodiscard]] const NextHop& next_hop(std::uint32_t router,
                                        std::uint32_t input,
                                        std::uint32_t vc) const {
    return next_hops_[port_index(router, input) * config_.vcs_per_link + vc];
  }

  /// What gates a router output feeding inter-router channel `channel`:
  /// the upstream credit view of the downstream VCs, the downstream MMU's
  /// Xoff, and the link's fault state (differential tests of the routers'
  /// eligibility masks read these).
  struct ChannelGate {
    const CreditManager* credits = nullptr;
    bool paused = false;
    bool down = false;
  };
  [[nodiscard]] ChannelGate channel_gate(std::uint32_t channel) const;

  void check_invariants() const;

  // --- checkpoint/restore (mmr/snapshot/, `snap=` override) -----------------
  /// The one serialization walk: every mutable piece of simulation state, in
  /// a fixed order, serving SaveWalker, LoadWalker and HashWalker alike.
  /// Conditional sections (policer, MMU, faults, tracer, ...) appear exactly
  /// when the config constructs the subsystem, which the config digest pins.
  void snap_walk(snapshot::Walker& w);

  /// 64-bit FNV-1a StateHash of the current state (the per-cycle divergence
  /// fingerprint).  Works with or without `snap=`.
  [[nodiscard]] std::uint64_t state_hash();
  /// Writes a checkpoint of the current state to `path` (atomic).
  void save_checkpoint(const std::string& path);
  /// Overlays a checkpoint onto this freshly constructed simulation, whose
  /// (config, workload) must match the saving run's: a config-digest
  /// mismatch throws SnapshotError.  `snap=resume:PATH` overlays the
  /// checkpoint validate() loaded the same way.
  void restore_checkpoint(const std::string& path);

  /// The snapshot manager, or nullptr when `snap=` is unset.
  [[nodiscard]] const snapshot::SnapshotManager* snapshot_manager() const {
    return snap_mgr_.get();
  }

 private:
  MmrSimulation(RunSpecs specs, Workload&& workload);
  /// Overlays a checkpoint whose config digest matches this simulation's.
  void restore(const snapshot::Snapshot& snap);

  /// Directed inter-router channel from output `from` into input `to`,
  /// with its credit loop.
  struct Channel {
    PortEndpoint from;
    PortEndpoint to;
    bool paused;            ///< Xoff from the downstream router's MMU
    CreditManager credits;  ///< upstream view of the downstream VCM
    LinkPipeline pipe;
    /// Downstream VCs whose credit count the receiving shard's tick lifted
    /// off zero (phase A); the sending router drains them into its
    /// eligibility mask before it schedules (phase B), so no shard writes
    /// another shard's mask.
    std::vector<std::uint32_t> refilled{};
  };

  /// The upstream (input, VC) whose next hop is a given downstream VC of a
  /// channel: the eligibility bit that VC's credit count drives.
  struct UpstreamVc {
    std::uint32_t input = kNoInput;
    std::uint32_t vc = 0;
    static constexpr std::uint32_t kNoInput = ~std::uint32_t{0};
  };

  /// An Xon/Xoff frame in flight on an input link's credit channel; every
  /// frame is stamped now + credit_latency, so a front-drain applies them in
  /// emission order.
  struct PauseFrame {
    Cycle effective_at = 0;
    std::uint32_t port = 0;
    bool xoff = false;
  };

  /// A host-facing input link: the NIC and its link into the router.
  struct Host {
    Nic nic;
    LinkPipeline link;
  };

  /// What is attached to one (router, port); -1 where nothing is.
  struct PortMap {
    std::int32_t out_channel = -1;  ///< channel leaving the output
    std::int32_t in_channel = -1;   ///< channel feeding the input...
    std::int32_t host = -1;         ///< ...or the host feeding it
  };

  /// One router and its per-router subsystems.
  struct Node {
    MmrRouter router;
    std::unique_ptr<mmu::SharedBufferMmu> mmu;       ///< flow=shared
    std::unique_ptr<audit::SimAuditor> auditor;      ///< audit=N
    std::deque<PauseFrame> pause_frames;             ///< flow=shared
  };

  /// The fault subsystem's runtime; allocated only for a non-empty plan.
  struct FaultRuntime {
    enum class ConnState : std::uint8_t {
      kActive,   ///< connection has an installed path
      kDropped,  ///< torn down, waiting for a link to come back up
    };
    FaultInjector injector;
    std::vector<AdmissionController> admission{};  ///< per router
    std::vector<ConnState> state{};                ///< per connection
    std::vector<Cycle> dropped_at{};               ///< per connection
    /// Per connection, per hop: whether the hop holds a reservation in
    /// `admission` (initial workloads can exceed the admission budgets).
    std::vector<std::vector<bool>> hop_admitted{};
    /// Per channel, per VC: when a credit deficit was first observed by the
    /// resync watchdog (kNever = currently balanced).
    std::vector<std::vector<Cycle>> leak_since{};
    std::vector<std::uint32_t> went_down{};  ///< advance_to() scratch
    std::vector<std::uint32_t> came_up{};
  };

  /// The slice of the fabric one worker steps: contiguous routers, the
  /// hosts attached to them and the channels they receive.  The serial loop
  /// is a single shard covering everything.
  struct Shard {
    std::uint32_t router_begin = 0;
    std::uint32_t router_end = 0;  ///< exclusive

    // Per-cycle scratch and cross-shard effects, drained at the barrier.
    std::vector<LinkTransfer> arrivals;
    std::vector<MmrRouter::Departure> departures;
    std::vector<ConnectionId> ecn_marks;
    /// Delivery and fault accounting of a sharded run's worker, folded
    /// into the collector's tally before a snapshot walk or finalize.  The
    /// serial loop accounts into the collector's tally directly.
    DeliveryTally tally;

    /// Trace staging (sharded runs), replayed into the real tracer.
    std::unique_ptr<trace::Tracer> staging;
  };

  // --- one simulated cycle ---------------------------------------------------
  /// Runs `fn(shard)` for every shard: inline on the serial loop, on the
  /// worker pool with trace staging and replay on the sharded one.
  template <class Fn>
  void for_each_shard(trace::Tracer* cycle_tracer, Fn&& fn);

  /// Phase A for input (r, p): the feeding link's arrivals (and, on a
  /// channel, its credit tick and fault draws).
  void input_arrivals(std::uint32_t r, std::uint32_t p, Cycle now,
                      Shard& shard);
  /// A flit reaching (router, port): MMU admission, then the VCM.  Returns
  /// false when the MMU dropped it (the caller returns its credit).
  [[nodiscard]] bool arrive(std::uint32_t router, std::uint32_t port,
                            const LinkTransfer& transfer, Cycle now,
                            Shard& shard);
  /// The serial section between the phases: sources generate into NICs,
  /// shaped flits are released, ECN factors recover, pause frames land.
  void generate_traffic(Cycle now, bool measure);
  void apply_pause_frames(Cycle now);
  /// Phase B for one router: scheduling step, credit returns, forwards and
  /// host delivery, traced and accounted in place.
  void router_cycle(std::uint32_t r, Cycle now, bool measure, Shard& shard);
  /// The serial section closing a cycle: watchdog, audit sweeps, credit
  /// resync.
  void close_cycle(Cycle now);
  void account_delivery(const MmrRouter::Departure& departure,
                        Cycle delivered_at, bool measure,
                        DeliveryTally& tally);
  /// Where `shard` accounts: its own tally when sharded, else the
  /// collector's.
  [[nodiscard]] DeliveryTally& tally_of(Shard& shard) {
    return pool_ ? shard.tally : collector_.tally();
  }
  /// Folds every shard's tally into the collector's (sharded runs).
  void fold_tallies();
  /// Fault accounting of the serial sections.
  [[nodiscard]] DegradationMetrics& fault_metrics() {
    return collector_.tally().fault;
  }

  /// Entry hop of a connection's live path.
  [[nodiscard]] const Hop& first_hop(ConnectionId connection) const {
    return workload_.connections[connection].first_hop();
  }
  [[nodiscard]] std::size_t port_index(std::uint32_t router,
                                       std::uint32_t port) const {
    return static_cast<std::size_t>(router) * config_.ports + port;
  }
  /// The host or channel feeding input (router, port).
  [[nodiscard]] Host& host_at(std::uint32_t router, std::uint32_t port);
  [[nodiscard]] Channel& channel_into(std::uint32_t router, std::uint32_t port);
  [[nodiscard]] TrafficClass loss_class(const Flit& flit) const;
  void apply_ecn_factor(ConnectionId connection);

  // Fault handling (unreachable when fault_ is null).
  /// A connection's table entry seen from one hop's router (the VC is
  /// assigned when the router's table registers it).
  [[nodiscard]] ConnectionDescriptor hop_descriptor(ConnectionId connection,
                                                    const Hop& hop) const;
  void install_path(const std::vector<Hop>& path);

  // Eligibility masks (one per router; see MmrRouter::eligibility()).
  /// Re-derives the credit bit fed by (channel, downstream_vc).
  void refresh_credit_bit(std::uint32_t channel, std::uint32_t downstream_vc);
  /// Re-derives the blocked bit of the output feeding `channel`.
  void refresh_gate(std::uint32_t channel);
  /// Rebuilds every mask and the upstream map from the simulation state
  /// (construction, fault-plan install, checkpoint load).
  void refresh_eligibility();
  void apply_fault_transitions(Cycle now);
  void tear_down(std::uint32_t connection, Cycle now);
  [[nodiscard]] bool try_readmit(std::uint32_t connection);
  void credit_resync(Cycle now);

  SimConfig config_;
  Workload workload_;
  /// Per-router connection tables (re-admission registers new paths).
  std::vector<ConnectionTable> tables_;
  std::vector<Node> nodes_;
  std::vector<Channel> channels_;
  std::vector<Host> hosts_;
  std::vector<PortMap> ports_;  ///< per (router, port)
  /// Per (router, input, vc): where its flits go next.
  std::vector<NextHop> next_hops_;
  /// Per (channel, downstream vc): the inverse of next_hops_.
  std::vector<UpstreamVc> upstream_vcs_;
  MetricsCollector collector_;
  double generated_load_nominal_;

  /// When each source next emits.
  EmissionWheel wheel_;

  DepartureObserver observer_;
  std::unique_ptr<FaultRuntime> fault_;  ///< null = fault-free run
  std::unique_ptr<trace::Tracer> tracer_;  ///< set when trace= is present
  std::unique_ptr<snapshot::SnapshotManager> snap_mgr_;  ///< snap= present

  // Overload protection (set only when police= / rogue= are present).
  std::unique_ptr<overload::InjectionPolicer> policer_;
  std::unique_ptr<overload::SaturationWatchdog> watchdog_;
  std::vector<ConnectionId> rogue_ids_;
  std::vector<char> is_rogue_;  ///< per-connection flag (empty = none)
  double qos_deadline_cycles_ = kQosDeadlineCycles;  ///< violation split
  DelayStats shape_delay_us_;
  std::vector<Flit> release_buffer_;

  std::unique_ptr<mmu::EcnReactor> ecn_;  ///< flow=shared with marking
  std::vector<ConnectionId> ecn_changed_;  ///< recovery scratch

  /// One shard for the serial loop; net_threads >= 2 on a multi-router
  /// topology adds the worker pool and one shard per worker.
  std::vector<Shard> shards_;
  std::unique_ptr<ThreadPool> pool_;

  Cycle now_ = 0;
  bool ran_ = false;
  std::vector<Flit> flit_buffer_;
};

}  // namespace mmr

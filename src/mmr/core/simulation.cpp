#include "mmr/core/simulation.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "mmr/arbiter/factory.hpp"
#include "mmr/audit/sim_auditor.hpp"
#include "mmr/mmu/mmu.hpp"
#include "mmr/overload/policer.hpp"
#include "mmr/overload/rogue_apply.hpp"
#include "mmr/overload/watchdog.hpp"
#include "mmr/perf/probe.hpp"
#include "mmr/qos/rounds.hpp"
#include "mmr/sim/assert.hpp"
#include "mmr/sim/thread_pool.hpp"
#include "mmr/snapshot/format.hpp"
#include "mmr/snapshot/manager.hpp"
#include "mmr/snapshot/signals.hpp"
#include "mmr/snapshot/spec.hpp"
#include "mmr/snapshot/walker.hpp"
#include "mmr/trace/event.hpp"
#include "mmr/trace/tracer.hpp"

// One simulated cycle runs two parallel phases between serial sections:
//
//   0  serial   fault transitions (teardown/reroute walk global state)
//   A  shards   credit ticks + channel and NIC-link arrivals, MMU admission
//      barrier  ECN marks reach their connections' reactors and sources
//   1  serial   traffic generation off the global emission heap, shaped
//               releases, ECN recovery, Xon/Xoff frames land
//   B  shards   NIC sends + router scheduling cycles, credit returns,
//               forwards, host delivery and its accounting
//   2  serial   watchdog, audit sweeps, credit resync
//
// Both phases walk routers in ascending order, each router's input or
// output ports in ascending order.  The serial loop is one shard covering
// the whole fabric, run inline.  With `net_threads >= 2` routers are split
// into contiguous shards; a shard owns its routers, the hosts attached to
// them and the channels they receive.
// Determinism — the sharded loop is BIT-identical to the serial one:
//   * Delivery accounting is integer (sim/cycle_stats.hpp), so its merges
//     are exact.  Each shard accounts into its own DeliveryTally, folded
//     into the collector's before a snapshot walk or finalize; a
//     connection's own counters are written only by its sink router's
//     shard.
//   * Cross-shard effects (ECN source throttles; Xon/Xoff frames, which may
//     gate an upstream router in another shard) are queued per shard or per
//     router and applied in a serial section.
//   * Fault draws: each channel's streams are drawn only by its receiving
//     router's shard (arrivals in phase A, credit returns in phase B).
//   * Trace bytes: each shard emits into a private staging tracer; at each
//     barrier the staged streams are replayed in shard order — exactly the
//     serial emission order.
//   * Data races: none.  CreditManager::consume writes only `credits_` (the
//     sending shard, phase B), release() appends only to `pending_` (the
//     receiving shard), tick() applies pending->credits in phase A.  A
//     router's eligibility mask is written only by its own shard: returns
//     that lift a count off zero are listed on the channel in phase A and
//     drained into the sending router's mask at its phase-B start; every
//     other mask event happens in phase B by that router or serially.
// Across cycles a shard holds only its tally, which every snapshot walk
// folds first, so snapshots, state hashes and resume behaviour are
// identical across thread counts.

namespace mmr {

namespace {

constexpr Cycle kInvariantCheckPeriod = 1 << 16;

std::uint32_t count_local(const NetworkTopology& topology, bool inputs) {
  std::uint32_t count = 0;
  for (std::uint32_t r = 0; r < topology.routers(); ++r)
    count += static_cast<std::uint32_t>(
        inputs ? topology.local_input_ports(r).size()
               : topology.local_output_ports(r).size());
  return count;
}

}  // namespace

void validate_specs(const SimConfig& config) {
  config.validate();
  (void)make_arbiter(config.arbiter, config.ports, Rng(config.seed, 0));
  const SimConfig built = MmrSimulation::with_flow_regime(config);
  built.validate();
  if (!config.police_spec.empty())
    (void)overload::PoliceSpec::parse(config.police_spec);
  if (!config.rogue_spec.empty())
    (void)overload::RogueSpec::parse(config.rogue_spec);
  (void)QdSpec::parse(config.qd_spec);
  if (!config.trace_spec.empty())
    (void)trace::TraceSpec::parse(config.trace_spec);
  (void)FaultPlan::parse(config.fault_spec);
  if (config.snap_spec.empty()) return;
  const snapshot::SnapSpec snap = snapshot::SnapSpec::parse(config.snap_spec);
  if (!snap.resume.empty() && snapshot::load_file(snap.resume).config_digest !=
                                  snapshot::config_digest(built))
    throw std::invalid_argument(
        "snapshot " + snap.resume +
        " was captured under a different configuration (config digest "
        "mismatch); resume with the same seed/arbiter/traffic setup");
}

SimConfig MmrSimulation::with_flow_regime(SimConfig config) {
  if (config.flow_spec.empty()) return config;
  // Parsed eagerly, so a malformed spec fails before anything is built
  // (resolve() never reads buffer_flits_per_vc, so the order is safe).
  const mmu::MmuSpec spec = mmu::MmuSpec::parse(config.flow_spec);
  if (spec.mode == mmu::FlowMode::kShared)
    config.buffer_flits_per_vc = spec.resolve(config).vc_slots();
  return config;
}

MmrSimulation::MmrSimulation(SimConfig config, Workload workload)
    : config_(with_flow_regime(std::move(config))),
      workload_(std::move(workload)),
      collector_(workload_.table, config_,
                 count_local(workload_.topology, /*inputs=*/true),
                 count_local(workload_.topology, /*inputs=*/false)),
      generated_load_nominal_(
          workload_.generated_load(config_.time_base())),
      shape_delay_us_(config_.time_base().flit_cycle_us()) {
  config_.validate();
  workload_.check_invariants();
  const NetworkTopology& topology = workload_.topology;
  MMR_ASSERT(topology.ports_per_router() == config_.ports);
  const std::uint32_t routers = topology.routers();
  const std::size_t port_slots = static_cast<std::size_t>(routers) *
                                 config_.ports;

  // Rogue wrapping precedes the emission heap, which indexes the wrapped
  // sources; it never changes mean_bps(), so the nominal load stands.
  if (!config_.rogue_spec.empty()) {
    rogue_ids_ = overload::apply_rogue(
        workload_, overload::RogueSpec::parse(config_.rogue_spec));
    is_rogue_.assign(workload_.size(), 0);
    for (const ConnectionId id : rogue_ids_) is_rogue_[id] = 1;
  }

  // Channels, then hosts on local input ports (router-ascending, so every
  // shard's hosts form one contiguous index range).
  ports_.resize(port_slots);
  channels_.reserve(topology.channels());
  for (std::uint32_t r = 0; r < routers; ++r) {
    for (std::uint32_t p = 0; p < config_.ports; ++p) {
      const auto down = topology.downstream(r, p);
      if (!down.has_value()) continue;
      const auto channel = static_cast<std::int32_t>(channels_.size());
      ports_[port_index(r, p)].out_channel = channel;
      ports_[port_index(down->router, down->port)].in_channel = channel;
      channels_.push_back(Channel{
          PortEndpoint{r, p}, *down, false,
          CreditManager(config_.vcs_per_link, config_.buffer_flits_per_vc,
                        config_.credit_latency),
          LinkPipeline(config_.link_latency)});
    }
  }
  const std::uint32_t local_inputs = count_local(topology, /*inputs=*/true);
  hosts_.reserve(local_inputs);
  for (std::uint32_t r = 0; r < routers; ++r) {
    for (std::uint32_t p : topology.local_input_ports(r)) {
      ports_[port_index(r, p)].host = static_cast<std::int32_t>(hosts_.size());
      hosts_.push_back(Host{Nic(config_.vcs_per_link,
                                config_.buffer_flits_per_vc,
                                config_.credit_latency),
                            LinkPipeline(config_.link_latency)});
    }
  }

  // Per-router tables: one entry per hop in (connection, hop) order,
  // reproducing the reservation (on one router, the workload's own table).
  tables_.assign(routers, ConnectionTable(config_.ports));
  for (const NetworkConnection& connection : workload_.connections) {
    for (const Hop& hop : connection.path) {
      const ConnectionId local_id = tables_[hop.router].add(
          hop_descriptor(connection.id, hop), config_.vcs_per_link);
      MMR_ASSERT_MSG(tables_[hop.router].get(local_id).vc == hop.vc,
                     "table VC assignment must match the reservation");
    }
  }

  // Routers.  One router keeps the paper setup's RNG lane; routed
  // topologies fork one lane per router.
  const mmu::MmuSpec flow = config_.flow_spec.empty()
                                ? mmu::MmuSpec{}
                                : mmu::MmuSpec::parse(config_.flow_spec);
  nodes_.reserve(routers);
  for (std::uint32_t r = 0; r < routers; ++r) {
    const Rng rng = routers == 1 ? Rng(config_.seed, 0xA0)
                                 : Rng(config_.seed, 0x4E7).fork(r);
    nodes_.push_back(Node{MmrRouter(config_, tables_[r], rng), nullptr,
                          nullptr, {}});
    Node& node = nodes_.back();
    if (flow.mode == mmu::FlowMode::kShared)
      node.mmu = std::make_unique<mmu::SharedBufferMmu>(flow, config_, r);
    if (config_.audit_every == 0) continue;
    std::vector<audit::SimAuditor::Feed> feeds;
    for (std::uint32_t p = 0; p < config_.ports; ++p) {
      if (ports_[port_index(r, p)].host != -1) {
        const Host& host = host_at(r, p);
        feeds.push_back({&host.nic.credits(), &host.link, &host.nic});
      } else {
        const Channel& channel = channel_into(r, p);
        feeds.push_back({&channel.credits, &channel.pipe, nullptr});
      }
    }
    node.auditor =
        std::make_unique<audit::SimAuditor>(config_, std::move(feeds));
  }

  // Next hops, and with them each router's eligibility mask: a router
  // offers a VC only when its next hop can take the flit.  One-hop paths
  // deliver locally, so a one-router mask stays open.
  next_hops_.resize(port_slots * config_.vcs_per_link);
  upstream_vcs_.resize(channels_.size() * config_.vcs_per_link);
  for (const NetworkConnection& connection : workload_.connections)
    install_path(connection.path);

  if (!config_.police_spec.empty()) {
    const auto spec = overload::PoliceSpec::parse(config_.police_spec);
    qos_deadline_cycles_ = spec.qos_deadline_cycles;
    policer_ = std::make_unique<overload::InjectionPolicer>(workload_.table,
                                                            config_, spec);
    if (spec.wd_window > 0)
      watchdog_ =
          std::make_unique<overload::SaturationWatchdog>(spec, local_inputs);
  }
  if (nodes_.front().mmu && nodes_.front().mmu->spec().ecn)
    ecn_ = std::make_unique<mmu::EcnReactor>(workload_.size(),
                                             nodes_.front().mmu->spec());

  for (std::uint32_t i = 0; i < workload_.sources.size(); ++i) {
    const Cycle next = workload_.sources[i]->next_emission();
    if (next != kNever) heap_.emplace(next, i);
  }

  if (!config_.fault_spec.empty())
    set_fault_plan(FaultPlan::parse(config_.fault_spec));

  if (!config_.trace_spec.empty())
    tracer_ = std::make_unique<trace::Tracer>(
        trace::TraceSpec::parse(config_.trace_spec),
        trace::TraceMeta::from_config(config_));

  // Shards: balanced contiguous router ranges [s*R/S, (s+1)*R/S).
  const std::uint32_t shard_count =
      config_.net_threads >= 2 && routers >= 2
          ? std::min(config_.net_threads, routers)
          : 1;
  shards_.resize(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    shards_[s].router_begin = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(routers) * s / shard_count);
    shards_[s].router_end = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(routers) * (s + 1) / shard_count);
  }
  if (shard_count >= 2) {
    pool_ = std::make_unique<ThreadPool>(shard_count);
    for (Shard& shard : shards_) shard.tally = collector_.empty_tally();
  }

  // Last: every subsystem the walk visits must already exist before a
  // `resume:` checkpoint is overlaid.
  if (!config_.snap_spec.empty()) {
    const snapshot::SnapSpec spec =
        snapshot::SnapSpec::parse(config_.snap_spec);
    snap_mgr_ = std::make_unique<snapshot::SnapshotManager>(
        spec, snapshot::config_digest(config_));
    if (!spec.resume.empty()) restore_checkpoint(spec.resume);
  }
}

MmrSimulation::~MmrSimulation() = default;

ConnectionDescriptor MmrSimulation::hop_descriptor(ConnectionId connection,
                                                   const Hop& hop) const {
  ConnectionDescriptor descriptor = workload_.table.get(connection);
  descriptor.input_link = hop.in_port;
  descriptor.output_link = hop.out_port;
  return descriptor;
}

void MmrSimulation::install_path(const std::vector<Hop>& path) {
  for (std::size_t h = 0; h < path.size(); ++h) {
    const Hop& hop = path[h];
    NextHop& next = next_hops_[port_index(hop.router, hop.in_port) *
                                   config_.vcs_per_link +
                               hop.vc];
    next.local = h + 1 == path.size();
    if (next.local) {
      // Last-hop VCs are always eligible.
      nodes_[hop.router].router.eligibility().set_credit(hop.in_port, hop.vc,
                                                         true);
      continue;
    }
    const std::int32_t channel = channel_at(hop.router, hop.out_port);
    MMR_ASSERT(channel != -1);
    next.channel = static_cast<std::uint32_t>(channel);
    next.downstream_vc = path[h + 1].vc;
    upstream_vcs_[static_cast<std::size_t>(next.channel) *
                      config_.vcs_per_link +
                  next.downstream_vc] = {hop.in_port, hop.vc};
    refresh_credit_bit(next.channel, next.downstream_vc);
  }
}

void MmrSimulation::refresh_credit_bit(std::uint32_t channel,
                                       std::uint32_t downstream_vc) {
  const UpstreamVc& up =
      upstream_vcs_[static_cast<std::size_t>(channel) * config_.vcs_per_link +
                    downstream_vc];
  if (up.input == UpstreamVc::kNoInput) return;  // no path uses the VC
  const Channel& c = channels_[channel];
  nodes_[c.from.router].router.eligibility().set_credit(
      up.input, up.vc, c.credits.has_credit(downstream_vc));
}

void MmrSimulation::refresh_gate(std::uint32_t channel) {
  const Channel& c = channels_[channel];
  nodes_[c.from.router].router.eligibility().set_blocked(
      c.from.port, c.paused || (fault_ && fault_->injector.is_down(channel)));
}

void MmrSimulation::refresh_eligibility() {
  std::fill(upstream_vcs_.begin(), upstream_vcs_.end(), UpstreamVc{});
  const std::uint32_t vcs = config_.vcs_per_link;
  for (std::uint32_t r = 0; r < nodes_.size(); ++r) {
    EligibilityMask& mask = nodes_[r].router.eligibility();
    for (std::uint32_t p = 0; p < config_.ports; ++p) {
      for (std::uint32_t vc = 0; vc < vcs; ++vc) {
        const NextHop& next = next_hop(r, p, vc);
        if (next.local) {
          mask.set_credit(p, vc, true);
          continue;
        }
        upstream_vcs_[static_cast<std::size_t>(next.channel) * vcs +
                      next.downstream_vc] = {p, vc};
        const CreditManager& credits = channels_[next.channel].credits;
        mask.set_credit(p, vc, credits.has_credit(next.downstream_vc));
      }
    }
  }
  for (std::uint32_t ch = 0; ch < channels_.size(); ++ch) refresh_gate(ch);
}

MmrSimulation::ChannelGate MmrSimulation::channel_gate(
    std::uint32_t channel) const {
  MMR_ASSERT(channel < channels_.size());
  const Channel& c = channels_[channel];
  return {&c.credits, c.paused, fault_ && fault_->injector.is_down(channel)};
}

const MmrRouter& MmrSimulation::router(std::uint32_t index) const {
  MMR_ASSERT(index < nodes_.size());
  return nodes_[index].router;
}

const audit::SimAuditor* MmrSimulation::auditor() const {
  return nodes_.front().auditor.get();
}

std::int32_t MmrSimulation::channel_at(std::uint32_t router,
                                       std::uint32_t out_port) const {
  MMR_ASSERT(router < workload_.topology.routers() &&
             out_port < config_.ports);
  return ports_[port_index(router, out_port)].out_channel;
}

std::uint64_t MmrSimulation::backlog() const {
  std::uint64_t total = 0;
  for (const Node& node : nodes_) total += node.router.flits_buffered();
  for (const Host& host : hosts_)
    total += host.nic.total_queued() - host.nic.total_sent() +
             host.link.in_flight();
  for (const Channel& channel : channels_) total += channel.pipe.in_flight();
  if (policer_) total += policer_->penalty_backlog();
  return total;
}

// --- one simulated cycle -----------------------------------------------------

template <class Fn>
void MmrSimulation::for_each_shard(trace::Tracer* cycle_tracer, Fn&& fn) {
  if (!pool_) {
    fn(shards_.front());
    return;
  }
  const bool staged = trace::kCompiledIn && cycle_tracer != nullptr;
  for (Shard& shard : shards_) {
    if (staged) {
      if (!shard.staging) {
        trace::TraceSpec spec;
        spec.mode = trace::TraceSpec::Mode::kStream;
        spec.limit = std::numeric_limits<std::uint64_t>::max();
        shard.staging =
            std::make_unique<trace::Tracer>(spec, cycle_tracer->meta());
      }
      shard.staging->set_now(now_);
      shard.staging->set_node(0);
    }
    pool_->submit([&shard, &fn, staged] {
      const trace::TraceScope arm(staged ? shard.staging.get() : nullptr);
      fn(shard);
    });
  }
  pool_->wait_idle();
  if (!staged) return;
  // Shards are contiguous and stepped router by router, so their streams
  // concatenated in shard order are the serial emission order.  emit()
  // re-stamps the node, so mirror each staged event's stamp first.
  for (Shard& shard : shards_) {
    for (const trace::Event& event : shard.staging->stream_events()) {
      cycle_tracer->set_node(event.node);
      cycle_tracer->emit(event);
    }
    shard.staging->clear_stream();
  }
}

void MmrSimulation::step_one() {
  const Cycle now = now_;
  const bool measure = now >= config_.warmup_cycles;

  // Arm this simulation's tracer (or keep an externally armed one, as
  // perf::ProbeScope does); its clock stamps clock-less call sites.
  trace::Tracer* const tracer =
      tracer_ != nullptr ? tracer_.get() : trace::current();
  const trace::TraceScope trace_scope(tracer);
  if (tracer != nullptr) {
    tracer->set_now(now);
    tracer->set_node(0);
  }

  // 0. Outage schedule: link transitions, teardowns, re-admissions.
  if (fault_) apply_fault_transitions(now);

  // A. Returned credits land; flits whose link transfer completes enter
  // their VCM — gated, under flow=shared, by the router's MMU.
  for_each_shard(tracer, [this, now](Shard& shard) {
    MMR_PERF_SCOPE(perf::Phase::kCredits);
    for (std::uint32_t r = shard.router_begin; r < shard.router_end; ++r)
      for (std::uint32_t p = 0; p < config_.ports; ++p)
        input_arrivals(r, p, now, shard);
  });
  for (Shard& shard : shards_) {
    for (const ConnectionId connection : shard.ecn_marks)
      if (ecn_->on_mark(connection)) apply_ecn_factor(connection);
    shard.ecn_marks.clear();
  }

  // 1. Sources generate into their NICs; pause frames take effect.
  generate_traffic(now, measure);
  if (ecn_) {
    // ECN recovery: factors step back towards 1.0 once per window.
    ecn_changed_.clear();
    ecn_->on_cycle(now, ecn_changed_);
    for (const ConnectionId connection : ecn_changed_)
      apply_ecn_factor(connection);
  }
  if (nodes_.front().mmu) apply_pause_frames(now);

  // B. Each NIC's link controller forwards at most one flit; each router
  // runs one scheduling cycle.
  for_each_shard(tracer, [this, now, measure](Shard& shard) {
    for (std::uint32_t r = shard.router_begin; r < shard.router_end; ++r) {
      {
        MMR_PERF_SCOPE(perf::Phase::kCredits);
        for (std::uint32_t p = 0; p < config_.ports; ++p) {
          const PortMap& port = ports_[port_index(r, p)];
          if (port.out_channel != -1) {
            // Credits phase A returned to this router's outputs.
            const auto oc = static_cast<std::uint32_t>(port.out_channel);
            for (const std::uint32_t vc : channels_[oc].refilled)
              refresh_credit_bit(oc, vc);
            channels_[oc].refilled.clear();
          }
          if (port.host == -1) continue;
          Host& host = hosts_[static_cast<std::size_t>(port.host)];
          if (auto transfer = host.nic.select_and_send(now))
            host.link.push(*transfer, now);
        }
      }
      router_cycle(r, now, measure, shard);
    }
  });

  // 2. Barrier bookkeeping.
  close_cycle(now);
  ++now_;
}

void MmrSimulation::input_arrivals(std::uint32_t r, std::uint32_t p, Cycle now,
                                   Shard& shard) {
  const PortMap& port = ports_[port_index(r, p)];
  Host* const host =
      port.host != -1 ? &hosts_[static_cast<std::size_t>(port.host)] : nullptr;
  Channel* const channel =
      host == nullptr ? &channels_[static_cast<std::size_t>(port.in_channel)]
                      : nullptr;
  shard.arrivals.clear();
  if (host != nullptr) {
    host->link.pop_due(now, shard.arrivals);
  } else {
    channel->credits.tick(now, &channel->refilled);
    channel->pipe.pop_due(now, shard.arrivals);
  }
  MMR_TRACE_SET_NODE(r);
  const auto ci = static_cast<std::uint32_t>(port.in_channel);
  for (const LinkTransfer& transfer : shard.arrivals) {
    if (channel != nullptr && fault_) {
      // A dropped or corrupt (CRC-failed) flit is discarded here; its
      // credit leaks until the resync watchdog repairs it.
      if (fault_->injector.drop_flit(ci)) {
        ++tally_of(shard).fault.flits_dropped;
        MMR_TRACE_EVENT(
            trace::fault_event(now, trace::FaultKind::kFlitDrop, ci));
        continue;
      }
      if (fault_->injector.corrupt_flit(ci)) {
        ++tally_of(shard).fault.flits_corrupted;
        MMR_TRACE_EVENT(
            trace::fault_event(now, trace::FaultKind::kFlitCorrupt, ci));
        continue;
      }
    }
    if (arrive(r, p, transfer, now, shard)) continue;
    if (host != nullptr) {
      host->nic.return_credit(transfer.vc, now);
    } else {
      channel->credits.release(transfer.vc, now);
    }
  }
}

bool MmrSimulation::arrive(std::uint32_t router, std::uint32_t port,
                           const LinkTransfer& transfer, Cycle now,
                           Shard& shard) {
  Node& node = nodes_[router];
  if (node.mmu) {
    const Flit& flit = transfer.flit;
    const auto admit = node.mmu->admit(port, loss_class(flit), now);
    if (admit.pool == mmu::AdmitPool::kDropped) {
      // The VCM slot this flit was charged a credit for stays free; the
      // caller returns the credit so the upstream ledger keeps balancing.
      MMR_TRACE_EVENT(trace::mmu_drop_event(now, port, transfer.vc,
                                            flit.connection, flit.seq,
                                            node.mmu->occupancy()));
      return false;
    }
    if (admit.marked) {
      MMR_TRACE_EVENT(trace::ecn_mark_event(now, port, transfer.vc,
                                            flit.connection, flit.seq,
                                            node.mmu->shared_used()));
      if (ecn_) shard.ecn_marks.push_back(flit.connection);
    }
    if (admit.fire_xoff) {
      const Cycle effective = now + config_.credit_latency;
      node.pause_frames.push_back({effective, port, /*xoff=*/true});
      MMR_TRACE_EVENT(trace::mmu_pause_event(
          now, port, node.mmu->port_usage(port), effective));
    }
  }
  node.router.accept(port, transfer.vc, transfer.flit, now);
  return true;
}

MmrSimulation::Host& MmrSimulation::host_at(std::uint32_t router,
                                            std::uint32_t port) {
  const std::int32_t host = ports_[port_index(router, port)].host;
  MMR_ASSERT(host != -1);
  return hosts_[static_cast<std::size_t>(host)];
}

MmrSimulation::Channel& MmrSimulation::channel_into(std::uint32_t router,
                                                    std::uint32_t port) {
  const std::int32_t channel = ports_[port_index(router, port)].in_channel;
  MMR_ASSERT(channel != -1);
  return channels_[static_cast<std::size_t>(channel)];
}

void MmrSimulation::generate_traffic(Cycle now, bool measure) {
  MMR_PERF_SCOPE(perf::Phase::kTraffic);
  while (!heap_.empty() && heap_.top().first <= now) {
    const std::uint32_t index = heap_.top().second;
    heap_.pop();
    TrafficSource& source = *workload_.sources[index];
    flit_buffer_.clear();
    source.generate(now, flit_buffer_);
    const Hop first = first_hop(index);
    // A fault-dropped connection's source keeps producing (counted against
    // survival) while it waits for re-admission, but nothing is queued.
    const bool disconnected =
        fault_ && fault_->state[index] == FaultRuntime::ConnState::kDropped;
    MMR_TRACE_SET_NODE(first.router);
    for (const Flit& flit : flit_buffer_) {
      collector_.on_generated(flit.connection, flit.generated_at);
      if (disconnected) {
        ++fault_metrics().source_flits_discarded;
        continue;
      }
      const overload::Verdict verdict = policer_ == nullptr
                                            ? overload::Verdict::kPass
                                            : policer_->police(flit, now);
      if (verdict == overload::Verdict::kPass ||
          verdict == overload::Verdict::kDemoted) {
        // Demoted excess rides at best-effort priority.
        Flit queued = flit;
        queued.demoted = verdict == overload::Verdict::kDemoted;
        host_at(first.router, first.in_port).nic.deposit(first.vc, queued);
        if (queued.demoted)
          MMR_TRACE_EVENT(trace::police_event(
              now, first.in_port, first.vc, flit.connection, flit.seq,
              trace::PoliceAction::kDemoted));
        MMR_TRACE_EVENT(trace::inject_event(now, first.in_port, first.vc,
                                            flit.connection, flit.seq,
                                            queued.demoted));
        continue;
      }
      if (!MMR_TRACE_ON()) continue;
      // Shaped flits wait in the penalty queue.  A drop's reason is what
      // the policer tallied: a watchdog shed (best effort while shedding),
      // a full penalty queue (QoS under shape) or a contract drop.
      const bool qos = workload_.table.get(index).is_qos();
      trace::PoliceAction action = trace::PoliceAction::kDropped;
      if (verdict == overload::Verdict::kShaped) {
        action = trace::PoliceAction::kShaped;
      } else if (!qos && policer_->shedding()) {
        action = trace::PoliceAction::kShed;
      } else if (qos && policer_->spec().policy ==
                            overload::OverloadPolicy::kShape) {
        action = trace::PoliceAction::kPenaltyOverflow;
      }
      MMR_TRACE_EVENT(trace::police_event(now, first.in_port, first.vc,
                                          flit.connection, flit.seq, action));
    }
    const Cycle next = source.next_emission();
    if (next != kNever) {
      MMR_ASSERT_MSG(next > now, "source failed to advance its clock");
      heap_.emplace(next, index);
    }
  }

  // Shaped flits whose tokens have accrued enter their NIC now.
  if (!policer_) return;
  release_buffer_.clear();
  policer_->release_due(now, release_buffer_);
  for (const Flit& flit : release_buffer_) {
    if (fault_ && fault_->state[flit.connection] ==
                      FaultRuntime::ConnState::kDropped) {
      ++fault_metrics().source_flits_discarded;
      continue;
    }
    const Hop first = first_hop(flit.connection);
    MMR_TRACE_SET_NODE(first.router);
    host_at(first.router, first.in_port).nic.deposit(first.vc, flit);
    MMR_TRACE_EVENT(trace::shape_release_event(now, first.in_port, first.vc,
                                               flit.connection, flit.seq,
                                               now - flit.generated_at));
    if (measure && flit.generated_at >= config_.warmup_cycles) {
      shape_delay_us_.add(now - flit.generated_at);
    }
  }
}

void MmrSimulation::apply_pause_frames(Cycle now) {
  MMR_PERF_SCOPE(perf::Phase::kCredits);
  for (std::uint32_t r = 0; r < nodes_.size(); ++r) {
    std::deque<PauseFrame>& frames = nodes_[r].pause_frames;
    while (!frames.empty() && frames.front().effective_at <= now) {
      const PauseFrame frame = frames.front();
      frames.pop_front();
      // A host link pauses its NIC; a channel gates the upstream router's
      // link scheduler through its eligibility check.
      const PortMap& port = ports_[port_index(r, frame.port)];
      if (port.host != -1) {
        host_at(r, frame.port).nic.set_paused(frame.xoff);
      } else {
        const auto ci = static_cast<std::uint32_t>(port.in_channel);
        channels_[ci].paused = frame.xoff;
        refresh_gate(ci);
      }
    }
  }
}

void MmrSimulation::router_cycle(std::uint32_t r, Cycle now, bool measure,
                                 Shard& shard) {
  Node& node = nodes_[r];
  MMR_TRACE_SET_NODE(r);
  shard.departures.clear();
  node.router.step(now, measure, shard.departures);

  // Departures complete at now + 1 (one flit time through the switch and
  // output link) and their credits head back upstream.
  MMR_PERF_SCOPE(perf::Phase::kMetrics);
  for (const MmrRouter::Departure& departure : shard.departures) {
    const std::size_t in = port_index(r, departure.input);
    const PortMap& port = ports_[in];
    bool credit_returned = true;
    if (port.host != -1) {
      hosts_[static_cast<std::size_t>(port.host)].nic.return_credit(
          departure.vc, now);
    } else {
      const auto up = static_cast<std::uint32_t>(port.in_channel);
      if (fault_ && fault_->injector.lose_credit(up)) {
        ++tally_of(shard).fault.credits_lost;  // the watchdog restores it
        credit_returned = false;
        MMR_TRACE_EVENT(
            trace::fault_event(now, trace::FaultKind::kCreditLoss, up));
      } else {
        channels_[up].credits.release(departure.vc, now);
      }
    }
    if (node.mmu) {
      const auto released = node.mmu->release(
          departure.input, loss_class(departure.flit), now);
      if (released.fire_xon) {
        const Cycle effective = now + config_.credit_latency;
        node.pause_frames.push_back(
            {effective, departure.input, /*xoff=*/false});
        MMR_TRACE_EVENT(trace::mmu_resume_event(
            now, departure.input, node.mmu->port_usage(departure.input),
            released.paused_cycles));
      }
    }

    const NextHop& next = next_hops_[in * config_.vcs_per_link + departure.vc];
    const Flit& flit = departure.flit;
    if (!next.local) {
      if (credit_returned)
        MMR_TRACE_EVENT(
            trace::credit_return_event(now, departure.input, departure.vc));
      Channel& channel = channels_[next.channel];
      channel.credits.consume(next.downstream_vc);
      if (!channel.credits.has_credit(next.downstream_vc))
        node.router.eligibility().set_credit(departure.input, departure.vc,
                                             false);
      channel.pipe.push(LinkTransfer{flit, next.downstream_vc}, now);
      continue;
    }
    if (MMR_TRACE_ON()) {
      const std::uint64_t delay = now + 1 - flit.generated_at;
      MMR_TRACE_EVENT(trace::deliver_event(now, departure.input,
                                           departure.output, departure.vc,
                                           flit.connection, flit.seq, delay));
      if (credit_returned)
        MMR_TRACE_EVENT(
            trace::credit_return_event(now, departure.input, departure.vc));
      if (workload_.table.get(flit.connection).is_qos() &&
          static_cast<double>(delay) > qos_deadline_cycles_) {
        MMR_TRACE_EVENT(trace::deadline_miss_event(now, departure.input,
                                                   departure.vc,
                                                   flit.connection, flit.seq,
                                                   delay));
      }
    }
    account_delivery(departure, now + 1, measure, tally_of(shard));
  }
  if (node.mmu) node.mmu->on_cycle(now);
  if (node.auditor) node.auditor->on_departures(now, node.router,
                                                shard.departures);
}

void MmrSimulation::close_cycle(Cycle now) {
  MMR_PERF_SCOPE(perf::Phase::kMetrics);
  // Fabric-wide events carry node 0; the register (part of the snapshot
  // walk) then no longer depends on which shard emitted last.
  MMR_TRACE_SET_NODE(0);

  if (watchdog_) {
    const std::uint64_t sample =
        watchdog_->wants_sample(now) ? backlog() : 0;
    watchdog_->on_cycle(now, sample, *policer_);
    if (nodes_.front().mmu) {
      Cycle longest = 0;
      for (const Node& node : nodes_)
        longest = std::max(longest, node.mmu->longest_open_pause(now));
      watchdog_->on_mmu_pause(now, longest, *policer_);
    }
  }

  if (config_.audit_every > 0 && nodes_.front().auditor->sweep_due(now)) {
    for (std::uint32_t r = 0; r < nodes_.size(); ++r) {
      MMR_TRACE_SET_NODE(r);
      nodes_[r].auditor->sweep(now, nodes_[r].router, nodes_[r].mmu.get(),
                               /*exact=*/fault_ == nullptr);
    }
  }

  // Credit-resync watchdog (periodic conservation audit).
  if (fault_) credit_resync(now);
  if ((now + 1) % kInvariantCheckPeriod == 0) check_invariants();
}

void MmrSimulation::account_delivery(const MmrRouter::Departure& departure,
                                     Cycle delivered_at, bool measure,
                                     DeliveryTally& tally) {
  const Flit& flit = departure.flit;
  // Teardown flushes every flit on a path it replaces, so a delivered flit
  // travelled its connection's current path.
  const std::size_t hops = workload_.connections[flit.connection].path.size();
  collector_.on_delivered(flit, delivered_at,
                          static_cast<std::uint32_t>(hops), tally);
  if (observer_) observer_(departure, delivered_at);

  // Compliant-vs-rogue QoS deadline split (overload accounting only).
  if ((policer_ != nullptr || !rogue_ids_.empty()) && measure &&
      workload_.table.get(flit.connection).is_qos()) {
    const bool violated =
        static_cast<double>(delivered_at - flit.generated_at) >
        qos_deadline_cycles_;
    if (!is_rogue_.empty() && is_rogue_[flit.connection]) {
      ++tally.rogue_delivered;
      if (violated) ++tally.rogue_violations;
    } else {
      ++tally.compliant_delivered;
      if (violated) ++tally.compliant_violations;
    }
  }
  // Deadline violations split by whether any link was down at delivery.
  if (fault_ && delivered_at >= config_.warmup_cycles) {
    DegradationMetrics& d = tally.fault;
    const bool violated =
        static_cast<double>(delivered_at - flit.generated_at) >
        fault_->injector.plan().qos_deadline_cycles;
    if (fault_->injector.any_down()) {
      ++d.delivered_during_fault;
      if (violated) ++d.qos_violations_during_fault;
    } else {
      ++d.delivered_outside_fault;
      if (violated) ++d.qos_violations_outside_fault;
    }
  }
}

TrafficClass MmrSimulation::loss_class(const Flit& flit) const {
  return flit.demoted ? TrafficClass::kBestEffort
                      : workload_.table.get(flit.connection).traffic_class;
}

void MmrSimulation::apply_ecn_factor(ConnectionId connection) {
  const double factor = ecn_->factor(connection);
  workload_.sources[connection]->throttle(factor);
  if (policer_) policer_->set_rate_factor(connection, factor);
}

// --- faults ------------------------------------------------------------------

void MmrSimulation::set_fault_plan(FaultPlan plan) {
  MMR_ASSERT_MSG(!ran_ && now_ == 0,
                 "the fault plan must be installed before the first step");
  const auto channels = static_cast<std::uint32_t>(channels_.size());
  plan.validate(channels);
  if (plan.empty()) {
    fault_.reset();  // strict no-op: not even the machinery exists
    return;
  }
  if (!policer_) qos_deadline_cycles_ = plan.qos_deadline_cycles;

  fault_.reset(new FaultRuntime{FaultInjector(std::move(plan), channels)});
  FaultRuntime& f = *fault_;
  fault_metrics().enabled = true;

  // Mirror every hop's reservation into per-router admission controllers so
  // teardown can release it and re-admission re-check it.  Workloads are
  // built by load targeting, so a hop may exceed the budgets and hold none.
  const RoundAccounting rounds(config_.flit_cycles_per_round(),
                               config_.time_base());
  f.admission.assign(nodes_.size(),
                     AdmissionController(config_.ports, rounds,
                                         config_.concurrency_factor));
  f.state.assign(workload_.size(), FaultRuntime::ConnState::kActive);
  f.dropped_at.assign(workload_.size(), 0);
  f.hop_admitted.resize(workload_.connections.size());
  for (std::size_t c = 0; c < workload_.connections.size(); ++c) {
    const NetworkConnection& connection = workload_.connections[c];
    f.hop_admitted[c].assign(connection.path.size(), false);
    for (std::size_t h = 0; h < connection.path.size(); ++h) {
      ConnectionDescriptor descriptor =
          hop_descriptor(connection.id, connection.path[h]);
      f.hop_admitted[c][h] =
          f.admission[connection.path[h].router].try_admit(descriptor);
    }
  }
  f.leak_since.assign(channels_.size(),
                      std::vector<Cycle>(config_.vcs_per_link, kNever));
  refresh_eligibility();
}

void MmrSimulation::apply_fault_transitions(Cycle now) {
  FaultRuntime& f = *fault_;
  f.went_down.clear();
  f.came_up.clear();
  f.injector.advance_to(now, f.went_down, f.came_up);

  for (const std::uint32_t ch : f.went_down) {
    // Flits on the wire are lost outright; their consumed downstream credits
    // leak until the resync watchdog notices the deficit.
    fault_metrics().flits_dropped += channels_[ch].pipe.drain_all();
    refresh_gate(ch);
  }
  for (const std::uint32_t ch : f.came_up) refresh_gate(ch);
  const auto connections =
      static_cast<std::uint32_t>(workload_.connections.size());
  if (!f.went_down.empty()) {
    for (std::uint32_t c = 0; c < connections; ++c) {
      if (f.state[c] != FaultRuntime::ConnState::kActive) continue;
      const std::vector<Hop>& path = workload_.connections[c].path;
      bool crosses_down_link = false;
      for (std::size_t h = 0; h + 1 < path.size() && !crosses_down_link;
           ++h) {
        const std::int32_t ch = channel_at(path[h].router, path[h].out_port);
        crosses_down_link =
            f.injector.is_down(static_cast<std::uint32_t>(ch));
      }
      if (!crosses_down_link) continue;
      ++fault_metrics().teardowns;
      tear_down(c, now);
      if (try_readmit(c)) {
        ++fault_metrics().reroutes;
      } else {
        f.state[c] = FaultRuntime::ConnState::kDropped;
        f.dropped_at[c] = now;
      }
    }
  }
  if (!f.came_up.empty()) {
    for (std::uint32_t c = 0; c < connections; ++c) {
      if (f.state[c] != FaultRuntime::ConnState::kDropped) continue;
      if (!try_readmit(c)) continue;
      ++fault_metrics().readmissions;
      fault_metrics().recovery_latency_us.add(now - f.dropped_at[c]);
    }
  }
}

void MmrSimulation::tear_down(std::uint32_t connection, Cycle now) {
  FaultRuntime& f = *fault_;
  const NetworkConnection& c = workload_.connections[connection];
  const std::vector<Hop>& path = c.path;

  // Every flushed flit's credit is settled synchronously, so only genuine
  // wire losses are left for the resync watchdog to repair.
  Host& host = host_at(path.front().router, path.front().in_port);
  const std::uint32_t on_nic_link = host.link.drain_vc(path.front().vc);
  fault_metrics().flits_flushed += on_nic_link;
  for (std::uint32_t i = 0; i < on_nic_link; ++i)
    host.nic.return_credit(path.front().vc, now);

  for (std::size_t h = 0; h < path.size(); ++h) {
    const Hop& hop = path[h];
    Node& node = nodes_[hop.router];
    const std::vector<Flit> in_vcm =
        node.router.drain_vc(hop.in_port, hop.vc, now);
    fault_metrics().flits_flushed += in_vcm.size();
    for (const Flit& flit : in_vcm) {
      if (node.mmu) {
        // Flushed flits leave the shared pool under the class they were
        // charged to; a resume this frees travels like any other.
        if (node.mmu->release(hop.in_port, loss_class(flit), now).fire_xon)
          node.pause_frames.push_back(
              {now + config_.credit_latency, hop.in_port, /*xoff=*/false});
      }
      if (h == 0) {
        host.nic.return_credit(hop.vc, now);
      } else {
        channel_into(hop.router, hop.in_port).credits.release(hop.vc, now);
      }
    }
    if (h + 1 < path.size()) {
      Channel& channel = channels_[static_cast<std::size_t>(
          channel_at(hop.router, hop.out_port))];
      const std::uint32_t on_wire = channel.pipe.drain_vc(path[h + 1].vc);
      fault_metrics().flits_flushed += on_wire;
      for (std::uint32_t i = 0; i < on_wire; ++i)
        channel.credits.release(path[h + 1].vc, now);
    }
    if (f.hop_admitted[connection][h]) {
      f.admission[hop.router].release(hop_descriptor(c.id, hop));
      f.hop_admitted[connection][h] = false;
    }
  }
}

bool MmrSimulation::try_readmit(std::uint32_t connection) {
  FaultRuntime& f = *fault_;
  NetworkConnection& c = workload_.connections[connection];
  const Hop old_first = c.path.front();

  const LinkFilter blocked = [this](std::uint32_t router,
                                    std::uint32_t out_port) {
    const std::int32_t ch = channel_at(router, out_port);
    return ch != -1 &&
           fault_->injector.is_down(static_cast<std::uint32_t>(ch));
  };
  std::vector<Hop> path = compute_path_avoiding(
      workload_.topology, old_first.router, old_first.in_port,
      c.last_hop().router, c.last_hop().out_port, blocked);
  if (path.empty()) return false;  // no usable route around the outage

  // A setup probe needs a fresh VC on every traversed input link (freed VCs
  // are not recycled: that costs VC space, not correctness).
  for (const Hop& hop : path) {
    if (tables_[hop.router].on_input_link(hop.in_port).size() >=
        config_.vcs_per_link) {
      return false;
    }
  }

  // All-or-nothing bandwidth admission along the new path.
  std::vector<ConnectionDescriptor> admitted(path.size());
  for (std::size_t h = 0; h < path.size(); ++h) {
    admitted[h] = hop_descriptor(c.id, path[h]);
    if (!f.admission[path[h].router].try_admit(admitted[h])) {
      for (std::size_t r = 0; r < h; ++r)
        f.admission[path[r].router].release(admitted[r]);
      return false;
    }
  }

  // Install: table entries, link-scheduler bindings, routing maps.
  const RoundAccounting rounds(config_.flit_cycles_per_round(),
                               config_.time_base());
  for (std::size_t h = 0; h < path.size(); ++h) {
    Hop& hop = path[h];
    const ConnectionId local_id =
        tables_[hop.router].add(admitted[h], config_.vcs_per_link);
    hop.vc = tables_[hop.router].get(local_id).vc;
    QosParams qos;
    qos.slots_per_round =
        std::max<std::uint32_t>(1, admitted[h].slots_per_round);
    qos.iat_router_cycles =
        rounds.iat_router_cycles(std::max(c.mean_bandwidth_bps, 1.0));
    nodes_[hop.router].router.install_vc(hop.in_port, hop.vc, hop.out_port,
                                         qos);
  }
  install_path(path);

  // Flits still in host memory follow the connection to its new first-hop
  // VC (the source endpoint itself never moves).
  if (path.front().vc != old_first.vc) {
    host_at(old_first.router, old_first.in_port)
        .nic.move_queue(old_first.vc, path.front().vc);
  }

  f.hop_admitted[connection].assign(path.size(), true);
  f.state[connection] = FaultRuntime::ConnState::kActive;
  c.path = std::move(path);
  return true;
}

void MmrSimulation::credit_resync(Cycle now) {
  FaultRuntime& f = *fault_;
  const FaultPlan& plan = f.injector.plan();
  if (now % plan.resync_period != 0) return;

  for (std::size_t ci = 0; ci < channels_.size(); ++ci) {
    Channel& channel = channels_[ci];
    const MmrRouter& downstream = nodes_[channel.to.router].router;
    for (std::uint32_t vc = 0; vc < config_.vcs_per_link; ++vc) {
      // Conservation audit: every buffer slot is either an available
      // credit, a credit travelling back, a flit on the wire, or a flit in
      // the downstream router.  Anything missing leaked through a fault.
      const std::uint32_t accounted = audit::credit_accounted_slots(
          channel.credits, channel.pipe,
          downstream.vc_occupancy(channel.to.port, vc), vc);
      const std::uint32_t capacity = channel.credits.capacity_per_vc();
      MMR_ASSERT_MSG(accounted <= capacity,
                     "credit audit found a surplus: accounting bug");
      Cycle& since = f.leak_since[ci][vc];
      if (accounted == capacity) {
        since = kNever;
        continue;
      }
      if (since == kNever) {
        since = now;
        continue;
      }
      if (now - since < plan.resync_timeout) continue;
      const std::uint32_t missing = capacity - accounted;
      channel.credits.restore(vc, missing);
      refresh_credit_bit(static_cast<std::uint32_t>(ci), vc);
      DegradationMetrics& d = fault_metrics();
      d.credits_restored += missing;
      ++d.resync_events;
      d.recovery_latency_us.add(now - since);
      since = kNever;
    }
  }
}

// --- run, finalize, snapshots ------------------------------------------------

SimulationMetrics MmrSimulation::run() {
  MMR_ASSERT_MSG(!ran_, "run() may only be called once");
  ran_ = true;
  const Cycle total = config_.total_cycles();
  if (!snap_mgr_) {
    while (now_ < total) step_one();
    check_invariants();
    if (tracer_) tracer_->write_outputs();
    return finalize();
  }

  // Snapshot duties: periodic checkpoints and hashes, post-mortems (on
  // MMR_ASSERT the checkpoint is written before the tracer's dump hook
  // runs: one crash, one bundle), cooperative SIGINT/SIGTERM shutdown.
  const auto walk = [this](snapshot::Walker& w) { snap_walk(w); };
  std::optional<snapshot::SignalGuard> signals;
  std::optional<snapshot::CrashScope> crash;
  if (snap_mgr_->spec().on_crash) {
    signals.emplace();
    crash.emplace([this, walk] {
      snap_mgr_->write_checkpoint(now_, walk, "crash", /*nothrow=*/true);
    });
  }
  while (now_ < total) {
    step_one();
    snap_mgr_->after_cycle(now_, walk);
    if (watchdog_ && snap_mgr_->spec().on_crash)
      snap_mgr_->on_alarm_count(
          now_, walk, watchdog_->alarms() + watchdog_->pause_alarms(),
          "watchdog");
    if (signals && snapshot::SignalGuard::pending() != 0) {
      const int signal_number = snapshot::SignalGuard::consume();
      const std::string path =
          snap_mgr_->write_checkpoint(now_, walk, "signal", /*nothrow=*/true);
      if (tracer_) tracer_->write_outputs();
      snap_mgr_->write_hash_log();
      throw snapshot::Interrupted(signal_number, path);
    }
  }
  check_invariants();
  if (tracer_) tracer_->write_outputs();
  snap_mgr_->write_hash_log();
  return finalize();
}

std::uint64_t MmrSimulation::state_hash() {
  snapshot::HashWalker hasher;
  snap_walk(hasher);
  return hasher.digest();
}

void MmrSimulation::save_checkpoint(const std::string& path) {
  snapshot::Snapshot snap;
  snap.config_digest = snapshot::config_digest(config_);
  snap.cycle = now_;
  snapshot::SaveWalker writer(snap);
  snap_walk(writer);
  snapshot::save_file(path, snap);
}

void MmrSimulation::restore_checkpoint(const std::string& path) {
  const snapshot::Snapshot snap = snapshot::load_file(path);
  const std::uint64_t digest = snapshot::config_digest(config_);
  if (snap.config_digest != digest)
    throw snapshot::SnapshotError(
        "checkpoint " + path + " was written under a different SimConfig (" +
        std::to_string(snap.config_digest) + " vs " + std::to_string(digest) +
        "); resume requires the identical config and workload");
  snapshot::LoadWalker reader(snap);
  snap_walk(reader);
  reader.finish();
  refresh_eligibility();
  MMR_ASSERT_MSG(now_ == snap.cycle,
                 "restored clock disagrees with the snapshot header");
}

void MmrSimulation::snap_walk(snapshot::Walker& w) {
  using snapshot::value;

  fold_tallies();
  w.section("sim");
  value(w, now_);
  shape_delay_us_.snap(w);
  // The emission heap's raw array: a rebuild from next_emission() would
  // change its layout (and could emit an already queued emission twice).
  {
    auto& heap = snapshot::queue_container(heap_);
    std::uint64_t n = heap.size();
    value(w, n);
    if (w.loading()) heap.assign(static_cast<std::size_t>(n), Emission{});
    for (Emission& emission : heap) {
      value(w, emission.first);
      value(w, emission.second);
    }
  }

  w.section("sources");
  for (const auto& source : workload_.sources) source->snap(w);

  w.section("hosts");
  for (Host& host : hosts_) {
    host.nic.snap(w);
    host.link.snap(w);
  }

  w.section("channels");
  for (Channel& channel : channels_) {
    channel.pipe.snap(w);
    channel.credits.snap(w);
    value(w, channel.paused);
  }

  w.section("routers");
  for (Node& node : nodes_) {
    node.router.snap(w);
    snapshot::walk_deque(w, node.pause_frames,
                         [](snapshot::Walker& wk, PauseFrame& frame) {
                           value(wk, frame.effective_at);
                           value(wk, frame.port);
                           value(wk, frame.xoff);
                         });
  }

  // Fault recovery rewrites tables, next hops and paths; walked always so
  // each config has one walk shape.
  w.section("routing");
  for (ConnectionTable& table : tables_) table.snap(w);
  snapshot::walk_vector(w, next_hops_, [](snapshot::Walker& v, NextHop& next) {
    value(v, next.local);
    value(v, next.channel);
    value(v, next.downstream_vc);
  });
  for (NetworkConnection& connection : workload_.connections)
    snapshot::walk_vector(w, connection.path,
                          [](snapshot::Walker& v, Hop& hop) {
                            value(v, hop.router);
                            value(v, hop.in_port);
                            value(v, hop.out_port);
                            value(v, hop.vc);
                          });

  w.section("metrics");
  collector_.snap(w);

  // Conditional sections appear exactly when the config (pinned by the
  // digest) builds the subsystem; LoadWalker throws on a name mismatch.
  if (policer_) {
    w.section("policer");
    policer_->snap(w);
  }
  if (watchdog_) {
    w.section("watchdog");
    watchdog_->snap(w);
  }
  if (nodes_.front().mmu) {
    w.section("mmu");
    for (Node& node : nodes_) node.mmu->snap(w);
  }
  if (ecn_) {
    w.section("ecn");
    ecn_->snap(w);
  }
  if (config_.audit_every > 0) {
    w.section("audit");
    for (Node& node : nodes_) node.auditor->snap(w);
  }
  if (fault_) {
    w.section("fault");
    FaultRuntime& f = *fault_;
    f.injector.snap(w);
    for (AdmissionController& admission : f.admission) admission.snap(w);
    snapshot::walk_vector_pod(w, f.state);
    snapshot::walk_vector_pod(w, f.dropped_at);
    snapshot::walk_vector(w, f.hop_admitted,
                          [](snapshot::Walker& v, std::vector<bool>& hops) {
                            snapshot::walk_vector_bool(v, hops);
                          });
    snapshot::walk_vector(w, f.leak_since,
                          [](snapshot::Walker& v, std::vector<Cycle>& leaks) {
                            snapshot::walk_vector_pod(v, leaks);
                          });
  }
  if (tracer_) {
    w.section("trace");
    tracer_->snap(w);
  }
}

void MmrSimulation::fold_tallies() {
  if (!pool_) return;
  for (Shard& shard : shards_) {
    collector_.tally().merge(shard.tally);
    shard.tally = collector_.empty_tally();
  }
}

SimulationMetrics MmrSimulation::finalize() const {
  std::vector<const MmrRouter*> routers;
  for (const Node& node : nodes_) routers.push_back(&node.router);
  // Read-only: fold the shard tallies into a copy.
  DeliveryTally folded;
  if (pool_) {
    folded = collector_.tally();
    for (const Shard& shard : shards_) folded.merge(shard.tally);
  }
  SimulationMetrics m = collector_.finalize(
      routers, generated_load_nominal_, backlog(),
      pool_ ? folded : collector_.tally());

  if (fault_) {
    for (const FaultRuntime::ConnState state : fault_->state)
      if (state == FaultRuntime::ConnState::kDropped)
        ++m.degradation.connections_lost;
  }

  if (nodes_.front().mmu) {
    MmuMetrics& mm = m.mmu;
    mm.enabled = true;
    for (const Node& node : nodes_) {
      const mmu::SharedBufferMmu& u = *node.mmu;
      mm.admitted_reserved += u.admitted_reserved();
      mm.admitted_shared += u.admitted_shared();
      mm.admitted_headroom += u.admitted_headroom();
      mm.drops_lossless += u.drops_lossless();
      mm.drops_lossy += u.drops_lossy();
      mm.pause_events += u.pause_events();
      mm.resume_events += u.resume_events();
      mm.pause_cycles_total += u.pause_cycles_total(now_);
      mm.pause_cycles_max = std::max(mm.pause_cycles_max,
                                     u.pause_cycles_max(now_));
      mm.headroom_highwater =
          std::max<std::uint64_t>(mm.headroom_highwater,
                                  u.headroom_highwater());
      mm.pool_highwater = std::max(mm.pool_highwater, u.pool_highwater());
      mm.pool_occupancy.merge(u.pool_occupancy());  // copies into empty
      mm.ecn_marked += u.ecn_marked();
      mm.ecn_eligible += u.ecn_eligible();
    }
    if (ecn_) mm.ecn_cuts = ecn_->cuts();
  }

  OverloadMetrics& o = m.overload;
  o.enabled = policer_ != nullptr || !rogue_ids_.empty();
  if (!o.enabled) return m;
  o.policy = policer_ ? to_string(policer_->spec().policy) : "off";
  o.rogue_connections = static_cast<std::uint32_t>(rogue_ids_.size());
  if (policer_) {
    o.noncompliant_connections = policer_->noncompliant_connections();
    for (const TrafficClass cls :
         {TrafficClass::kCbr, TrafficClass::kVbr, TrafficClass::kBestEffort})
      o.policed[static_cast<std::size_t>(cls)] = policer_->tally(cls);
    o.shape_delay_us = shape_delay_us_;
    const std::vector<std::uint64_t>& policed =
        policer_->policed_per_connection();
    for (ConnectionId id = 0; id < policed.size(); ++id) {
      const bool rogue = !is_rogue_.empty() && is_rogue_[id];
      (rogue ? o.rogue_policed : o.compliant_policed) += policed[id];
    }
  }
  if (watchdog_) {
    o.watchdog_escalations = watchdog_->escalations();
    o.watchdog_recoveries = watchdog_->recoveries();
    o.watchdog_alarms = watchdog_->alarms();
    o.watchdog_pause_alarms = watchdog_->pause_alarms();
    for (std::size_t s = 0; s < 4; ++s)
      o.cycles_in_stage[s] = watchdog_->cycles_in_stage(
          static_cast<overload::WatchdogStage>(s));
  }
  return m;
}

void MmrSimulation::check_invariants() const {
  for (const Node& node : nodes_) {
    node.router.check_invariants();
    if (!node.mmu) continue;
    node.mmu->check_invariants();
    // Every flit buffered in the router is charged to exactly one pool.
    MMR_ASSERT_MSG(node.mmu->occupancy() == node.router.flits_buffered(),
                   "mmu occupancy disagrees with the router's buffered flits");
  }
  for (const Host& host : hosts_) host.nic.check_invariants();
  for (const Channel& channel : channels_) channel.credits.check_invariants();
  if (policer_) policer_->check_invariants();
}

}  // namespace mmr

#include "mmr/trace/tracer.hpp"

#include "mmr/snapshot/walker.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/atomic_file.hpp"
#include "mmr/sim/log.hpp"
#include "mmr/trace/export.hpp"

namespace mmr::trace {

namespace {

// The MMR_ASSERT hook is a bare function pointer, so the flight recorder to
// dump is found through this process-global slot.  One flight-mode tracer
// owns it at a time (last constructed wins); simultaneous flight recorders
// in one process would race for crash dumps, which the sweep runner never
// does — tracing is a single-run diagnostic tool.
std::atomic<Tracer*> g_assert_tracer{nullptr};

void dump_armed_tracer_on_assert() {
  if (Tracer* tracer = g_assert_tracer.exchange(nullptr)) {
    const std::string path = tracer->dump("assert");
    if (!path.empty())
      std::fprintf(stderr, "mmr trace: flight recorder dumped to %s\n",
                   path.c_str());
  }
}

}  // namespace

TraceMeta TraceMeta::from_config(const SimConfig& config) {
  TraceMeta meta;
  meta.ports = config.ports;
  meta.vcs = config.vcs_per_link;
  meta.levels = config.candidate_levels;
  meta.arbiter = config.arbiter;
  meta.seed = config.seed;
  return meta;
}

Tracer::Tracer(TraceSpec spec, TraceMeta meta)
    : spec_(std::move(spec)), meta_(std::move(meta)) {
  spec_.validate();
  if (spec_.mode == TraceSpec::Mode::kFlight) {
    g_assert_tracer.store(this, std::memory_order_release);
    detail::exchange_assert_hook(&dump_armed_tracer_on_assert);
    registered_for_assert_ = true;
  }
}

Tracer::~Tracer() {
  if (registered_for_assert_) {
    Tracer* expected = this;
    if (g_assert_tracer.compare_exchange_strong(expected, nullptr))
      detail::exchange_assert_hook(nullptr);
  }
}

Tracer::Ring& Tracer::ring_for(std::uint16_t node) {
  if (rings_.size() <= node) rings_.resize(node + 1u);
  Ring& ring = rings_[node];
  if (ring.slots.empty()) ring.slots.resize(spec_.ring);
  return ring;
}

void Tracer::emit(const Event& event) {
  Event e = event;
  e.node = node_;
  ++emitted_;
  if (spec_.mode == TraceSpec::Mode::kStream) {
    if (events_.size() < spec_.limit) {
      events_.push_back(e);
    } else {
      ++truncated_;
      if (!warned_truncation_) {
        warned_truncation_ = true;
        log_warn("trace stream buffer full (limit:", spec_.limit,
                 "); further events are dropped — raise limit: or use flight "
                 "mode");
      }
    }
    return;
  }
  Ring& ring = ring_for(e.node);
  ring.slots[ring.head] = e;
  ring.head = (ring.head + 1) % ring.slots.size();
  ++ring.count;
  maybe_trigger_dump(e);
}

void Tracer::maybe_trigger_dump(const Event& event) {
  // Automatic flight-recorder triggers: the watchdog escalating into its
  // alarm stage, and a fault activation (link going down).  SimAuditor
  // failures and MMR_ASSERT deaths reach dump() via the assert hook instead.
  if (event.type == EventType::kWatchdog && event.level == 3 &&
      event.a == 1) {
    dump("watchdog-alarm");
  } else if (event.type == EventType::kFault &&
             event.level == static_cast<std::uint8_t>(FaultKind::kLinkDown)) {
    dump("fault-down");
  }
}

std::vector<Event> Tracer::snapshot() const {
  if (spec_.mode == TraceSpec::Mode::kStream) return events_;
  std::vector<Event> merged;
  for (const Ring& ring : rings_) {
    if (ring.slots.empty()) continue;
    const std::size_t cap = ring.slots.size();
    const std::size_t held = ring.count < cap
                                 ? static_cast<std::size_t>(ring.count)
                                 : cap;
    // Oldest slot is `head` once the ring has wrapped, 0 before that.
    const std::size_t start = ring.count < cap ? 0 : ring.head;
    for (std::size_t i = 0; i < held; ++i)
      merged.push_back(ring.slots[(start + i) % cap]);
  }
  // Each ring is already time-ordered; a stable sort by cycle interleaves
  // the nodes without reordering same-cycle events within a node.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Event& x, const Event& y) {
                     return x.cycle < y.cycle;
                   });
  return merged;
}

void Tracer::export_jsonl(std::ostream& out, const std::string& trigger) const {
  write_jsonl(out, meta_, to_string(spec_.mode), trigger, truncated_,
              snapshot());
}

std::string Tracer::dump(const std::string& trigger) {
  if (dumps_written_ >= spec_.max_dumps) {
    log_warn("trace: dump cap (dumps:", spec_.max_dumps,
             ") reached; skipping trigger '", trigger, "'");
    return "";
  }
  const std::string path = spec_.dump_prefix + "-" + trigger + "-" +
                           std::to_string(dump_seq_++) + ".jsonl";
  try {
    // Atomic (temp + rename): a dump raced by process death never leaves a
    // torn post-mortem file that looks complete.
    write_file_atomic(path,
                      [&](std::ostream& out) { export_jsonl(out, trigger); });
  } catch (const std::exception& error) {
    log_error("trace: cannot write flight dump file ", path, ": ",
              error.what());
    return "";
  }
  ++dumps_written_;
  dump_paths_.push_back(path);
  log_info("trace: flight recorder dumped ", path, " (trigger: ", trigger,
           ")");
  return path;
}

void Tracer::write_outputs() {
  // All three outputs commit atomically (temp + rename); failures are
  // logged, not thrown — trace emission must never fail a finished run.
  const auto write = [](const char* label, const std::string& path,
                        const std::function<void(std::ostream&)>& body) {
    try {
      write_file_atomic(path, body);
    } catch (const std::exception& error) {
      log_error("trace: cannot write ", label, " file ", path, ": ",
                error.what());
    }
  };
  if (!spec_.out.empty())
    write("out:", spec_.out,
          [&](std::ostream& out) { export_jsonl(out, "end"); });
  if (!spec_.chrome.empty())
    write("chrome:", spec_.chrome,
          [&](std::ostream& out) { write_chrome(out, meta_, snapshot()); });
  if (!spec_.summary.empty())
    write("summary:", spec_.summary, [&](std::ostream& out) {
      out << render_connection_summary(snapshot());
    });
}

TraceScope::TraceScope(Tracer* tracer) : prev_(t_current) {
  t_current = tracer;
}

TraceScope::~TraceScope() { t_current = prev_; }

namespace {

// Event is a padding-free 40-byte POD (static_assert in event.hpp), so the
// buffers bulk-walk as raw bytes.
void walk_events(mmr::snapshot::Walker& w, std::vector<Event>& events) {
  std::uint64_t n = events.size();
  mmr::snapshot::value(w, n);
  if (w.loading()) events.resize(static_cast<std::size_t>(n));
  if (n != 0)
    w.bytes(events.data(), static_cast<std::size_t>(n) * sizeof(Event));
}

}  // namespace

void Tracer::snap(mmr::snapshot::Walker& w) {
  namespace snap = mmr::snapshot;
  snap::value(w, node_);
  snap::value(w, now_);
  snap::value(w, emitted_);
  snap::value(w, truncated_);
  snap::value(w, warned_truncation_);
  walk_events(w, events_);
  snap::walk_vector(w, rings_, [](snap::Walker& v, Ring& ring) {
    walk_events(v, ring.slots);
    std::uint64_t head = ring.head;
    snap::value(v, head);
    if (v.loading()) ring.head = static_cast<std::size_t>(head);
    snap::value(v, ring.count);
  });
  snap::value(w, dumps_written_);
  snap::value(w, dump_seq_);
  snap::walk_vector(w, dump_paths_, [](snap::Walker& v, std::string& s) {
    snap::walk_string(v, s);
  });
}

}  // namespace mmr::trace

// Structured event tracing with a flight-recorder mode (ISSUE 5 tentpole).
//
// Arming follows the mmr/perf precedent exactly: a Tracer is armed for the
// current thread via TraceScope (RAII, nestable, thread-local), call sites
// emit through MMR_TRACE_* macros that cost one thread-local load while
// disarmed, and emission is strictly read-only with respect to
// simulation state and RNG streams — traced and untraced runs are
// bit-identical (tested in tests/test_trace.cpp).
//
// Two buffering modes (see TraceSpec):
//   stream — keep every event (up to a limit); for full-lifecycle export.
//   flight — fixed-capacity binary ring per router keeping the last N
//            events; dumped automatically when something goes wrong:
//            MMR_ASSERT failure (covers SimAuditor invariants), watchdog
//            alarm stage, or fault activation (link-down).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mmr/sim/config.hpp"
#include "mmr/trace/event.hpp"
#include "mmr/trace/spec.hpp"

namespace mmr::snapshot {
class Walker;
}

namespace mmr::trace {

/// Run provenance written into every export header; consumers (trace_lint,
/// the Chrome exporter) use it to bound-check event fields.
struct TraceMeta {
  std::uint32_t ports = 0;
  std::uint32_t vcs = 0;
  std::uint32_t levels = 0;
  std::string arbiter;
  std::uint64_t seed = 0;

  [[nodiscard]] static TraceMeta from_config(const SimConfig& config);
};

class Tracer {
 public:
  Tracer(TraceSpec spec, TraceMeta meta);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Stamps the current node id onto `event` and records it.  In flight
  /// mode this may trigger an automatic dump (watchdog alarm, link-down).
  void emit(const Event& event);

  /// Current router id stamped onto emitted events (single-router sims
  /// leave it at 0; the network simulation switches it per section).
  void set_node(std::uint16_t node) { node_ = node; }
  [[nodiscard]] std::uint16_t node() const { return node_; }

  /// Clock mirror for call sites that have no `now` of their own
  /// (arbiters, admission control); set once per simulated cycle.
  void set_now(Cycle now) { now_ = now; }
  [[nodiscard]] Cycle now() const { return now_; }

  [[nodiscard]] const TraceSpec& spec() const { return spec_; }
  [[nodiscard]] const TraceMeta& meta() const { return meta_; }
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  /// Stream-mode events discarded after the buffer hit spec().limit.
  [[nodiscard]] std::uint64_t truncated() const { return truncated_; }
  [[nodiscard]] std::uint32_t dumps_written() const { return dumps_written_; }
  [[nodiscard]] const std::vector<std::string>& dump_paths() const {
    return dump_paths_;
  }

  /// Buffered events, oldest first.  Flight mode merges the per-node rings
  /// and stable-sorts by cycle, so dumps read as one timeline.
  [[nodiscard]] std::vector<Event> snapshot() const;

  /// Staging support for the sharded network engine: zero-copy view of the
  /// stream-mode buffer in emission order, and a reset so a per-shard
  /// staging tracer can be drained after every barrier.  Events replayed
  /// from a staging buffer already carry their node stamp; the replayer
  /// calls set_node(event.node) before re-emitting.
  [[nodiscard]] const std::vector<Event>& stream_events() const {
    return events_;
  }
  void clear_stream() { events_.clear(); }

  /// Writes the buffered events as mmr-trace-v1 JSONL; `trigger` names why
  /// the export happened (end | watchdog-alarm | fault-down | assert | ...).
  void export_jsonl(std::ostream& out, const std::string& trigger) const;

  /// Flight recorder dump: writes the ring contents to
  /// `<dump_prefix>-<trigger>-<seq>.jsonl` and returns the path ("" once
  /// the per-run dump cap is exhausted or the file cannot be opened).
  std::string dump(const std::string& trigger);

  /// Writes the run-end outputs named in the spec (out/chrome/summary).
  void write_outputs();

  /// Checkpoint walk: buffered events, rings, counters — everything needed
  /// for a resumed run's exports to be byte-identical to an uninterrupted
  /// one.  (Named after the subsystem-wide convention; unrelated to
  /// snapshot() above, which copies the buffered events out.)
  void snap(mmr::snapshot::Walker& w);

 private:
  /// Fixed-capacity ring; `head` is the next slot to overwrite.
  struct Ring {
    std::vector<Event> slots;
    std::size_t head = 0;
    std::uint64_t count = 0;  ///< total events ever pushed
  };

  Ring& ring_for(std::uint16_t node);
  void maybe_trigger_dump(const Event& event);

  TraceSpec spec_;
  TraceMeta meta_;
  std::uint16_t node_ = 0;
  Cycle now_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t truncated_ = 0;
  bool warned_truncation_ = false;
  std::vector<Event> events_;  ///< stream mode
  std::vector<Ring> rings_;    ///< flight mode, indexed by node
  std::uint32_t dumps_written_ = 0;
  std::uint32_t dump_seq_ = 0;
  std::vector<std::string> dump_paths_;
  bool registered_for_assert_ = false;
};

/// The thread's armed tracer; read it through current().  Inline and
/// constant-initialized, so a read is one thread-local load: every
/// MMR_TRACE_* site pays that when disarmed.
inline constinit thread_local Tracer* t_current = nullptr;

/// The tracer armed for this thread, or nullptr (the common case).
[[nodiscard]] inline Tracer* current() { return t_current; }

/// RAII arming, identical in spirit to perf::ProbeScope: arms `tracer` for
/// the current thread, restores the previous tracer on destruction.  Pass
/// nullptr to disarm within a scope.
class TraceScope {
 public:
  explicit TraceScope(Tracer* tracer);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* prev_;
};

}  // namespace mmr::trace

// --- emission macros -------------------------------------------------------
// MMR_TRACE_EVENT(expr)        records the Event built by `expr` when a
//                              tracer is armed; `expr` is not evaluated
//                              otherwise.
// MMR_TRACE_EMIT_NOW(b, ...)   like MMR_TRACE_EVENT but calls the builder
//                              `b` with the armed tracer's mirrored clock
//                              as its first argument — for call sites that
//                              have no `now` of their own (arbiters,
//                              admission control).
// MMR_TRACE_ON()               true when a tracer is armed; guards
//                              event-only computations (e.g. the
//                              grant/deny sweep).
#define MMR_TRACE_EVENT(expr)                                              \
  do {                                                                     \
    if (::mmr::trace::Tracer* mmr_trace_t_ = ::mmr::trace::current())      \
      mmr_trace_t_->emit((expr));                                          \
  } while (false)
#define MMR_TRACE_EMIT_NOW(builder, ...)                                   \
  do {                                                                     \
    if (::mmr::trace::Tracer* mmr_trace_t_ = ::mmr::trace::current())      \
      mmr_trace_t_->emit(builder(mmr_trace_t_->now(), __VA_ARGS__));       \
  } while (false)
#define MMR_TRACE_SET_NODE(node)                                           \
  do {                                                                     \
    if (::mmr::trace::Tracer* mmr_trace_t_ = ::mmr::trace::current())      \
      mmr_trace_t_->set_node(static_cast<std::uint16_t>(node));            \
  } while (false)
#define MMR_TRACE_ON() (::mmr::trace::current() != nullptr)

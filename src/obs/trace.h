#ifndef NTSG_OBS_TRACE_H_
#define NTSG_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace ntsg::obs {

/// Global on/off switch for the event-trace layer, separate from the metrics
/// switch: traces are heavier (one ring-buffer store plus a clock read per
/// event) and are usually enabled only for a recording run or a flight
/// recorder. Disabled (the default unless the NTSG_TRACE environment
/// variable is set to a nonempty value other than "0") every emit site
/// reduces to one relaxed load and a branch — the budget bench_trace_overhead
/// pins at <1ns per site.
///
/// Like metrics, tracing is strictly write-only: no certifier or scheduler
/// decision ever reads an event, so enabling traces cannot move a
/// verdict or a graph fingerprint (obs_trace_test runs both ways).
bool TraceEnabled();
void SetTraceEnabled(bool enabled);

/// The fixed event vocabulary. One entry per instrumented decision point;
/// the a/b/arg field meanings per kind are documented in DESIGN.md §8 and
/// encoded for the exporters by TraceEventFieldInfo below.
enum class TraceEventKind : uint8_t {
  kActionIngested,   // certifier consumed an action        (a=tx, b=ActionKind, arg=pos)
  kActionExecuted,   // driver executed an action           (a=tx, b=ActionKind, arg=step)
  kSpanBegin,        // REQUEST_CREATE(a): a's interval opens under parent b (arg=pos)
  kSpanEnd,          // REPORT_COMMIT/ABORT(a): a's interval closes (arg=pos)
  kOpActivated,      // operation became visible to T0      (a=tx, arg=pos)
  kOpParked,         // operation parked on an ancestor     (a=tx, arg=pos)
  kOpFired,          // parked item released by a COMMIT    (a=tx, arg=tag)
  kOpDropped,        // parked item killed by an ABORT      (a=tx, arg=tag)
  kEdgeInserted,     // SG edge from=a to=b under span      (flags: conflict/precedes)
  kEdgeRejected,     // cycle-closing edge refused          (a=from, b=to)
  kEdgeRemoved,      // abort expunged edge                 (a=from, b=to)
  kTopoReorder,      // Pearce-Kelly region reorder         (a=from, b=to, arg=region size)
  kAdmissionCheck,   // SGT trial insert                    (a=tx, arg=#edges, flags: reject)
  kVerdictRejected,  // certifier verdict flipped not-OK    (arg=pos, flags: cause)
  kFaultFired,       // injector released a fault           (b=FaultKind, arg=param)
  kCrash,            // injected certifier crash            (arg=pos)
  kSnapshot,         // certifier snapshot taken            (arg=pos)
  kReplay,           // certifier restored and re-ingested  (arg=actions replayed)
  kStallAbort,       // driver aborted a stalled tx         (a=victim, arg=step)
  kInjectedAbort,    // plan/spontaneous abort              (a=victim, arg=step)
  kGcRun,            // watermark GC pass                   (a=#families retired, arg=watermark)
  kGcRetire,         // one family retired                  (a=root, arg=#graph nodes removed)
  kGcLateEvent,      // action named a retired family       (a=tx, b=ActionKind, arg=pos)
  kIsoLevelRejected, // isolation level rejected a trace    (a=IsoLevel, b=AnomalyKind)
  kIsoMinerHit,      // miner found a counterexample        (a=run index, b=AnomalyKind)
  kBatchCommit,      // batched admission committed         (a=#staged, b=#fresh, arg=region size)
  kBatchBisect,      // batch rejected; per-edge replay     (a=#staged, arg=#staged)
};

const char* TraceEventKindName(TraceEventKind kind);

/// Which of a/b hold transaction names (exporters resolve those through the
/// caller's name function; everything else stays numeric).
struct TraceEventFieldInfo {
  bool a_is_tx;
  bool b_is_tx;
};
TraceEventFieldInfo TraceEventFields(TraceEventKind kind);

/// Event flags (orthogonal bits; meanings by kind).
inline constexpr uint8_t kTraceFlagConflict = 1;       // edge is conflict(β)
inline constexpr uint8_t kTraceFlagPrecedes = 2;       // edge is precedes(β)
inline constexpr uint8_t kTraceFlagAbort = 4;          // span ended by abort
inline constexpr uint8_t kTraceFlagReject = 8;         // admission refused
inline constexpr uint8_t kTraceFlagSpurious = 16;      // fault-forced outcome
inline constexpr uint8_t kTraceFlagInappropriate = 32; // verdict: return values
inline constexpr uint8_t kTraceFlagCycle = 64;         // verdict: graph cycle

/// One recorded event. `span` is the causal context: the transaction whose
/// scope encloses the event, so span ids mirror the paper's transaction tree
/// — parent(span) in the SystemType is the parent span. Fixed 40 bytes, no
/// heap traffic per event.
struct TraceEvent {
  uint64_t seq;    // global order across all threads (atomic counter)
  uint64_t ts_us;  // steady-clock microseconds since the process trace epoch
  uint64_t arg;    // kind-specific payload (trace position, counts, ...)
  uint32_t span;   // enclosing transaction (kInvalidTx-free: 0 = T0/process)
  uint32_t a;      // primary subject (see kind table)
  uint32_t b;      // secondary subject
  TraceEventKind kind;
  uint8_t flags;
};

/// Bounded per-thread event buffer — the flight recorder. Only the owning
/// thread appends; readers snapshot from a quiescent state (workers joined),
/// which is the only dump discipline the CLI and tests use.
class TraceRing {
 public:
  TraceRing(uint32_t tid, size_t capacity)
      : tid_(tid), buf_(capacity == 0 ? 1 : capacity) {}

  void Append(const TraceEvent& e) {
    buf_[count_ % buf_.size()] = e;
    ++count_;
  }

  uint32_t tid() const { return tid_; }
  size_t capacity() const { return buf_.size(); }
  /// Total events ever appended (wrapped events count).
  uint64_t count() const { return count_; }
  uint64_t dropped() const {
    return count_ > buf_.size() ? count_ - buf_.size() : 0;
  }

  /// The retained events, oldest first, at most `last_n` newest of them.
  std::vector<TraceEvent> Snapshot(size_t last_n = SIZE_MAX) const;

 private:
  uint32_t tid_;
  std::vector<TraceEvent> buf_;
  uint64_t count_ = 0;
};

/// Resolves a transaction name to its dotted-path display form ("T0.2.1").
/// The obs layer deliberately does not depend on SystemType; callers pass
/// `[&type](uint32_t t) { return type.NameOf(t); }` (nullptr → numeric).
using TraceNameFn = std::function<std::string(uint32_t)>;

/// Owner of every ring. Threads get a ring lazily on first emit (mutex only
/// then); afterwards the hot path is a thread_local pointer store. Rings
/// outlive their threads — a thread's exit returns its ring to a free list
/// and a successor thread inherits it with its history intact, so an exited
/// thread's last events survive into the flight-recorder dump. Export/dump calls must run from a quiescent state
/// (no concurrent emitters), which every in-tree caller guarantees by
/// joining workers first.
class TraceRecorder {
 public:
  /// Process-wide recorder all instrumentation emits into.
  static TraceRecorder& Default();

  /// Records one event on the calling thread's ring. Call through the
  /// TraceEmit wrapper so the disabled path stays a single branch.
  void Emit(TraceEventKind kind, uint32_t span, uint32_t a, uint32_t b,
            uint8_t flags, uint64_t arg);

  /// Capacity for rings created after this call (existing rings keep
  /// theirs). Used by --flight-recorder=N; call before the workload.
  void SetRingCapacity(size_t capacity);
  size_t ring_capacity() const;

  /// Drops every ring and restarts seq/epoch. Unbinds no live threads'
  /// thread_local pointers — callers (tests, CLI setup) must be quiescent.
  void Clear();

  size_t ring_count() const;
  /// Total events ever emitted across all rings (including wrapped ones).
  uint64_t total_events() const;

  /// All retained events merged across rings, in seq order.
  std::vector<TraceEvent> MergedEvents() const;

  /// Compact NDJSON: one JSON object per line, seq order.
  std::string NdjsonText(const TraceNameFn& name_of = nullptr) const;

  /// Chrome trace_event JSON (load in chrome://tracing or Perfetto):
  /// kSpanBegin/kSpanEnd become async "b"/"e" intervals keyed by the
  /// transaction, everything else thread-scoped instants.
  std::string ChromeTraceJson(const TraceNameFn& name_of = nullptr) const;

  /// Human-readable dump of the newest `last_n` events of every ring — what
  /// --flight-recorder prints on failure or injected crash.
  std::string FlightRecorderText(size_t last_n,
                                 const TraceNameFn& name_of = nullptr) const;

  /// Chrome JSON when `path` ends in ".json", NDJSON otherwise.
  Status WriteTrace(const std::string& path,
                    const TraceNameFn& name_of = nullptr) const;

 private:
  friend class TraceRingLease;
  TraceRing* RingForThisThread();
  void ReleaseRing(TraceRing* ring, uint64_t epoch);

  struct Impl;
  Impl* impl_;
  TraceRecorder();
};

namespace internal {
void EmitSlow(TraceEventKind kind, uint32_t span, uint32_t a, uint32_t b,
              uint8_t flags, uint64_t arg);
}  // namespace internal

/// The one emit entry point: exactly one relaxed load and one predictable
/// branch when tracing is off. Instrumented code that needs to *compute* an
/// argument (e.g. walk the tree for the enclosing span) should guard the
/// computation with `if (obs::TraceEnabled())` — still a single branch.
inline void TraceEmit(TraceEventKind kind, uint32_t span, uint32_t a,
                      uint32_t b = 0, uint8_t flags = 0, uint64_t arg = 0) {
  if (TraceEnabled()) internal::EmitSlow(kind, span, a, b, flags, arg);
}

}  // namespace ntsg::obs

#endif  // NTSG_OBS_TRACE_H_

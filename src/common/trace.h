// Low-overhead end-to-end tracing (docs/OBSERVABILITY.md, "Tracing & flight
// recorder").
//
// The paper's central claim is that security punctuations flow *through* the
// query plan and take effect at well-defined points. Aggregate counters
// cannot answer "where did sp-batch 42 spend its time between arriving on
// the wire and its first enforced denial, and which shard converged last?" —
// that needs spans. This subsystem records them with three properties the
// engine's hot paths demand:
//
//  * Per-thread lock-free rings. Every recording thread (engine, shard
//    workers, net reader threads, the serve loop) appends to its own
//    single-writer ring; a reader (dump/export) snapshots concurrently via a
//    per-slot seqlock. All slot fields are std::atomic with relaxed payload
//    accesses bracketed by acquire/release sequence counters (Boehm's
//    seqlock recipe), so concurrent dump-during-trace is well-defined and
//    TSan-clean — no mutex ever sits on a recording path.
//
//  * Deterministic 64-bit trace ids. The trace id of an sp-batch is derived
//    from its timestamp (SpBatchTraceId), so the client that pushed it, the
//    server's wire decode, the SP Analyzer, every shard's PolicyTracker
//    install and the first Security Shield enforcement all join the SAME
//    trace without any context threading through the operator DAG. The wire
//    additionally carries an explicit (trace, span) context on PUSH frames
//    (v3, tolerant-tail decoded) so non-sp pushes connect too.
//
//  * An always-on flight recorder: a small fixed ring (member storage, no
//    heap) that receives lifecycle events — policy installs, epoch marks,
//    quarantines, fault fires, evictions — even while full tracing is off,
//    and is snapshotted into an incident dump (with the responsible trace
//    ids) whenever something goes wrong.
//
// Sampling: tracing is process-global and off until switched on, by
// Tracer::Global().Enable(n), the CLI's `trace on [n]`, or the
// SPSTREAM_TRACE_SAMPLE environment variable; N traces every sp-batch whose
// timestamp is divisible by N (1 = all). With tracing disabled no
// per-thread ring is ever allocated (tests/trace_test.cc holds us to zero
// allocations).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace spstream {

using TraceId = uint64_t;
using SpanId = uint64_t;

/// \brief Coarse event category, exported as the Chrome "cat" field.
enum class TraceCat : uint8_t {
  kEngine = 0,   ///< Run() epochs, quarantine recovery
  kOperator,     ///< per-operator PushBatch spans
  kShard,        ///< hand-off queue waits, epoch barrier
  kNet,          ///< wire encode/decode, client push, result delivery
  kAnalyzer,     ///< SP Analyzer admission
  kPolicy,       ///< PolicyTracker installs, first SS enforcement
  kIncident,     ///< quarantine / fault fire / eviction markers
  kStorage,      ///< WAL group commits, checkpoint writes, recovery replay
};
constexpr int kNumTraceCats = 8;
const char* TraceCatName(TraceCat cat);

/// \brief Deterministic trace id of the sp-batch with timestamp `ts`.
/// Every layer computes the same id from the ts alone, which is what makes
/// client → server → operator → shard spans of one sp-batch connect without
/// plumbing context through the DAG. Top byte 0x5B tags the id family.
inline TraceId SpBatchTraceId(int64_t ts) {
  uint64_t x = static_cast<uint64_t>(ts);
  x ^= x >> 33;
  x *= 0x9e3779b97f4a7c15ULL;
  x ^= x >> 29;
  return (x & 0x00ffffffffffffffULL) | 0x5B00000000000000ULL;
}

/// \brief Deterministic trace id of engine Run() epoch `epoch` (top byte
/// 0xE7). Operator and barrier spans of batches that carry no sampled sp
/// attach here.
inline TraceId EpochTraceId(uint64_t epoch) {
  uint64_t x = epoch;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  return (x & 0x00ffffffffffffffULL) | 0xE700000000000000ULL;
}

/// \brief One decoded trace event. dur_nanos < 0 marks an instant event.
struct TraceEvent {
  TraceId trace_id = 0;
  SpanId span_id = 0;
  SpanId parent_id = 0;
  int64_t start_nanos = 0;
  int64_t dur_nanos = 0;
  int64_t arg1 = 0;
  int64_t arg2 = 0;
  int64_t arg3 = 0;
  uint32_t tid = 0;  ///< recorder-thread index (export track), not OS tid
  TraceCat cat = TraceCat::kEngine;
  std::string name;

  bool is_instant() const { return dur_nanos < 0; }
};

/// \brief Sentinel for "inherit the parent span from this thread's stack".
inline constexpr SpanId kInheritParent = ~0ULL;

class Tracer {
 public:
  static constexpr size_t kNameBytes = 32;       ///< per-event name budget
  static constexpr size_t kRingSlots = 4096;     ///< per-thread ring (pow2)
  static constexpr size_t kFlightSlots = 256;    ///< flight recorder (pow2)
  static constexpr size_t kMaxIncidentDumps = 8; ///< retained incident dumps

  /// \brief Process-wide tracer every recording site consults (mirrors
  /// FaultInjector::Global). Honors SPSTREAM_TRACE_SAMPLE on first use so
  /// CI can switch tracing on for an unmodified binary.
  static Tracer& Global();

  /// \brief Turn tracing on; sample every `sample_n`-th sp-batch (1 = all).
  void Enable(uint64_t sample_n = 1);
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t sample_n() const {
    return sample_n_.load(std::memory_order_relaxed);
  }

  /// \brief True iff tracing is on and the sp-batch with timestamp `ts`
  /// falls in the sample (ts divisible by sample_n — deterministic, so every
  /// layer makes the same call).
  bool SampleSpBatch(int64_t ts) const {
    if (!enabled()) return false;
    uint64_t n = sample_n();
    return n == 1 || (n > 0 && static_cast<uint64_t>(ts) % n == 0);
  }

  /// \brief Fresh id for a trace not keyed by an sp-batch or epoch (e.g. a
  /// client push of plain tuples). Top byte 0xC1.
  TraceId NewTraceId() {
    return (next_trace_.fetch_add(1, std::memory_order_relaxed) &
            0x00ffffffffffffffULL) |
           0xC100000000000000ULL;
  }
  SpanId NextSpanId() {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- ambient per-thread context ---------------------------------------
  /// Trace id spans on this thread attach to when none is passed explicitly
  /// (set per batch by the feed paths, per task by shard workers).
  static TraceId CurrentTrace();
  static void SetCurrentTrace(TraceId id);
  /// Innermost open span on this thread (parent of new spans).
  static SpanId CurrentSpan();
  static void SetCurrentSpan(SpanId id);

  /// \brief Trace id of the engine Run() epoch in progress (shard workers
  /// read this as their fallback ambient trace; the net serve loop uses it
  /// to connect result delivery to the epoch it drains). 0 outside Run().
  TraceId epoch_trace() const {
    return epoch_trace_.load(std::memory_order_relaxed);
  }
  void SetEpochTrace(TraceId id) {
    epoch_trace_.store(id, std::memory_order_relaxed);
  }

  // ---- recording --------------------------------------------------------
  /// \brief Record a completed span into the calling thread's ring (and the
  /// flight recorder for non-operator categories). No-op unless enabled.
  void RecordSpan(TraceCat cat, const char* name, TraceId trace, SpanId span,
                  SpanId parent, int64_t start_nanos, int64_t dur_nanos,
                  int64_t arg1, int64_t arg2, int64_t arg3 = 0);

  /// \brief Record an instant event (no duration). No-op unless enabled.
  void Instant(TraceCat cat, const char* name, TraceId trace,
               int64_t arg1 = 0, int64_t arg2 = 0);

  /// \brief Always-on lifecycle marker: recorded into the flight recorder
  /// even while tracing is off (and mirrored into the thread ring when on).
  /// Keep callers rare — per sp-batch / per epoch, never per tuple.
  void FlightMark(TraceCat cat, const char* name, TraceId trace,
                  int64_t arg1 = 0, int64_t arg2 = 0);

  /// \brief Something went wrong (quarantine, fault-site fire, slow
  /// subscriber eviction): record an incident marker and snapshot the
  /// flight recorder into a retained dump carrying the responsible trace.
  void NoteIncident(const char* reason, TraceId trace);

  struct IncidentDump {
    std::string reason;
    TraceId trace_id = 0;
    int64_t at_nanos = 0;
    std::vector<TraceEvent> events;  ///< flight-recorder contents, oldest first
  };
  /// \brief Retained incident dumps, oldest first (most recent
  /// kMaxIncidentDumps kept).
  std::vector<IncidentDump> IncidentDumps() const;
  int64_t incident_count() const {
    return incident_count_.load(std::memory_order_relaxed);
  }

  // ---- snapshots / export ----------------------------------------------
  /// \brief Every retained event across all thread rings plus the flight
  /// recorder, sorted by start time.
  std::vector<TraceEvent> Snapshot() const;

  /// \brief Per-thread span rings ever heap-allocated (test hook for the
  /// "sampling=0 allocates nothing" guarantee).
  int64_t rings_allocated() const {
    return rings_allocated_.load(std::memory_order_relaxed);
  }

  /// \brief Drop all retained events and incident dumps (tests/CLI; rings
  /// stay allocated for reuse).
  void Clear();

 private:
  // One single-writer ring. Payload fields are relaxed atomics bracketed by
  // the per-slot seq (odd while a write is in flight) — a reader that sees
  // the same even seq before and after copying a slot got a coherent event.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> trace{0};
    std::atomic<uint64_t> span{0};
    std::atomic<uint64_t> parent{0};
    std::atomic<int64_t> start{0};
    std::atomic<int64_t> dur{0};
    std::atomic<int64_t> arg1{0};
    std::atomic<int64_t> arg2{0};
    std::atomic<int64_t> arg3{0};
    std::atomic<uint32_t> cat_tid{0};  // cat | (thread index << 8)
    std::atomic<uint64_t> name[kNameBytes / 8] = {};
  };

  template <size_t N>
  struct Ring {
    std::atomic<uint64_t> head{0};  // next write position
    std::array<Slot, N> slots;
  };
  struct ThreadRing {
    uint32_t tid = 0;
    Ring<kRingSlots> ring;
  };

  Tracer();

  static void WriteSlot(Slot& s, TraceCat cat, uint32_t tid, const char* name,
                        TraceId trace, SpanId span, SpanId parent,
                        int64_t start, int64_t dur, int64_t a1, int64_t a2,
                        int64_t a3);
  static bool ReadSlot(const Slot& s, TraceEvent* out);
  template <size_t N>
  static void CopyRing(const Ring<N>& ring, std::vector<TraceEvent>* out);

  /// The calling thread's ring, allocating (or reusing a released one) on
  /// first use.
  ThreadRing* LocalRing();
  void ReleaseRing(ThreadRing* ring);
  struct TlsHandle;  // releases the ring back to the pool on thread exit

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> sample_n_{0};
  std::atomic<uint64_t> next_span_{1};
  std::atomic<uint64_t> next_trace_{1};
  std::atomic<uint32_t> next_tid_{1};
  std::atomic<TraceId> epoch_trace_{0};
  std::atomic<int64_t> rings_allocated_{0};
  std::atomic<int64_t> incident_count_{0};

  Ring<kFlightSlots> flight_;  // multi-producer: indices claimed by fetch_add

  mutable std::mutex rings_mu_;
  std::vector<std::unique_ptr<ThreadRing>> rings_;  // all ever allocated
  std::vector<ThreadRing*> free_rings_;             // released by dead threads

  mutable std::mutex incidents_mu_;
  std::vector<IncidentDump> incidents_;
};

// ---- exporters ----------------------------------------------------------

/// \brief Render events as Chrome trace-event JSON (one "traceEvents" array
/// of ph:"X"/"i" records, ts/dur in microseconds), loadable in Perfetto and
/// chrome://tracing. Trace/span/parent ids ride in each event's args.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events);

/// \brief Human-readable timeline, one line per event, time-ordered, with
/// starts relative to the first event. `max_rows` 0 = unlimited; otherwise
/// the most recent rows are kept.
std::string RenderTimeline(const std::vector<TraceEvent>& events,
                           size_t max_rows = 0);

// ---- RAII helpers -------------------------------------------------------

/// \brief Scoped span: opens at construction, records at destruction. A
/// span with trace id 0 (or a disabled tracer) is disarmed and costs two
/// branches. While open it is the thread's current span (children nest).
class TraceSpan {
 public:
  TraceSpan(TraceCat cat, const char* name, TraceId trace, int64_t arg1 = 0,
            int64_t arg2 = 0, SpanId parent = kInheritParent)
      : cat_(cat), name_(name), trace_(trace), arg1_(arg1), arg2_(arg2) {
    if (trace_ != 0 && Tracer::Global().enabled()) {
      Tracer& t = Tracer::Global();
      id_ = t.NextSpanId();
      parent_ = parent == kInheritParent ? Tracer::CurrentSpan() : parent;
      prev_span_ = Tracer::CurrentSpan();
      Tracer::SetCurrentSpan(id_);
      start_ = NowNanos();
    }
  }

  ~TraceSpan() {
    if (start_ != 0) {
      Tracer::SetCurrentSpan(prev_span_);
      Tracer::Global().RecordSpan(cat_, name_, trace_, id_, parent_, start_,
                                  NowNanos() - start_, arg1_, arg2_, arg3_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  SpanId id() const { return id_; }
  void set_args(int64_t a1, int64_t a2, int64_t a3 = 0) {
    arg1_ = a1;
    arg2_ = a2;
    arg3_ = a3;
  }

 private:
  TraceCat cat_;
  const char* name_;
  TraceId trace_;
  int64_t arg1_;
  int64_t arg2_;
  int64_t arg3_ = 0;
  SpanId id_ = 0;
  SpanId parent_ = 0;
  SpanId prev_span_ = 0;
  int64_t start_ = 0;
};

/// \brief Scoped ambient trace: spans opened on this thread while alive
/// attach to `trace`; the previous ambient trace is restored on exit.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceId trace)
      : prev_(Tracer::CurrentTrace()) {
    Tracer::SetCurrentTrace(trace);
  }
  ~ScopedTraceContext() { Tracer::SetCurrentTrace(prev_); }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceId prev_;
};

/// \brief Fast-path gate: one relaxed load when tracing is off.
#define SP_TRACE_ENABLED() (::spstream::Tracer::Global().enabled())

}  // namespace spstream

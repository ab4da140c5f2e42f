#include "common/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace spstream {

namespace {

// Ambient per-thread context. Plain thread_locals (no tracer state): reading
// them never touches the singleton, so the off path stays two tls loads.
thread_local TraceId tls_current_trace = 0;
thread_local SpanId tls_current_span = 0;

double ToMicros(int64_t nanos) { return static_cast<double>(nanos) / 1000.0; }

std::string HexId(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, id);
  return buf;
}

}  // namespace

const char* TraceCatName(TraceCat cat) {
  switch (cat) {
    case TraceCat::kEngine:
      return "engine";
    case TraceCat::kOperator:
      return "operator";
    case TraceCat::kShard:
      return "shard";
    case TraceCat::kNet:
      return "net";
    case TraceCat::kAnalyzer:
      return "analyzer";
    case TraceCat::kPolicy:
      return "policy";
    case TraceCat::kIncident:
      return "incident";
    case TraceCat::kStorage:
      return "storage";
  }
  return "?";
}

// ---- ambient context ----------------------------------------------------

TraceId Tracer::CurrentTrace() { return tls_current_trace; }
void Tracer::SetCurrentTrace(TraceId id) { tls_current_trace = id; }
SpanId Tracer::CurrentSpan() { return tls_current_span; }
void Tracer::SetCurrentSpan(SpanId id) { tls_current_span = id; }

// ---- singleton ----------------------------------------------------------

Tracer::Tracer() {
  // CI hook: SPSTREAM_TRACE_SAMPLE=<n> switches tracing on for an
  // unmodified binary (mirrors SPSTREAM_FAULT_SEED).
  if (const char* env = std::getenv("SPSTREAM_TRACE_SAMPLE")) {
    char* end = nullptr;
    unsigned long long n = std::strtoull(env, &end, 10);
    if (end != env && n > 0) Enable(static_cast<uint64_t>(n));
  }
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // leaked: recorders may outlive main
  return *tracer;
}

void Tracer::Enable(uint64_t sample_n) {
  sample_n_.store(sample_n == 0 ? 1 : sample_n, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

// ---- slot encode/decode -------------------------------------------------

void Tracer::WriteSlot(Slot& s, TraceCat cat, uint32_t tid, const char* name,
                       TraceId trace, SpanId span, SpanId parent,
                       int64_t start, int64_t dur, int64_t a1, int64_t a2,
                       int64_t a3) {
  // Seqlock write: odd while in flight. Payload stores are relaxed atomics
  // (well-defined against a racing reader); the release fence orders them
  // after the odd mark, the release store of the even mark orders them
  // before it.
  uint64_t seq0 = s.seq.load(std::memory_order_relaxed);
  s.seq.store(seq0 + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.trace.store(trace, std::memory_order_relaxed);
  s.span.store(span, std::memory_order_relaxed);
  s.parent.store(parent, std::memory_order_relaxed);
  s.start.store(start, std::memory_order_relaxed);
  s.dur.store(dur, std::memory_order_relaxed);
  s.arg1.store(a1, std::memory_order_relaxed);
  s.arg2.store(a2, std::memory_order_relaxed);
  s.arg3.store(a3, std::memory_order_relaxed);
  s.cat_tid.store(static_cast<uint32_t>(cat) | (tid << 8),
                  std::memory_order_relaxed);
  char buf[kNameBytes] = {};
  std::strncpy(buf, name == nullptr ? "" : name, kNameBytes - 1);
  for (size_t i = 0; i < kNameBytes / 8; ++i) {
    uint64_t word;
    std::memcpy(&word, buf + i * 8, 8);
    s.name[i].store(word, std::memory_order_relaxed);
  }
  s.seq.store(seq0 + 2, std::memory_order_release);
}

bool Tracer::ReadSlot(const Slot& s, TraceEvent* out) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    uint64_t seq0 = s.seq.load(std::memory_order_acquire);
    if (seq0 & 1) continue;  // write in flight
    TraceEvent ev;
    ev.trace_id = s.trace.load(std::memory_order_relaxed);
    ev.span_id = s.span.load(std::memory_order_relaxed);
    ev.parent_id = s.parent.load(std::memory_order_relaxed);
    ev.start_nanos = s.start.load(std::memory_order_relaxed);
    ev.dur_nanos = s.dur.load(std::memory_order_relaxed);
    ev.arg1 = s.arg1.load(std::memory_order_relaxed);
    ev.arg2 = s.arg2.load(std::memory_order_relaxed);
    ev.arg3 = s.arg3.load(std::memory_order_relaxed);
    uint32_t ct = s.cat_tid.load(std::memory_order_relaxed);
    ev.cat = static_cast<TraceCat>(ct & 0xff);
    ev.tid = ct >> 8;
    char buf[kNameBytes];
    for (size_t i = 0; i < kNameBytes / 8; ++i) {
      uint64_t word = s.name[i].load(std::memory_order_relaxed);
      std::memcpy(buf + i * 8, &word, 8);
    }
    buf[kNameBytes - 1] = '\0';
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != seq0) continue;  // torn
    ev.name = buf;
    *out = std::move(ev);
    return true;
  }
  return false;
}

template <size_t N>
void Tracer::CopyRing(const Ring<N>& ring, std::vector<TraceEvent>* out) {
  uint64_t head = ring.head.load(std::memory_order_acquire);
  uint64_t n = head < N ? head : N;
  for (uint64_t i = head - n; i < head; ++i) {
    TraceEvent ev;
    if (ReadSlot(ring.slots[i % N], &ev) && !(ev.span_id == 0 && ev.trace_id == 0)) {
      out->push_back(std::move(ev));
    }
  }
}

// ---- per-thread rings ---------------------------------------------------

struct Tracer::TlsHandle {
  ThreadRing* ring = nullptr;
  ~TlsHandle() {
    if (ring != nullptr) Tracer::Global().ReleaseRing(ring);
  }
};

Tracer::ThreadRing* Tracer::LocalRing() {
  thread_local TlsHandle tls;
  if (tls.ring == nullptr) {
    std::lock_guard<std::mutex> lock(rings_mu_);
    if (!free_rings_.empty()) {
      // Reuse a ring released by a finished thread (shard workers churn);
      // it keeps its retained events but records under a fresh tid.
      tls.ring = free_rings_.back();
      free_rings_.pop_back();
    } else {
      rings_.push_back(std::make_unique<ThreadRing>());
      tls.ring = rings_.back().get();
      rings_allocated_.fetch_add(1, std::memory_order_relaxed);
    }
    tls.ring->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  }
  return tls.ring;
}

void Tracer::ReleaseRing(ThreadRing* ring) {
  std::lock_guard<std::mutex> lock(rings_mu_);
  free_rings_.push_back(ring);
}

// ---- recording ----------------------------------------------------------

void Tracer::RecordSpan(TraceCat cat, const char* name, TraceId trace,
                        SpanId span, SpanId parent, int64_t start_nanos,
                        int64_t dur_nanos, int64_t arg1, int64_t arg2,
                        int64_t arg3) {
  if (!enabled()) return;
  ThreadRing* tr = LocalRing();
  uint64_t h = tr->ring.head.load(std::memory_order_relaxed);
  WriteSlot(tr->ring.slots[h % kRingSlots], cat, tr->tid, name, trace, span,
            parent, start_nanos, dur_nanos, arg1, arg2, arg3);
  tr->ring.head.store(h + 1, std::memory_order_release);
  if (cat != TraceCat::kOperator && cat != TraceCat::kShard) {
    // Lifecycle spans are rare; mirror them into the flight recorder so an
    // incident dump shows what led up to the incident.
    uint64_t fh = flight_.head.fetch_add(1, std::memory_order_relaxed);
    WriteSlot(flight_.slots[fh % kFlightSlots], cat, tr->tid, name, trace,
              span, parent, start_nanos, dur_nanos, arg1, arg2, arg3);
  }
}

void Tracer::Instant(TraceCat cat, const char* name, TraceId trace,
                     int64_t arg1, int64_t arg2) {
  if (!enabled()) return;
  RecordSpan(cat, name, trace, NextSpanId(), CurrentSpan(), NowNanos(),
             /*dur_nanos=*/-1, arg1, arg2);
}

void Tracer::FlightMark(TraceCat cat, const char* name, TraceId trace,
                        int64_t arg1, int64_t arg2) {
  if (enabled()) {
    // Tracing on: record normally; RecordSpan mirrors non-operator events
    // into the flight ring already.
    Instant(cat, name, trace, arg1, arg2);
    return;
  }
  // Tracing off: flight recorder only. Fixed member storage — never
  // allocates, which is what keeps the always-on path safe to leave in.
  uint64_t fh = flight_.head.fetch_add(1, std::memory_order_relaxed);
  WriteSlot(flight_.slots[fh % kFlightSlots], cat, /*tid=*/0, name, trace,
            next_span_.fetch_add(1, std::memory_order_relaxed),
            /*parent=*/0, NowNanos(), /*dur=*/-1, arg1, arg2, /*a3=*/0);
}

void Tracer::NoteIncident(const char* reason, TraceId trace) {
  FlightMark(TraceCat::kIncident, reason, trace);
  incident_count_.fetch_add(1, std::memory_order_relaxed);
  IncidentDump dump;
  dump.reason = reason == nullptr ? "" : reason;
  dump.trace_id = trace;
  dump.at_nanos = NowNanos();
  CopyRing(flight_, &dump.events);
  std::lock_guard<std::mutex> lock(incidents_mu_);
  incidents_.push_back(std::move(dump));
  if (incidents_.size() > kMaxIncidentDumps) {
    incidents_.erase(incidents_.begin());
  }
}

std::vector<Tracer::IncidentDump> Tracer::IncidentDumps() const {
  std::lock_guard<std::mutex> lock(incidents_mu_);
  return incidents_;
}

// ---- snapshots ----------------------------------------------------------

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    for (const auto& tr : rings_) CopyRing(tr->ring, &out);
  }
  // Flight-only events (recorded while tracing was off) have tid 0 and are
  // not in any thread ring; include them, dropping duplicates by span id.
  std::vector<TraceEvent> flight;
  CopyRing(flight_, &flight);
  for (auto& ev : flight) {
    bool dup = false;
    for (const auto& seen : out) {
      if (seen.span_id == ev.span_id && seen.start_nanos == ev.start_nanos) {
        dup = true;
        break;
      }
    }
    if (!dup) out.push_back(std::move(ev));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_nanos < b.start_nanos;
                   });
  return out;
}

void Tracer::Clear() {
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    for (auto& tr : rings_) {
      uint64_t head = tr->ring.head.load(std::memory_order_relaxed);
      for (auto& s : tr->ring.slots) {
        WriteSlot(s, TraceCat::kEngine, 0, "", 0, 0, 0, 0, 0, 0, 0, 0);
      }
      tr->ring.head.store(head, std::memory_order_relaxed);
    }
  }
  uint64_t fh = flight_.head.load(std::memory_order_relaxed);
  for (auto& s : flight_.slots) {
    WriteSlot(s, TraceCat::kEngine, 0, "", 0, 0, 0, 0, 0, 0, 0, 0);
  }
  flight_.head.store(fh, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(incidents_mu_);
  incidents_.clear();
}

// ---- exporters ----------------------------------------------------------

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  // Timestamps are exported relative to the earliest event so the viewer
  // opens at t=0 instead of hours into a monotonic clock.
  int64_t base = 0;
  for (const auto& ev : events) {
    if (base == 0 || ev.start_nanos < base) base = ev.start_nanos;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out +=
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"spstream\"}}";
  char buf[256];
  for (const auto& ev : events) {
    out += ",\n{\"name\":\"";
    out += JsonEscape(ev.name);
    out += "\",\"cat\":\"";
    out += TraceCatName(ev.cat);
    out += "\",\"pid\":1,";
    if (ev.is_instant()) {
      std::snprintf(buf, sizeof(buf),
                    "\"ph\":\"i\",\"s\":\"t\",\"tid\":%u,\"ts\":%.3f,",
                    ev.tid, ToMicros(ev.start_nanos - base));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "\"ph\":\"X\",\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,",
                    ev.tid, ToMicros(ev.start_nanos - base),
                    ToMicros(ev.dur_nanos));
    }
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"args\":{\"trace\":\"%s\",\"span\":\"%s\",\"parent\":"
                  "\"%s\",\"arg1\":%lld,\"arg2\":%lld,\"arg3\":%lld}}",
                  HexId(ev.trace_id).c_str(), HexId(ev.span_id).c_str(),
                  HexId(ev.parent_id).c_str(),
                  static_cast<long long>(ev.arg1),
                  static_cast<long long>(ev.arg2),
                  static_cast<long long>(ev.arg3));
    out += buf;
  }
  out += "]}\n";
  return out;
}

std::string RenderTimeline(const std::vector<TraceEvent>& events,
                           size_t max_rows) {
  std::vector<TraceEvent> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_nanos < b.start_nanos;
                   });
  size_t begin = 0;
  if (max_rows > 0 && sorted.size() > max_rows) {
    begin = sorted.size() - max_rows;
  }
  int64_t base = sorted.empty() ? 0 : sorted.front().start_nanos;
  std::string out =
      "     t(ms)    dur(us)  tid cat       trace              event\n";
  char buf[256];
  for (size_t i = begin; i < sorted.size(); ++i) {
    const TraceEvent& ev = sorted[i];
    char dur[32];
    if (ev.is_instant()) {
      std::snprintf(dur, sizeof(dur), "%10s", "-");
    } else {
      std::snprintf(dur, sizeof(dur), "%10.1f", ToMicros(ev.dur_nanos));
    }
    std::snprintf(buf, sizeof(buf), "%10.3f %s %4u %-9s %-18s %s",
                  static_cast<double>(ev.start_nanos - base) / 1e6, dur,
                  ev.tid, TraceCatName(ev.cat), HexId(ev.trace_id).c_str(),
                  ev.name.c_str());
    out += buf;
    if (ev.arg1 != 0 || ev.arg2 != 0 || ev.arg3 != 0) {
      std::snprintf(buf, sizeof(buf), " (%lld, %lld, %lld)",
                    static_cast<long long>(ev.arg1),
                    static_cast<long long>(ev.arg2),
                    static_cast<long long>(ev.arg3));
      out += buf;
    }
    out += '\n';
  }
  if (begin > 0) {
    out += "  ... " + std::to_string(begin) + " earlier events\n";
  }
  return out;
}

}  // namespace spstream

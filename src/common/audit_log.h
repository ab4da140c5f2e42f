// Structured security audit log — the "who was denied what, and under which
// policy" trail an access-control engine owes its operators.
//
// A fixed-capacity ring buffer of typed events: policy installs and
// expirations as sp-batches reach a Security Shield, per-query denial events
// carrying the responsible sp (batch) timestamp and role predicate, and
// re-plans after a role change. A Security Shield audits a run of denials
// under one policy as one event that lists the run's tuple ids. All-time
// per-kind counters survive wraparound and count a run by its tuples, so
// aggregate assertions ("every security drop has a denial event") hold even
// after old events are evicted.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace spstream {

enum class AuditEventKind : uint8_t {
  kPolicyInstall = 0,  ///< an sp-batch arrived and took effect at a shield
  kPolicyExpire,       ///< a policy was overridden by a newer batch (or stale)
  kDenial,             ///< a tuple (or join result) was denied
  kPlanAdapt,          ///< a runtime role change re-planned a query
  kNetEviction,        ///< the stream server evicted a connection
  kQueryQuarantine,    ///< a faulted shard/operator failed the query closed
  kStorage,            ///< durability lifecycle: commit, recovery, rebase
  kShed,               ///< overload control dropped data tuples at admission
  kRecovery,           ///< watchdog retried (or gave up on) a quarantine
  kShardFallback,      ///< a group's plan cannot be partitioned and runs on
                       ///< one pipeline despite num_shards > 1
};
constexpr int kNumAuditEventKinds = 10;

const char* AuditEventKindName(AuditEventKind kind);

/// \brief Immutable text shared by reference count. A producer renders a
/// value (a shield's role predicate, a policy's roles) once and every event
/// citing it shares the one buffer, so a run of denials copies a pointer
/// instead of the text. Reads like a `const std::string`.
class AuditText {
 public:
  AuditText() = default;
  /*implicit*/ AuditText(std::string text)
      : text_(std::make_shared<const std::string>(std::move(text))) {}
  /*implicit*/ AuditText(const char* text) : AuditText(std::string(text)) {}

  const std::string& str() const { return text_ ? *text_ : Empty(); }
  operator const std::string&() const { return str(); }
  bool empty() const { return str().empty(); }
  size_t find(std::string_view needle, size_t pos = 0) const {
    return str().find(needle, pos);
  }
  friend bool operator==(const AuditText& a, std::string_view b) {
    return a.str() == b;
  }
  friend std::ostream& operator<<(std::ostream& os, const AuditText& t) {
    return os << t.str();
  }

 private:
  static const std::string& Empty();
  std::shared_ptr<const std::string> text_;
};

/// \brief One audit record. Its text is rendered when the event is built
/// (shared with other events of the same value, see AuditText), so events
/// stay meaningful after the originating operator is gone.
struct AuditEvent {
  int64_t seq = 0;        ///< monotone id, stamped by AuditLog::Append
  AuditEventKind kind = AuditEventKind::kDenial;
  std::string scope;      ///< query tag ("q0") or "engine"
  std::string stream;     ///< stream the event concerns
  Timestamp sp_ts = 0;    ///< id of the responsible sp-batch (its timestamp)
  TupleId tuple_id = 0;   ///< denials: the (first) denied tuple's id
  /// Denials: bit i set means tuple `tuple_id + i` was denied. A Security
  /// Shield sets further bits while one run of denials lasts (same shield,
  /// same policy object, no event or passing tuple in between), so the ids
  /// stay exact although a select upstream leaves gaps. Bit 0 alone: one
  /// tuple, rendered as before runs existed.
  uint64_t tuple_offsets = 1;
  AuditText roles;        ///< role predicate of the denied query / the sp
  AuditText detail;       ///< free-form context (policy roles, sign, ...)
  /// Trace id of the span chain that produced the event (SpBatchTraceId of
  /// the responsible sp-batch for installs/denials, the epoch trace for
  /// quarantines), so `\audit` cross-references `\trace`. 0 when tracing is
  /// off.
  uint64_t trace_id = 0;

  /// \brief Tuples the event stands for: a denial run's length, else 1.
  int64_t count() const { return std::popcount(tuple_offsets); }
  /// \brief The ids of `tuple_offsets`, ascending.
  std::vector<TupleId> TupleIds() const;

  /// \brief One line; a run adds " count=N tuples=a..b,c" after `tuple=`.
  std::string ToString() const;
  /// \brief One JSON object, e.g. {"seq":3,"kind":"denial",...}; a run
  /// adds "count" and "tuple_ids" after "tuple_id".
  std::string ToJson() const;
};

/// \brief Thread-safe ring-buffered audit event stream.
class AuditLog {
 public:
  /// \brief A ring of the newest `capacity` events. The engine's log keeps
  /// the default; all-time per-kind counters survive eviction.
  explicit AuditLog(size_t capacity = 1024);

  /// \brief Append an event (stamps its seq). Oldest event is evicted once
  /// the ring is full.
  void Append(AuditEvent event);

  /// \brief Retained events, oldest first.
  std::vector<AuditEvent> Events() const;

  /// \brief The most recent `n` retained events, oldest first.
  std::vector<AuditEvent> Tail(size_t n) const;

  /// \brief All-time number of events appended (≥ retained count).
  int64_t total() const;

  /// \brief All-time count of one event kind (survives wraparound). A
  /// denial run counts its tuples, so CountOf(kDenial) is the number of
  /// denied tuples.
  int64_t CountOf(AuditEventKind kind) const;

  size_t capacity() const { return capacity_; }
  size_t retained() const;

  void Clear();

  /// \brief Retained events as a JSON array.
  std::string ToJson() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<AuditEvent> ring_;  // ring_[seq % capacity_]
  int64_t next_seq_ = 0;
  int64_t kind_counts_[kNumAuditEventKinds] = {};
};

}  // namespace spstream

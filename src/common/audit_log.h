// Structured security audit log — the "who was denied what, and under which
// policy" trail an access-control engine owes its operators.
//
// A fixed-capacity ring buffer of typed events: policy installs and
// expirations as sp-batches reach a Security Shield, per-query denial events
// carrying the responsible sp (batch) timestamp and role predicate, and
// re-plans after a role change. All-time per-kind counters survive wraparound, so
// aggregate assertions ("every security drop has a denial event") hold even
// after old events are evicted.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
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

/// \brief One audit record. String fields are rendered at emission time so
/// events stay meaningful after the originating operator is gone.
struct AuditEvent {
  int64_t seq = 0;        ///< monotone id, stamped by AuditLog::Append
  AuditEventKind kind = AuditEventKind::kDenial;
  std::string scope;      ///< query tag ("q0") or "engine"
  std::string stream;     ///< stream the event concerns
  Timestamp sp_ts = 0;    ///< id of the responsible sp-batch (its timestamp)
  TupleId tuple_id = 0;   ///< denials: the denied tuple's id
  std::string roles;      ///< role predicate of the denied query / the sp
  std::string detail;     ///< free-form context (policy roles, sign, ...)
  /// Trace id of the span chain that produced the event (SpBatchTraceId of
  /// the responsible sp-batch for installs/denials, the epoch trace for
  /// quarantines), so `\audit` cross-references `\trace`. 0 when tracing is
  /// off.
  uint64_t trace_id = 0;

  std::string ToString() const;
  /// \brief One JSON object, e.g. {"seq":3,"kind":"denial",...}.
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

  /// \brief All-time count of one event kind (survives wraparound).
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

#include "common/audit_log.h"

#include <sstream>

#include "common/string_util.h"

namespace spstream {

const char* AuditEventKindName(AuditEventKind kind) {
  switch (kind) {
    case AuditEventKind::kPolicyInstall: return "policy_install";
    case AuditEventKind::kPolicyExpire: return "policy_expire";
    case AuditEventKind::kDenial: return "denial";
    case AuditEventKind::kPlanAdapt: return "plan_adapt";
    case AuditEventKind::kNetEviction: return "net_eviction";
    case AuditEventKind::kQueryQuarantine: return "query_quarantined";
    case AuditEventKind::kStorage: return "storage";
    case AuditEventKind::kShed: return "shed";
    case AuditEventKind::kRecovery: return "recovery";
    case AuditEventKind::kShardFallback: return "shard_fallback";
  }
  return "unknown";
}

const std::string& AuditText::Empty() {
  static const std::string kEmpty;
  return kEmpty;
}

std::vector<TupleId> AuditEvent::TupleIds() const {
  std::vector<TupleId> ids;
  ids.reserve(static_cast<size_t>(count()));
  for (uint64_t rest = tuple_offsets; rest != 0; rest &= rest - 1) {
    ids.push_back(tuple_id + std::countr_zero(rest));
  }
  return ids;
}

std::string AuditEvent::ToString() const {
  std::ostringstream os;
  os << "#" << seq << " " << AuditEventKindName(kind);
  if (!scope.empty()) os << " scope=" << scope;
  if (!stream.empty()) os << " stream=" << stream;
  if (kind == AuditEventKind::kDenial) os << " tuple=" << tuple_id;
  if (count() > 1) {
    // Consecutive ids fold into "a..b" ranges.
    os << " count=" << count() << " tuples=";
    const std::vector<TupleId> ids = TupleIds();
    for (size_t i = 0; i < ids.size();) {
      size_t j = i;
      while (j + 1 < ids.size() && ids[j + 1] == ids[j] + 1) ++j;
      if (i) os << ",";
      os << ids[i];
      if (j > i) os << ".." << ids[j];
      i = j + 1;
    }
  }
  os << " sp_ts=" << sp_ts;
  if (!roles.empty()) os << " roles=" << roles;
  if (trace_id != 0) {
    os << " trace=0x" << std::hex << trace_id << std::dec;
  }
  if (!detail.empty()) os << " (" << detail << ")";
  return os.str();
}

std::string AuditEvent::ToJson() const {
  std::ostringstream os;
  os << "{\"seq\":" << seq << ",\"kind\":\"" << AuditEventKindName(kind)
     << "\",\"scope\":\"" << JsonEscape(scope) << "\",\"stream\":\""
     << JsonEscape(stream) << "\",\"sp_ts\":" << sp_ts
     << ",\"tuple_id\":" << tuple_id;
  if (count() > 1) {
    os << ",\"count\":" << count() << ",\"tuple_ids\":[";
    const std::vector<TupleId> ids = TupleIds();
    for (size_t i = 0; i < ids.size(); ++i) os << (i ? "," : "") << ids[i];
    os << "]";
  }
  os << ",\"roles\":\"" << JsonEscape(roles.str())
     << "\",\"trace_id\":" << trace_id
     << ",\"detail\":\"" << JsonEscape(detail.str()) << "\"}";
  return os.str();
}

AuditLog::AuditLog(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void AuditLog::Append(AuditEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  event.seq = next_seq_++;
  kind_counts_[static_cast<size_t>(event.kind)] += event.count();
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[static_cast<size_t>(event.seq) % capacity_] = std::move(event);
  }
}

std::vector<AuditEvent> AuditLog::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AuditEvent> out;
  out.reserve(ring_.size());
  const int64_t oldest =
      next_seq_ - static_cast<int64_t>(ring_.size());
  for (int64_t seq = oldest; seq < next_seq_; ++seq) {
    out.push_back(ring_[static_cast<size_t>(seq) % capacity_]);
  }
  return out;
}

std::vector<AuditEvent> AuditLog::Tail(size_t n) const {
  std::vector<AuditEvent> all = Events();
  if (all.size() <= n) return all;
  return std::vector<AuditEvent>(all.end() - static_cast<int64_t>(n),
                                 all.end());
}

int64_t AuditLog::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

int64_t AuditLog::CountOf(AuditEventKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return kind_counts_[static_cast<size_t>(kind)];
}

size_t AuditLog::retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

void AuditLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_seq_ = 0;
  for (int64_t& c : kind_counts_) c = 0;
}

std::string AuditLog::ToJson() const {
  std::vector<AuditEvent> events = Events();
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i) os << ",";
    os << events[i].ToJson();
  }
  os << "]";
  return os.str();
}

}  // namespace spstream

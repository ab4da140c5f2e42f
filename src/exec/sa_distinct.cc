#include "exec/sa_distinct.h"

#include <algorithm>

#include "security/sp_codec.h"
#include "storage/state_codec.h"

namespace spstream {

SaDistinct::SaDistinct(ExecContext* ctx, SaDistinctOptions options,
                       std::string label)
    : Operator(ctx, std::move(label)),
      options_(std::move(options)),
      tracker_(ctx->roles, options_.stream_name) {}

void SaDistinct::Invalidate(Timestamp now) {
  if (now > watermark_) watermark_ = now;
  const Timestamp cutoff = now - options_.window_size;
  while (!input_window_.empty() && input_window_.front().ts <= cutoff) {
    const InputRec& rec = input_window_.front();
    dirty_keys_.insert(rec.key);
    auto it = output_state_.find(rec.key);
    if (it != output_state_.end() && --it->second.live_count <= 0) {
      // The value left the window entirely: forget it so a future arrival
      // counts as a fresh distinct value.
      output_state_.erase(it);
    }
    input_window_.pop_front();
  }
}

void SaDistinct::UpdateStateBytes() {
  size_t bytes = sizeof(SaDistinct) + tracker_.MemoryBytes();
  bytes += input_window_.size() * sizeof(InputRec);
  for (const auto& [key, st] : output_state_) {
    bytes += key.MemoryBytes() + st.representative.MemoryBytes() +
             st.emitted_roles.MemoryBytes();
  }
  metrics_.NoteStateBytes(static_cast<int64_t>(bytes));
}

void SaDistinct::Process(StreamElement&& elem, int) {
  if (elem.is_sp()) {
    ++metrics_.sps_in;
    ScopedTimer t(&metrics_.sp_maintenance_nanos);
    if (tracker_.OnSp(elem.sp())) ++metrics_.policy_installs;
    return;
  }
  if (!elem.is_tuple()) {
    Emit(std::move(elem));
    return;
  }

  ++metrics_.tuples_in;
  Tuple& t = elem.tuple();
  if (options_.key_col < 0 ||
      static_cast<size_t>(options_.key_col) >= t.values.size()) {
    return;  // malformed tuple; nothing to deduplicate on
  }

  {
    ScopedTimer tm(&metrics_.tuple_maintenance_nanos);
    Invalidate(t.ts);
  }

  PolicyPtr policy;
  {
    ScopedTimer tm(&metrics_.sp_maintenance_nanos);
    policy = tracker_.PolicyFor(t);
  }
  const Value key = t.values[static_cast<size_t>(options_.key_col)];
  input_window_.push_back(InputRec{t.ts, key});
  ++total_appended_;
  dirty_keys_.insert(key);

  auto it = output_state_.find(key);
  if (it == output_state_.end()) {
    OutState st;
    st.representative = t;
    st.emitted_roles = policy->allowed();
    st.live_count = 1;
    output_state_.emplace(key, std::move(st));
    if (!policy->allowed().Empty()) {
      if (output_emitter_.NeedsSp(policy->allowed(), t.ts)) {
        EmitSp(SynthesizeSp(policy->allowed(),
                            output_emitter_.MonotoneTs(t.ts),
                            options_.output_stream_name, *ctx_->roles));
      }
      Tuple out = std::move(t);
      out.sid = 0;  // derived streams carry sid 0
      EmitTuple(std::move(out));
    }
    UpdateStateBytes();
    return;
  }

  OutState& st = it->second;
  ++st.live_count;
  // Roles in P_new that never received this value yet.
  RoleSet fresh = RoleSet::Difference(policy->allowed(), st.emitted_roles);
  st.emitted_roles.UnionWith(policy->allowed());
  if (!fresh.Empty()) {
    if (output_emitter_.NeedsSp(fresh, t.ts)) {
      EmitSp(SynthesizeSp(fresh, output_emitter_.MonotoneTs(t.ts),
                          options_.output_stream_name, *ctx_->roles));
    }
    Tuple out = std::move(t);
    out.sid = 0;  // derived streams carry sid 0
    EmitTuple(std::move(out));
  } else {
    ++metrics_.tuples_dropped_predicate;  // duplicate for every role
  }
  UpdateStateBytes();
}

// ---- durable state (docs/DURABILITY.md) ------------------------------------

void SaDistinct::CheckpointState(std::string* out, bool full) {
  pending_tracker_ts_ = tracker_.current_ts();
  pending_emitter_ts_ = output_emitter_.last_ts();
  pending_appended_ = total_appended_;
  const uint64_t new_records = total_appended_ - ckpt_appended_;
  if (!full && dirty_keys_.empty() && new_records == 0 &&
      pending_tracker_ts_ == ckpt_tracker_ts_ &&
      pending_emitter_ts_ == ckpt_emitter_ts_) {
    return;
  }

  out->push_back(full ? 1 : 0);
  PutVarint(ZigZagEncode(pending_tracker_ts_), out);
  PutVarint(ZigZagEncode(pending_emitter_ts_), out);
  PutVarint(ZigZagEncode(watermark_), out);

  // Dirty dedup entries: snapshot upsert, or tombstone when the value left
  // the window. Snapshots are authoritative — restore replays no counting.
  std::vector<const Value*> keys;
  if (full) {
    for (const auto& [key, st] : output_state_) {
      (void)st;
      keys.push_back(&key);
    }
  } else {
    for (const Value& key : dirty_keys_) keys.push_back(&key);
  }
  PutVarint(keys.size(), out);
  for (const Value* key : keys) {
    storage::PutValue(*key, out);
    auto it = output_state_.find(*key);
    if (it == output_state_.end()) {
      out->push_back(0);  // tombstone
      continue;
    }
    out->push_back(1);
    storage::PutTuple(it->second.representative, out);
    storage::PutRoleSet(it->second.emitted_roles, out);
    PutVarint(static_cast<uint64_t>(it->second.live_count), out);
  }

  const uint64_t n = full ? input_window_.size()
                          : std::min<uint64_t>(new_records,
                                               input_window_.size());
  PutVarint(total_appended_, out);
  PutVarint(n, out);
  for (size_t i = input_window_.size() - static_cast<size_t>(n);
       i < input_window_.size(); ++i) {
    PutVarint(ZigZagEncode(input_window_[i].ts), out);
    storage::PutValue(input_window_[i].key, out);
  }
}

void SaDistinct::OnCheckpointDurable() {
  dirty_keys_.clear();
  ckpt_appended_ = pending_appended_;
  ckpt_tracker_ts_ = pending_tracker_ts_;
  ckpt_emitter_ts_ = pending_emitter_ts_;
}

Status SaDistinct::RestoreState(std::string_view blob) {
  size_t offset = 0;
  if (offset >= blob.size()) {
    return Status::Internal("distinct delta: empty blob");
  }
  const bool full = blob[offset] != 0;
  ++offset;
  SP_ASSIGN_OR_RETURN(uint64_t tr_raw, GetVarint(blob, &offset));
  SP_ASSIGN_OR_RETURN(uint64_t em_raw, GetVarint(blob, &offset));
  SP_ASSIGN_OR_RETURN(uint64_t wm_raw, GetVarint(blob, &offset));

  if (full) {
    output_state_.clear();
    input_window_.clear();
  }

  tracker_.RestoreFailClosed(ZigZagDecode(tr_raw));
  output_emitter_.Restore(ZigZagDecode(em_raw));
  const Timestamp watermark = ZigZagDecode(wm_raw);
  if (watermark > watermark_) watermark_ = watermark;

  SP_ASSIGN_OR_RETURN(uint64_t n_keys, GetVarint(blob, &offset));
  for (uint64_t i = 0; i < n_keys; ++i) {
    SP_ASSIGN_OR_RETURN(Value key, storage::GetValue(blob, &offset));
    if (offset >= blob.size()) {
      return Status::Internal("distinct delta: truncated entry");
    }
    const bool present = blob[offset] != 0;
    ++offset;
    if (!present) {
      output_state_.erase(key);
      continue;
    }
    OutState st;
    SP_ASSIGN_OR_RETURN(st.representative, storage::GetTuple(blob, &offset));
    SP_ASSIGN_OR_RETURN(st.emitted_roles, storage::GetRoleSet(blob, &offset));
    SP_ASSIGN_OR_RETURN(uint64_t live, GetVarint(blob, &offset));
    st.live_count = static_cast<int64_t>(live);
    output_state_[key] = std::move(st);
  }

  SP_ASSIGN_OR_RETURN(uint64_t appended_total, GetVarint(blob, &offset));
  SP_ASSIGN_OR_RETURN(uint64_t n_records, GetVarint(blob, &offset));
  for (uint64_t i = 0; i < n_records; ++i) {
    SP_ASSIGN_OR_RETURN(uint64_t ts_raw, GetVarint(blob, &offset));
    SP_ASSIGN_OR_RETURN(Value key, storage::GetValue(blob, &offset));
    input_window_.push_back(InputRec{ZigZagDecode(ts_raw), std::move(key)});
  }
  if (offset != blob.size()) {
    return Status::Internal("distinct delta: trailing bytes");
  }

  // Drop records that already expired pre-crash without touching counts —
  // the snapshots above reflect those expiries.
  if (watermark_ > kMinTimestamp) {
    const Timestamp cutoff = watermark_ - options_.window_size;
    while (!input_window_.empty() && input_window_.front().ts <= cutoff) {
      input_window_.pop_front();
    }
  }

  total_appended_ = std::max(total_appended_, appended_total);
  ckpt_appended_ = pending_appended_ = total_appended_;
  ckpt_tracker_ts_ = pending_tracker_ts_ = tracker_.current_ts();
  ckpt_emitter_ts_ = pending_emitter_ts_ = output_emitter_.last_ts();
  dirty_keys_.clear();
  return Status::OK();
}

}  // namespace spstream

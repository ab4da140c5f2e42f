#include "exec/sa_groupby.h"

#include <algorithm>
#include <cstring>

#include "security/sp_codec.h"
#include "storage/state_codec.h"

namespace spstream {

namespace {

void PutF64(double d, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

Result<double> GetF64(std::string_view data, size_t* offset) {
  if (*offset + 8 > data.size()) {
    return Status::Internal("groupby delta: truncated double");
  }
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(
                static_cast<uint8_t>(data[*offset + static_cast<size_t>(i)]))
            << (8 * i);
  }
  *offset += 8;
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

}  // namespace

const char* AggFnToString(AggFn fn) {
  switch (fn) {
    case AggFn::kCount:
      return "COUNT";
    case AggFn::kSum:
      return "SUM";
    case AggFn::kAvg:
      return "AVG";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
  }
  return "?";
}

SaGroupBy::SaGroupBy(ExecContext* ctx, SaGroupByOptions options,
                     std::string label)
    : Operator(ctx, std::move(label)),
      options_(std::move(options)),
      tracker_(ctx->roles, options_.stream_name) {
  output_schema_ = MakeSchema(
      options_.output_stream_name,
      {Field{"group_key", ValueType::kNull},
       Field{std::string(AggFnToString(options_.agg_fn)),
             ValueType::kDouble}});
}

SaGroupBy::AsgPtr SaGroupBy::Find(AsgPtr node) {
  while (node->parent) node = node->parent;
  return node;
}

void SaGroupBy::AddToAsg(const AsgPtr& asg, double v) {
  ++asg->count;
  asg->sum += v;
  if (options_.agg_fn == AggFn::kMin || options_.agg_fn == AggFn::kMax) {
    asg->ordered.insert(v);
  }
}

void SaGroupBy::RemoveFromAsg(const AsgPtr& asg, double v) {
  --asg->count;
  asg->sum -= v;
  if (options_.agg_fn == AggFn::kMin || options_.agg_fn == AggFn::kMax) {
    auto it = asg->ordered.find(v);
    if (it != asg->ordered.end()) asg->ordered.erase(it);
  }
}

Value SaGroupBy::CurrentAggregate(const Asg& asg) const {
  switch (options_.agg_fn) {
    case AggFn::kCount:
      return asg.count;
    case AggFn::kSum:
      return asg.sum;
    case AggFn::kAvg:
      return asg.count == 0 ? Value::Null() : Value(asg.sum / asg.count);
    case AggFn::kMin:
      return asg.ordered.empty() ? Value::Null() : Value(*asg.ordered.begin());
    case AggFn::kMax:
      return asg.ordered.empty() ? Value::Null()
                                 : Value(*asg.ordered.rbegin());
  }
  return Value::Null();
}

void SaGroupBy::EmitAsgResult(const Asg& asg, Timestamp ts) {
  if (asg.policy.Empty()) return;  // nobody may read this subgroup
  if (output_emitter_.NeedsSp(asg.policy, ts)) {
    EmitSp(SynthesizeSp(asg.policy, output_emitter_.MonotoneTs(ts),
                        options_.output_stream_name, *ctx_->roles));
  }
  Tuple out;
  out.tid = 0;
  out.ts = ts;
  out.values = {asg.key, CurrentAggregate(asg)};
  EmitTuple(std::move(out));
}

void SaGroupBy::Invalidate(Timestamp now) {
  if (now > watermark_) watermark_ = now;
  const Timestamp cutoff = now - options_.window_size;
  while (!input_window_.empty() && input_window_.front().ts <= cutoff) {
    InputRec rec = std::move(input_window_.front());
    input_window_.pop_front();
    AsgPtr root = Find(rec.asg);
    dirty_keys_.insert(root->key);
    RemoveFromAsg(root, rec.agg_value);  // expiry update (2nd change)
    if (root->count <= 0) {
      auto git = groups_.find(root->key);
      if (git != groups_.end()) {
        auto& vec = git->second;
        vec.erase(std::remove_if(vec.begin(), vec.end(),
                                 [&](const AsgPtr& a) {
                                   return Find(a) == root || a == root;
                                 }),
                  vec.end());
        if (vec.empty()) groups_.erase(git);
      }
    }
  }
}

void SaGroupBy::Process(StreamElement&& elem, int) {
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
  const Tuple& t = elem.tuple();
  const size_t key_col = static_cast<size_t>(options_.key_col);
  const size_t agg_col = static_cast<size_t>(options_.agg_col);
  if (key_col >= t.values.size() ||
      (options_.agg_fn != AggFn::kCount && agg_col >= t.values.size())) {
    return;
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
  const Value key = t.values[key_col];
  const double agg_value =
      options_.agg_fn == AggFn::kCount ? 1.0 : t.values[agg_col].AsDouble();

  // Locate the ASG(s) of this key whose policies intersect the tuple's.
  auto& asgs = groups_[key];
  AsgPtr target;
  for (auto& asg_ref : asgs) {
    AsgPtr root = Find(asg_ref);
    if (root->count <= 0) continue;
    if (!root->policy.Intersects(policy->allowed())) continue;
    if (!target) {
      target = root;
    } else if (root != target) {
      // The tuple's policy bridges two subgroups: merge (their policies
      // stay pairwise non-intersecting by construction afterwards).
      target->count += root->count;
      target->sum += root->sum;
      target->ordered.insert(root->ordered.begin(), root->ordered.end());
      target->policy.UnionWith(root->policy);
      root->parent = target;
      root->ordered.clear();
      merges_.emplace_back(root->id, target->id);
    }
  }
  if (!target) {
    target = std::make_shared<Asg>();
    target->key = key;
    target->id = next_asg_id_++;
    asgs.push_back(target);
  }
  dirty_keys_.insert(key);
  target->policy.UnionWith(policy->allowed());
  AddToAsg(target, agg_value);  // arrival update (1st change)
  input_window_.push_back(InputRec{t.ts, agg_value, target});
  ++total_appended_;

  // Drop forwarding stubs so lookups stay short.
  asgs.erase(std::remove_if(asgs.begin(), asgs.end(),
                            [](const AsgPtr& a) {
                              return a->parent != nullptr;
                            }),
             asgs.end());

  EmitAsgResult(*target, t.ts);
  UpdateStateBytes();
}

void SaGroupBy::OnAllFinished() {
  // Final snapshot: report every live subgroup once more.
  for (auto& [key, asgs] : groups_) {
    (void)key;
    for (auto& asg : asgs) {
      AsgPtr root = Find(asg);
      if (root->count > 0 && asg == root) {
        EmitAsgResult(*root, kMaxTimestamp);
      }
    }
  }
}

size_t SaGroupBy::asg_count() const {
  size_t n = 0;
  for (const auto& [key, asgs] : groups_) {
    (void)key;
    for (const auto& asg : asgs) {
      if (!asg->parent && asg->count > 0) ++n;
    }
  }
  return n;
}

// ---- durable state (docs/DURABILITY.md) ------------------------------------

void SaGroupBy::CheckpointState(std::string* out, bool full) {
  pending_tracker_ts_ = tracker_.current_ts();
  pending_emitter_ts_ = output_emitter_.last_ts();
  pending_appended_ = total_appended_;
  const uint64_t new_records = total_appended_ - ckpt_appended_;
  if (!full && dirty_keys_.empty() && merges_.empty() && new_records == 0 &&
      pending_tracker_ts_ == ckpt_tracker_ts_ &&
      pending_emitter_ts_ == ckpt_emitter_ts_) {
    return;
  }

  out->push_back(full ? 1 : 0);
  PutVarint(ZigZagEncode(pending_tracker_ts_), out);
  PutVarint(ZigZagEncode(pending_emitter_ts_), out);
  PutVarint(ZigZagEncode(watermark_), out);
  PutVarint(next_asg_id_, out);

  PutVarint(full ? 0 : merges_.size(), out);
  if (!full) {
    for (const auto& [from, to] : merges_) {
      PutVarint(from, out);
      PutVarint(to, out);
    }
  }

  // Dirty attribute groups (all groups on a full snapshot): the live roots
  // of each, snapshotted whole. A dirty key with no live root is a
  // tombstone (zero roots) — the restore erases the group.
  std::vector<const Value*> keys;
  if (full) {
    for (const auto& [key, asgs] : groups_) {
      (void)asgs;
      keys.push_back(&key);
    }
  } else {
    for (const Value& key : dirty_keys_) keys.push_back(&key);
  }
  PutVarint(keys.size(), out);
  for (const Value* key : keys) {
    storage::PutValue(*key, out);
    std::vector<const Asg*> roots;
    auto git = groups_.find(*key);
    if (git != groups_.end()) {
      for (const AsgPtr& asg : git->second) {
        if (!asg->parent && asg->count > 0) roots.push_back(asg.get());
      }
    }
    PutVarint(roots.size(), out);
    for (const Asg* asg : roots) {
      PutVarint(asg->id, out);
      storage::PutRoleSet(asg->policy, out);
      PutVarint(static_cast<uint64_t>(asg->count), out);
      PutF64(asg->sum, out);
      PutVarint(asg->ordered.size(), out);
      for (double v : asg->ordered) PutF64(v, out);
    }
  }

  // Window records appended since the cursor (everything on full). Records
  // that already expired again need no replay — the snapshots above are
  // authoritative for the aggregates.
  const uint64_t n = full ? input_window_.size()
                          : std::min<uint64_t>(new_records,
                                               input_window_.size());
  PutVarint(total_appended_, out);
  PutVarint(n, out);
  for (size_t i = input_window_.size() - static_cast<size_t>(n);
       i < input_window_.size(); ++i) {
    const InputRec& rec = input_window_[i];
    PutVarint(ZigZagEncode(rec.ts), out);
    PutF64(rec.agg_value, out);
    PutVarint(Find(rec.asg)->id, out);
  }
}

void SaGroupBy::OnCheckpointDurable() {
  dirty_keys_.clear();
  merges_.clear();
  ckpt_appended_ = pending_appended_;
  ckpt_tracker_ts_ = pending_tracker_ts_;
  ckpt_emitter_ts_ = pending_emitter_ts_;
}

Status SaGroupBy::RestoreState(std::string_view blob) {
  size_t offset = 0;
  if (offset >= blob.size()) {
    return Status::Internal("groupby delta: empty blob");
  }
  const bool full = blob[offset] != 0;
  ++offset;
  SP_ASSIGN_OR_RETURN(uint64_t tr_raw, GetVarint(blob, &offset));
  SP_ASSIGN_OR_RETURN(uint64_t em_raw, GetVarint(blob, &offset));
  SP_ASSIGN_OR_RETURN(uint64_t wm_raw, GetVarint(blob, &offset));
  SP_ASSIGN_OR_RETURN(uint64_t next_id, GetVarint(blob, &offset));

  if (full) {
    groups_.clear();
    input_window_.clear();
    restore_map_.clear();
  }

  tracker_.RestoreFailClosed(ZigZagDecode(tr_raw));
  output_emitter_.Restore(ZigZagDecode(em_raw));
  const Timestamp watermark = ZigZagDecode(wm_raw);
  if (watermark > watermark_) watermark_ = watermark;
  next_asg_id_ = std::max(next_asg_id_, next_id);

  // Merge log first: records restored from older deltas keep forwarding.
  SP_ASSIGN_OR_RETURN(uint64_t n_merges, GetVarint(blob, &offset));
  for (uint64_t i = 0; i < n_merges; ++i) {
    SP_ASSIGN_OR_RETURN(uint64_t from, GetVarint(blob, &offset));
    SP_ASSIGN_OR_RETURN(uint64_t to, GetVarint(blob, &offset));
    AsgPtr& to_asg = restore_map_[to];
    if (!to_asg) {
      to_asg = std::make_shared<Asg>();
      to_asg->id = to;
    }
    AsgPtr& from_asg = restore_map_[from];
    if (!from_asg) {
      from_asg = std::make_shared<Asg>();
      from_asg->id = from;
    }
    from_asg->parent = to_asg;
    from_asg->ordered.clear();
  }

  SP_ASSIGN_OR_RETURN(uint64_t n_groups, GetVarint(blob, &offset));
  for (uint64_t g = 0; g < n_groups; ++g) {
    SP_ASSIGN_OR_RETURN(Value key, storage::GetValue(blob, &offset));
    SP_ASSIGN_OR_RETURN(uint64_t n_asgs, GetVarint(blob, &offset));
    std::vector<AsgPtr> asgs;
    asgs.reserve(n_asgs);
    for (uint64_t a = 0; a < n_asgs; ++a) {
      SP_ASSIGN_OR_RETURN(uint64_t id, GetVarint(blob, &offset));
      SP_ASSIGN_OR_RETURN(RoleSet policy, storage::GetRoleSet(blob, &offset));
      SP_ASSIGN_OR_RETURN(uint64_t count, GetVarint(blob, &offset));
      SP_ASSIGN_OR_RETURN(double sum, GetF64(blob, &offset));
      SP_ASSIGN_OR_RETURN(uint64_t n_ordered, GetVarint(blob, &offset));
      AsgPtr& asg = restore_map_[id];
      if (!asg) {
        asg = std::make_shared<Asg>();
        asg->id = id;
      }
      asg->parent = nullptr;
      asg->policy = std::move(policy);
      asg->count = static_cast<int64_t>(count);
      asg->sum = sum;
      asg->ordered.clear();
      for (uint64_t i = 0; i < n_ordered; ++i) {
        SP_ASSIGN_OR_RETURN(double v, GetF64(blob, &offset));
        asg->ordered.insert(v);
      }
      asg->key = key;
      asgs.push_back(asg);
    }
    if (asgs.empty()) {
      groups_.erase(key);  // tombstone: the whole group expired
    } else {
      groups_[key] = std::move(asgs);
    }
  }

  SP_ASSIGN_OR_RETURN(uint64_t appended_total, GetVarint(blob, &offset));
  SP_ASSIGN_OR_RETURN(uint64_t n_records, GetVarint(blob, &offset));
  for (uint64_t i = 0; i < n_records; ++i) {
    SP_ASSIGN_OR_RETURN(uint64_t ts_raw, GetVarint(blob, &offset));
    SP_ASSIGN_OR_RETURN(double agg_value, GetF64(blob, &offset));
    SP_ASSIGN_OR_RETURN(uint64_t id, GetVarint(blob, &offset));
    auto it = restore_map_.find(id);
    if (it == restore_map_.end()) {
      return Status::Internal("groupby delta: window record references "
                              "unknown asg " + std::to_string(id));
    }
    input_window_.push_back(
        InputRec{ZigZagDecode(ts_raw), agg_value, it->second});
  }
  if (offset != blob.size()) {
    return Status::Internal("groupby delta: trailing bytes");
  }

  // Re-derive expiry WITHOUT touching aggregates: the snapshots already
  // reflect every pre-crash expiry; only the record bookkeeping must go.
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
  merges_.clear();
  return Status::OK();
}

void SaGroupBy::OnRestoreComplete() {
  restore_map_.clear();
  UpdateStateBytes();
}

void SaGroupBy::UpdateStateBytes() {
  size_t bytes = sizeof(SaGroupBy) + tracker_.MemoryBytes();
  bytes += input_window_.size() * sizeof(InputRec);
  for (const auto& [key, asgs] : groups_) {
    bytes += key.MemoryBytes();
    for (const auto& asg : asgs) {
      bytes += sizeof(Asg) + asg->policy.MemoryBytes() +
               asg->ordered.size() * (sizeof(double) + 3 * sizeof(void*));
    }
  }
  metrics_.NoteStateBytes(static_cast<int64_t>(bytes));
}

}  // namespace spstream

#include "exec/sajoin.h"

#include <algorithm>
#include <cassert>

#include "common/audit_log.h"
#include "security/sp_codec.h"

namespace spstream {

namespace {

/// Probe-loop key equality. The inner loop runs once per resident opposite
/// tuple, so the common case — both keys int64 — compares inline instead of
/// calling Value::Compare; everything else (strings, nulls, int64/double
/// cross-kind numeric equality) falls back to the full comparison.
struct KeyMatcher {
  const Value& key;
  const bool is_i64;
  const int64_t i64;

  explicit KeyMatcher(const Value& k)
      : key(k), is_i64(k.is_int64()), i64(is_i64 ? k.int64() : 0) {}

  bool operator()(const Value& other) const {
    if (is_i64 && other.is_int64()) return other.int64() == i64;
    return other == key;
  }
};

}  // namespace

SaJoinBase::SaJoinBase(ExecContext* ctx, SaJoinOptions options,
                       std::string label)
    : Operator(ctx, std::move(label), /*num_inputs=*/2),
      options_(std::move(options)),
      trackers_{PolicyTracker(ctx->roles, options_.left_stream_name),
                PolicyTracker(ctx->roles, options_.right_stream_name)},
      windows_{SegmentedWindow(options_.window_size),
               SegmentedWindow(options_.right_window_size > 0
                                   ? options_.right_window_size
                                   : options_.window_size)} {}

void SaJoinBase::UpdateStateBytes() {
  metrics_.NoteStateBytes(static_cast<int64_t>(
      windows_[0].MemoryBytes() + windows_[1].MemoryBytes() +
      trackers_[0].MemoryBytes() + trackers_[1].MemoryBytes() +
      IndexMemoryBytes()));
}

void SaJoinBase::AuditJoinDenial(const Tuple& left, const Tuple& right,
                                 const PolicyPtr& left_policy,
                                 const PolicyPtr& right_policy) {
  AuditLog* log = audit();
  if (log == nullptr) return;
  if (left_policy != denial_policies_[0] ||
      right_policy != denial_policies_[1]) {
    denial_policies_[0] = left_policy;
    denial_policies_[1] = right_policy;
    denial_roles_text_ = left_policy->allowed().ToString(*ctx_->roles) +
                         "∩" +
                         right_policy->allowed().ToString(*ctx_->roles);
  }
  AuditEvent e;
  e.kind = AuditEventKind::kDenial;
  e.scope = query_tag();
  e.stream = options_.output_stream_name;
  e.tuple_id = std::max(left.tid, right.tid);
  e.sp_ts = std::max(left_policy->ts(), right_policy->ts());
  e.roles = denial_roles_text_;
  static const AuditText kDetail =
      "join policies incompatible (empty intersection)";
  e.detail = kDetail;
  log->Append(std::move(e));
}

void SaJoinBase::EmitJoinResult(const Tuple& left, const Tuple& right,
                                const PolicyPtr& left_policy,
                                const PolicyPtr& right_policy) {
  // Intersect the base tuples' policies; incompatible policies discard the
  // result (Table I join semantics).
  RoleSet out_roles =
      RoleSet::Intersect(left_policy->allowed(), right_policy->allowed());
  if (out_roles.Empty()) {
    ++metrics_.tuples_dropped_security;
    AuditJoinDenial(left, right, left_policy, right_policy);
    return;
  }
  const Timestamp out_ts = std::max(left.ts, right.ts);
  if (output_emitter_.NeedsSp(out_roles, out_ts)) {
    EmitSp(SynthesizeSp(out_roles, output_emitter_.MonotoneTs(out_ts),
                        options_.output_stream_name, *ctx_->roles));
  }
  Tuple out;
  // Direction-stable derived tuple id: Rule 4 (join commutativity) must
  // hold for the full tuple, metadata included.
  out.tid = std::max(left.tid, right.tid);
  out.ts = out_ts;
  out.values.reserve(left.values.size() + right.values.size());
  out.values.insert(out.values.end(), left.values.begin(),
                    left.values.end());
  out.values.insert(out.values.end(), right.values.begin(),
                    right.values.end());
  EmitTuple(std::move(out));
}

void SaJoinBase::ProcessSp(const SecurityPunctuation& sp, int port) {
  ++metrics_.sps_in;
  ScopedTimer t(&metrics_.sp_maintenance_nanos);
  // 1. Policy Collection: the sp installs the policy for upcoming tuples.
  if (trackers_[port].OnSp(sp)) ++metrics_.policy_installs;
}

void SaJoinBase::ProcessTuple(Tuple t, int port) {
  ++metrics_.tuples_in;
  const int opp = 1 - port;

  // 2. Invalidation: expire the opposite window's head by this tuple's ts;
  // a drained segment's sps purge with it.
  {
    ScopedTimer tm(&metrics_.tuple_maintenance_nanos);
    windows_[opp].Invalidate(
        t.ts, [&](Segment* seg) { OnSegmentPurged(seg, opp); });
  }

  // Resolve this tuple's policy and insert it into its own window.
  PolicyPtr t_policy;
  {
    ScopedTimer tm(&metrics_.sp_maintenance_nanos);
    t_policy = trackers_[port].PolicyFor(t);
  }
  Segment* seg;
  bool created;
  {
    ScopedTimer tm(&metrics_.tuple_maintenance_nanos);
    std::tie(seg, created) = windows_[port].InsertTuple(
        std::move(t), t_policy, trackers_[port].current_batch());
  }
  if (created) {
    ScopedTimer tm(&metrics_.sp_maintenance_nanos);
    OnSegmentTouched(seg, created, port);
  }

  // 3. Join: probe the opposite window with the resident copy (a deque
  // append keeps references to its elements valid).
  {
    ScopedTimer tj(&metrics_.join_nanos);
    Probe(seg->tuples.back(), t_policy, port);
  }
}

void SaJoinBase::Process(StreamElement&& elem, int port) {
  assert(port == 0 || port == 1);
  if (elem.is_sp()) {
    ProcessSp(elem.sp(), port);
    return;
  }
  if (!elem.is_tuple()) {
    Emit(std::move(elem));
    return;
  }
  ProcessTuple(std::move(elem.tuple()), port);
  UpdateStateBytes();
}

void SaJoinNl::Probe(const Tuple& t, const PolicyPtr& t_policy,
                     int from_port) {
  const int opp = 1 - from_port;
  const KeyMatcher key(KeyOf(t, from_port));
  for (Segment& seg : windows_[opp].segments()) {
    if (options_.probe_method == SaJoinOptions::ProbeMethod::kFilterAndProbe) {
      // Filter-and-probe: skip the whole segment when policies are
      // incompatible, before touching any tuple.
      if (!t_policy->allowed().Intersects(seg.policy->allowed())) continue;
    }
    for (const Tuple& u : seg.tuples) {
      if (!key(KeyOf(u, opp))) continue;
      if (options_.probe_method ==
          SaJoinOptions::ProbeMethod::kProbeAndFilter) {
        if (!t_policy->allowed().Intersects(seg.policy->allowed())) {
          ++metrics_.tuples_dropped_security;
          AuditJoinDenial(t, u, t_policy, seg.policy);
          continue;
        }
      }
      if (from_port == 0) {
        EmitJoinResult(t, u, t_policy, seg.policy);
      } else {
        EmitJoinResult(u, t, seg.policy, t_policy);
      }
    }
  }
}

// ---------------------------------------------------------------- SpIndex

size_t SpIndex::EntryBytes(const Entry& e) {
  return sizeof(Entry) + e.roles.capacity() * sizeof(RoleId) +
         e.next.capacity() * sizeof(Entry*) + sizeof(void*) * 4;
}

void SpIndex::Insert(Segment* segment) {
  assert(segment->policy);
  auto owned = std::make_unique<Entry>();
  Entry* entry = owned.get();
  entry->segment = segment;
  entry->roles = segment->policy->allowed().ToIds();  // ascending
  if (!entry->roles.empty()) Link(entry);
  // Deny-all segments can never be policy-compatible; indexing them under
  // no role keeps them unreachable, which is exactly right.
  entry_bytes_ += EntryBytes(*entry);
  by_segment_.emplace(segment, std::move(owned));
  ++entry_count_;
}

void SpIndex::Link(Entry* entry) {
  entry->next.assign(entry->roles.size(), nullptr);
  for (size_t i = 0; i < entry->roles.size(); ++i) {
    const RoleId r = entry->roles[i];
    if (r >= rnodes_.size()) rnodes_.resize(r + 1);
    RNode& node = rnodes_[r];
    if (node.tail == nullptr) {
      node.head = node.tail = entry;
    } else {
      // Link the previous tail's next-pointer-for-role-r to this entry.
      size_t slot = 0;
      Entry* prev = FindEntrySlot(node.tail, r, &slot);
      assert(prev != nullptr);
      prev->next[slot] = entry;
      node.tail = entry;
    }
  }
}

SpIndex::Entry* SpIndex::FindEntrySlot(Entry* e, RoleId role,
                                       size_t* slot) const {
  auto it = std::lower_bound(e->roles.begin(), e->roles.end(), role);
  if (it == e->roles.end() || *it != role) return nullptr;
  *slot = static_cast<size_t>(it - e->roles.begin());
  return e;
}

void SpIndex::Remove(Segment* segment) {
  auto it = by_segment_.find(segment);
  if (it == by_segment_.end()) return;
  Entry* entry = it->second.get();
  for (size_t i = 0; i < entry->roles.size(); ++i) {
    const RoleId r = entry->roles[i];
    RNode& node = rnodes_[r];
    // FIFO expiry: the entry is at this role's r-head (property 3). Guard
    // anyway by unlinking from an arbitrary position if it is not.
    if (node.head == entry) {
      node.head = entry->next[i];
      if (node.head == nullptr) node.tail = nullptr;
    } else {
      Entry* cur = node.head;
      while (cur != nullptr) {
        size_t slot = 0;
        if (FindEntrySlot(cur, r, &slot) == nullptr) break;
        Entry* nxt = cur->next[slot];
        if (nxt == entry) {
          cur->next[slot] = entry->next[i];
          if (node.tail == entry) node.tail = cur;
          break;
        }
        cur = nxt;
      }
    }
  }
  entry_bytes_ -= EntryBytes(*entry);
  by_segment_.erase(it);
  --entry_count_;
}

void SpIndex::Probe(
    const RoleSet& probe_roles, bool use_skipping_rule,
    const std::function<void(Segment*, bool first_visit)>& fn) {
  ++stamp_;
  std::vector<RoleId> roles = probe_roles.ToIds();
  for (RoleId r : roles) {
    if (r >= rnodes_.size()) continue;
    Entry* cur = rnodes_[r].head;
    while (cur != nullptr) {
      size_t slot = 0;
      FindEntrySlot(cur, r, &slot);
      Entry* nxt = cur->next[slot];
      if (use_skipping_rule) {
        // Lemma 5.1, generalized: the probe visits its roles ascending, so
        // an entry is processed exactly when the current r-node role is the
        // *first role it shares with the probe policy*. (The paper states
        // the rule with the entry's globally-first role, which coincides
        // when the probe policy covers it; using the first *common* role is
        // the correct rule for arbitrary probe policies.)
        RoleId first_common = r;
        for (RoleId er : cur->roles) {
          if (er >= r) break;  // nothing smaller shared
          if (probe_roles.Contains(er)) {
            first_common = er;
            break;
          }
        }
        if (first_common == r) fn(cur->segment, /*first_visit=*/true);
      } else {
        // Naive mode (the ablation baseline the skipping rule replaces):
        // the segment is processed once per role it shares with the probe
        // policy. The visit stamp only tells the caller which encounter is
        // the first, so it can suppress duplicate *emission* while still
        // paying the duplicate *processing* cost.
        const bool first = cur->visit_stamp != stamp_;
        cur->visit_stamp = stamp_;
        fn(cur->segment, first);
      }
      cur = nxt;
    }
  }
}

// ---- durable state (docs/DURABILITY.md) ------------------------------------

void SaJoinBase::CheckpointState(std::string* out, bool full) {
  for (int port = 0; port < 2; ++port) {
    pending_tracker_ts_[port] = trackers_[port].current_ts();
  }
  pending_emitter_ts_ = output_emitter_.last_ts();
  if (!full && windows_[0].CheckpointClean() && windows_[1].CheckpointClean() &&
      pending_tracker_ts_[0] == ckpt_tracker_ts_[0] &&
      pending_tracker_ts_[1] == ckpt_tracker_ts_[1] &&
      pending_emitter_ts_ == ckpt_emitter_ts_) {
    return;  // nothing changed since the last durable checkpoint
  }
  for (int port = 0; port < 2; ++port) {
    PutVarint(ZigZagEncode(pending_tracker_ts_[port]), out);
    windows_[port].CheckpointDelta(out, full);
  }
  PutVarint(ZigZagEncode(pending_emitter_ts_), out);
}

void SaJoinBase::OnCheckpointDurable() {
  for (int port = 0; port < 2; ++port) {
    windows_[port].CommitCheckpointCursor();
    ckpt_tracker_ts_[port] = pending_tracker_ts_[port];
  }
  ckpt_emitter_ts_ = pending_emitter_ts_;
}

Status SaJoinBase::RestoreState(std::string_view blob) {
  size_t offset = 0;
  for (int port = 0; port < 2; ++port) {
    SP_ASSIGN_OR_RETURN(uint64_t ts_raw, GetVarint(blob, &offset));
    trackers_[port].RestoreFailClosed(ZigZagDecode(ts_raw));
    SP_RETURN_NOT_OK(windows_[port].ApplyCheckpoint(blob, &offset));
  }
  SP_ASSIGN_OR_RETURN(uint64_t em_raw, GetVarint(blob, &offset));
  output_emitter_.Restore(ZigZagDecode(em_raw));
  if (offset != blob.size()) {
    return Status::Internal("sajoin delta: trailing bytes");
  }
  for (int port = 0; port < 2; ++port) {
    ckpt_tracker_ts_[port] = pending_tracker_ts_[port] =
        trackers_[port].current_ts();
  }
  ckpt_emitter_ts_ = pending_emitter_ts_ = output_emitter_.last_ts();
  return Status::OK();
}

void SaJoinBase::OnRestoreComplete() {
  OnWindowsRestored();
  UpdateStateBytes();
}

// ------------------------------------------------------------ SaJoinIndex

SaJoinIndex::SaJoinIndex(ExecContext* ctx, SaJoinOptions options,
                         std::string label)
    : SaJoinBase(ctx, std::move(options), std::move(label)),
      indexes_{SpIndex(ctx->roles->size()), SpIndex(ctx->roles->size())} {
  if (options_.use_skipping_rule) {
    windows_[0].IndexKeys(options_.left_key_col);
    windows_[1].IndexKeys(options_.right_key_col);
  }
}

void SaJoinIndex::OnSegmentTouched(Segment* segment, bool created, int port) {
  if (created) indexes_[port].Insert(segment);
}

void SaJoinIndex::OnSegmentPurged(Segment* segment, int port) {
  indexes_[port].Remove(segment);
}

void SaJoinIndex::OnWindowsRestored() {
  // Rebuild both SPIndexes from the recovered segments. Segment objects are
  // freshly allocated by the restore, so the old pointer keys are gone —
  // start from empty indexes and re-insert in FIFO (front-to-back) order to
  // preserve the expiry-order property the skipping rule relies on. (The
  // segments' key maps were rebuilt by SegmentedWindow::ApplyCheckpoint.)
  for (int port = 0; port < 2; ++port) {
    indexes_[port] = SpIndex(ctx_->roles->size());
    for (Segment& seg : windows_[port].segments()) {
      indexes_[port].Insert(&seg);
    }
  }
}

void SaJoinIndex::Probe(const Tuple& t, const PolicyPtr& t_policy,
                        int from_port) {
  const int opp = 1 - from_port;
  const KeyMatcher key(KeyOf(t, from_port));
  // Key maps exist only with the skipping rule (see the constructor).
  const bool lookup = options_.use_skipping_rule && key.is_i64;
  auto emit = [&](const Tuple& u, const Segment& seg) {
    if (from_port == 0) {
      EmitJoinResult(t, u, t_policy, seg.policy);
    } else {
      EmitJoinResult(u, t, seg.policy, t_policy);
    }
  };
  indexes_[opp].Probe(
      t_policy->allowed(), options_.use_skipping_rule,
      [&](Segment* seg, bool first_visit) {
        ++segments_processed_;
        // Only policy-compatible segments reach here. An int64 key is
        // looked up when every resident key is int64 too; results come out
        // oldest first, the scan's order.
        const uint64_t first = seg->first_position();
        if (lookup && seg->keys.Exact(first)) {
          hits_.clear();
          seg->keys.Find(key.i64, first, &hits_);
          for (auto it = hits_.rbegin(); it != hits_.rend(); ++it) {
            emit(seg->tuples[static_cast<size_t>(*it - first)], *seg);
          }
          return;
        }
        // Otherwise scan the segment. On a duplicate visit (naive
        // no-skipping mode) the probing work is still paid, but matches
        // must not be emitted twice.
        for (const Tuple& u : seg->tuples) {
          if (!key(KeyOf(u, opp))) continue;
          if (!first_visit) continue;
          emit(u, *seg);
        }
      });
}

}  // namespace spstream

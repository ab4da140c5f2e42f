#include "exec/ss_operator.h"

#include <algorithm>

#include "common/audit_log.h"
#include "common/trace.h"
#include "security/sp_codec.h"

namespace {
/// Deterministic trace id of the sp-batch, or 0 while tracing is off (audit
/// events carry 0 then, per the AuditEvent contract).
spstream::TraceId SpTraceIdIfOn(spstream::Timestamp ts) {
  return SP_TRACE_ENABLED() ? spstream::SpBatchTraceId(ts) : 0;
}
}  // namespace

namespace spstream {

SsState::SsState(const SsOptions& options)
    : predicates_(options.predicates), use_index_(options.use_predicate_index) {
  for (const RoleSet& p : predicates_) union_.UnionWith(p);
  if (use_index_) {
    RoleId max_role = 0;
    bool any = false;
    union_.ForEach([&](RoleId id) {
      max_role = id;
      any = true;
    });
    postings_.resize(any ? max_role + 1 : 0);
    for (uint32_t i = 0; i < predicates_.size(); ++i) {
      predicates_[i].ForEach(
          [&](RoleId id) { postings_[id].push_back(i); });
    }
  }
}

bool SsState::Matches(const Policy& policy) const {
  if (use_index_) {
    // One word-parallel intersection against the precomputed union — the
    // predicate-index fast path (vs the paper's per-sp full state scan).
    return policy.Authorizes(union_);
  }
  for (const RoleSet& p : predicates_) {
    if (policy.Authorizes(p)) return true;
  }
  return false;
}

std::vector<size_t> SsState::MatchingPredicates(const Policy& policy) const {
  std::vector<size_t> out;
  if (use_index_ && !postings_.empty()) {
    std::vector<bool> seen(predicates_.size(), false);
    policy.allowed().ForEach([&](RoleId id) {
      if (id < postings_.size()) {
        for (uint32_t pred : postings_[id]) {
          if (!seen[pred]) {
            seen[pred] = true;
            out.push_back(pred);
          }
        }
      }
    });
    std::sort(out.begin(), out.end());
    return out;
  }
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (policy.Authorizes(predicates_[i])) out.push_back(i);
  }
  return out;
}

size_t SsState::MemoryBytes() const {
  size_t bytes = sizeof(SsState) + union_.MemoryBytes();
  for (const RoleSet& p : predicates_) bytes += p.MemoryBytes();
  for (const auto& list : postings_) {
    bytes += sizeof(list) + list.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

SsOperator::SsOperator(ExecContext* ctx, SsOptions options, std::string label)
    : Operator(ctx, std::move(label)),
      options_(std::move(options)),
      state_(options_),
      tracker_(ctx->roles, options_.stream_name) {
  UpdateStateBytes();
}

void SsOperator::UpdateStateBytes() {
  metrics_.NoteStateBytes(static_cast<int64_t>(
      state_.MemoryBytes() + tracker_.MemoryBytes() +
      pending_sps_.capacity() * sizeof(SecurityPunctuation)));
}

bool SsOperator::ApplyAttributeMask(Tuple* t) {
  const Schema& schema = *options_.schema;
  bool any_visible = false;
  // EffectiveRolesForAttribute folds whole-tuple sps in (their attribute
  // pattern matches every column), so it is the complete per-attribute
  // answer: grants extend it, attribute-level denials subtract from it.
  for (size_t i = 0; i < schema.num_fields() && i < t->values.size(); ++i) {
    const RoleSet attr_roles =
        tracker_.EffectiveRolesForAttribute(*t, schema.field(i).name);
    if (attr_roles.Intersects(state_.predicate_union())) {
      any_visible = true;
    } else {
      t->values[i] = Value::Null();
    }
  }
  return any_visible;
}

bool SsOperator::ProcessColumnar(ElementBatch& batch, ElementBatch* out,
                                 int) {
  std::vector<ElementBatch::Special> kept;
  std::vector<uint32_t> sel;
  sel.reserve(batch.num_live_rows());
  std::vector<ElementBatch::Special>& specials = batch.specials();
  size_t si = 0;
  auto flush_pending = [&](uint32_t before_row) {
    pending_emitted_ = true;
    for (SecurityPunctuation& sp : pending_sps_) {
      ++metrics_.sps_out;
      kept.push_back(
          ElementBatch::Special{before_row, StreamElement(std::move(sp))});
    }
    pending_sps_.clear();
  };
  auto handle_special = [&](ElementBatch::Special& s) {
    if (s.elem.is_sp()) {
      HandleSp(s.elem);  // consumes: the sp moves into pending_sps_
    } else {
      kept.push_back(std::move(s));  // control passes through in place
    }
  };
  const size_t live = batch.num_live_rows();
  for (size_t k = 0; k < live; ++k) {
    const uint32_t r = batch.live_row(k);
    while (si < specials.size() && specials[si].before_row <= r) {
      handle_special(specials[si]);
      ++si;
    }
    ++metrics_.tuples_in;
    if (memo_valid_) {
      // Memo hit (§III.B): no materialization at all — the whole run
      // between sps shares this boolean. Denials still count and audit
      // identically to the slow path.
      if (!memo_authorized_) {
        ++metrics_.tuples_dropped_security;
        if (audit() != nullptr) {
          AuditDenial(batch.MaterializeTuple(r), *memo_policy_);
        }
        continue;
      }
      if (!pending_emitted_) flush_pending(r);
      ++metrics_.tuples_out;
      sel.push_back(r);
      continue;
    }
    // Slow path: materialize this row, decide exactly as the per-element
    // path would, and write any masking nulls back into the validity
    // bitmap (masking only ever nulls values, so SetNull covers it).
    Tuple t = batch.MaterializeTuple(r);
    const bool authorized = DecideTupleSlowPath(t);
    if (!authorized) continue;
    if (options_.mask_attributes) {
      std::vector<ColumnVector>& cols = batch.mutable_columns();
      for (size_t i = 0; i < t.values.size() && i < cols.size(); ++i) {
        if (t.values[i].is_null()) cols[i].SetNull(r);
      }
    }
    if (!pending_emitted_) flush_pending(r);
    ++metrics_.tuples_out;
    sel.push_back(r);
  }
  for (; si < specials.size(); ++si) {
    handle_special(specials[si]);
  }
  batch.ReplaceSpecials(std::move(kept));
  batch.SetSelection(std::move(sel));
  *out = std::move(batch);
  return true;
}

void SsOperator::Process(StreamElement&& elem, int) {
  if (elem.is_sp()) {
    HandleSp(elem);
  } else if (elem.is_tuple()) {
    HandleTuple(elem);
  } else {
    Emit(std::move(elem));  // flush/control passes through
  }
}

void SsOperator::HandleSp(StreamElement& elem) {
  ++metrics_.sps_in;
  // The arriving sp opens (or extends) a tracker batch: the policy for the
  // next tuple run must be re-derived, whatever this sp turns out to mean.
  memo_valid_ = false;
  const Timestamp sp_ts = elem.sp().ts();
  AuditLog* log = audit();
  if (!tracker_.OnSp(elem.sp())) {
    if (log) {
      AuditEvent e;
      e.kind = AuditEventKind::kPolicyExpire;
      e.scope = query_tag();
      e.stream = options_.stream_name;
      e.sp_ts = sp_ts;
      e.detail = "stale sp dropped (policy in force is newer)";
      e.trace_id = SpTraceIdIfOn(sp_ts);
      log->Append(std::move(e));
    }
    return;  // stale, dropped
  }
  ++metrics_.policy_installs;
  if (!pending_ts_ || *pending_ts_ != sp_ts) {
    // A new sp-batch begins; the previous unsent batch covered a segment
    // with no authorized tuples and is discarded with them.
    if (log && pending_ts_) {
      AuditEvent e;
      e.kind = AuditEventKind::kPolicyExpire;
      e.scope = query_tag();
      e.stream = options_.stream_name;
      e.sp_ts = *pending_ts_;
      e.detail = "policy overridden by newer sp-batch ts=" +
                 std::to_string(sp_ts);
      log->Append(std::move(e));
    }
    pending_sps_.clear();
    pending_ts_ = sp_ts;
    pending_emitted_ = false;
  }
  if (log) {
    const SecurityPunctuation& sp = elem.sp();
    AuditEvent e;
    e.kind = AuditEventKind::kPolicyInstall;
    e.scope = query_tag();
    e.stream = options_.stream_name;
    e.sp_ts = sp_ts;
    e.roles = sp.roles().ToString(*ctx_->roles);
    e.detail = std::string(sp.sign() == Sign::kPositive ? "+" : "-") +
               (sp.immutable() ? " immutable" : "");
    e.trace_id = SpTraceIdIfOn(sp_ts);
    log->Append(std::move(e));
  }
  // Sp-batch lifecycle: the install at this shield (one mark per shard
  // clone — the recording thread tells the shards apart) is always visible
  // to the flight recorder, even with tracing off. arg2 counts installs at
  // this shield so convergence across shards is comparable.
  Tracer::Global().FlightMark(TraceCat::kPolicy, "policy.install",
                              SpBatchTraceId(sp_ts), sp_ts,
                              metrics_.policy_installs);
  if (Tracer::Global().SampleSpBatch(sp_ts)) first_enforce_ts_ = sp_ts;
  pending_sps_.push_back(std::move(elem.sp()));
  UpdateStateBytes();
}

void SsOperator::AuditDenial(const Tuple& t, const Policy& policy) {
  if (AuditLog* log = audit()) {
    // The record answers "who was denied what, under which policy": the
    // query (scope + its role predicate), the tuple, and the responsible
    // sp-batch (its ts is the sp id) with the roles it authorizes.
    AuditEvent e;
    e.kind = AuditEventKind::kDenial;
    e.scope = query_tag();
    e.stream = options_.stream_name;
    e.tuple_id = t.tid;
    e.sp_ts = policy.ts();
    e.roles = state_.predicate_union().ToString(*ctx_->roles);
    e.detail = "policy allows " + policy.allowed().ToString(*ctx_->roles);
    e.trace_id = SpTraceIdIfOn(policy.ts());
    log->Append(std::move(e));
  }
}

void SsOperator::HandleTuple(StreamElement& elem) {
  ++metrics_.tuples_in;
  Tuple& t = elem.tuple();

  if (memo_valid_) {
    // Memo hit: the policy has been constant since the last sp, so this
    // tuple's decision equals the previous one's. Denials still count and
    // audit identically to the slow path; the fail-closed re-check is
    // unnecessary here because the install counter can only move inside a
    // batch finalization, which the slow path (or HandleSp) always sees
    // first.
    if (!memo_authorized_) {
      ++metrics_.tuples_dropped_security;
      AuditDenial(t, *memo_policy_);
      return;
    }
    if (!pending_emitted_) {
      pending_emitted_ = true;
      for (SecurityPunctuation& sp : pending_sps_) {
        EmitSp(std::move(sp));
      }
      pending_sps_.clear();
    }
    EmitTuple(std::move(t));
    return;
  }

  if (!DecideTupleSlowPath(t)) return;
  if (!pending_emitted_) {
    pending_emitted_ = true;
    for (SecurityPunctuation& sp : pending_sps_) {
      EmitSp(std::move(sp));
    }
    pending_sps_.clear();
  }
  EmitTuple(std::move(t));
}

bool SsOperator::DecideTupleSlowPath(Tuple& t) {
  // PolicyFor finalizes any open sp-batch (and thereby decides whether the
  // batch carries attribute-granularity policies).
  const PolicyPtr policy = tracker_.PolicyFor(t);
  if (tracker_.fail_closed_installs() != seen_fail_closed_installs_) {
    // The batch never took effect: the stream is denied-all until a fresh
    // batch installs cleanly. The held sps must not propagate downstream —
    // they would advertise a policy that is not in force.
    metrics_.policy_install_failures +=
        tracker_.fail_closed_installs() - seen_fail_closed_installs_;
    seen_fail_closed_installs_ = tracker_.fail_closed_installs();
    pending_sps_.clear();
    pending_emitted_ = true;
    if (AuditLog* log = audit()) {
      AuditEvent e;
      e.kind = AuditEventKind::kPolicyExpire;
      e.scope = query_tag();
      e.stream = options_.stream_name;
      e.sp_ts = policy->ts();
      e.detail =
          "fail-closed: sp-batch install faulted; stream denies all until "
          "a fresh sp-batch installs";
      log->Append(std::move(e));
    }
  }
  const bool masking =
      options_.mask_attributes && tracker_.has_attribute_policies();
  bool authorized;
  if (masking) {
    authorized = ApplyAttributeMask(&t);
  } else {
    authorized = state_.Matches(*policy);
  }
  // Memoize the decision for the rest of the run: sound only while the
  // tracker's policy is tuple-independent and masking has nothing to
  // rewrite per tuple. Any sp arrival invalidates (HandleSp).
  memo_valid_ = !masking && tracker_.PolicyUniformAcrossTuples();
  memo_authorized_ = authorized;
  memo_policy_ = policy;

  if (first_enforce_ts_ >= 0) {
    // Final milestone of the sp-batch lifecycle trace: the first tuple
    // decided under the batch (arg2: 1 = passed, 0 = denied).
    Tracer::Global().Instant(TraceCat::kPolicy, "ss.first_enforce",
                             SpBatchTraceId(first_enforce_ts_),
                             first_enforce_ts_, authorized ? 1 : 0);
    first_enforce_ts_ = -1;
  }

  if (!authorized) {
    ++metrics_.tuples_dropped_security;
    AuditDenial(t, *policy);
    return false;
  }
  return true;
}

// ---- durable state (docs/DURABILITY.md) ------------------------------------

void SsOperator::CheckpointState(std::string* out, bool full) {
  const Timestamp ts = tracker_.current_ts();
  pending_ckpt_ts_ = ts;
  if (!full && ts == ckpt_ts_) return;  // nothing changed: elide the entry
  PutVarint(ZigZagEncode(ts), out);
}

void SsOperator::OnCheckpointDurable() { ckpt_ts_ = pending_ckpt_ts_; }

Status SsOperator::RestoreState(std::string_view blob) {
  size_t offset = 0;
  SP_ASSIGN_OR_RETURN(uint64_t raw, GetVarint(blob, &offset));
  tracker_.RestoreFailClosed(ZigZagDecode(raw));
  pending_sps_.clear();
  pending_emitted_ = true;
  pending_ts_.reset();
  memo_valid_ = false;
  memo_policy_.reset();
  first_enforce_ts_ = -1;
  seen_fail_closed_installs_ = tracker_.fail_closed_installs();
  ckpt_ts_ = pending_ckpt_ts_ = tracker_.current_ts();
  UpdateStateBytes();
  return Status::OK();
}

}  // namespace spstream

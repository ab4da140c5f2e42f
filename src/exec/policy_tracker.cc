#include "exec/policy_tracker.h"

#include "common/fault.h"

namespace spstream {

bool PolicyTracker::OnSp(const SecurityPunctuation& sp) {
  if (!open_batch_.empty()) {
    if (sp.ts() == open_batch_.front().ts()) {
      open_batch_.push_back(sp);
      open_batch_.back().ResolveRoles(*catalog_);
      return true;
    }
    if (sp.ts() < open_batch_.front().ts()) {
      ++stale_sps_dropped_;
      return false;
    }
    // Newer batch begins before any tuple of the previous batch arrived;
    // the previous batch applied to zero tuples. Finalize it (so override
    // bookkeeping stays monotone) and open the new one.
    FinalizeOpenBatch();
  }
  if (sp.ts() < current_policy_->ts()) {
    ++stale_sps_dropped_;
    return false;
  }
  open_batch_.push_back(sp);
  open_batch_.back().ResolveRoles(*catalog_);
  return true;
}

void PolicyTracker::FinalizeOpenBatch() {
  if (open_batch_.empty()) return;
  if (SP_FAULT_FIRED(fault::kPolicyInstall)) {
    // Fail closed: a fault while installing the batch must never leave the
    // previous (possibly wider) policy silently in force. The stream flips
    // to deny-all at the batch's timestamp; OnSp keeps accepting newer
    // batches, so the next batch that installs cleanly re-converges the
    // stream to its intended policy. Denying is always safe — the engine
    // may drop authorized tuples here, never leak unauthorized ones.
    const Timestamp ts = open_batch_.front().ts();
    previous_policy_ = current_policy_ = MakePolicy(RoleSet(), ts);
    open_batch_.clear();
    current_batch_.clear();
    batch_incremental_ = false;
    batch_covers_all_ = true;  // the deny-all applies to every tuple
    has_attr_policies_ = false;
    ++fail_closed_installs_;
    return;
  }
  previous_policy_ = current_policy_;
  batch_incremental_ = true;
  for (const SecurityPunctuation& sp : open_batch_) {
    if (!sp.incremental()) batch_incremental_ = false;
  }
  if (batch_incremental_) {
    // §IX extension: an incremental batch *edits* the policy in force —
    // positive sps add roles, negative sps remove them.
    RoleSet updated = current_policy_->allowed();
    for (const SecurityPunctuation& sp : open_batch_) {
      if (sp.sign() == Sign::kPositive) {
        updated.UnionWith(sp.roles());
      } else {
        updated.SubtractAll(sp.roles());
      }
    }
    current_policy_ = std::make_shared<const Policy>(
        std::move(updated), open_batch_.front().ts());
  } else {
    // override(): the newly finalized batch replaces the policy in force.
    // OnSp already rejected stale sps, so install unconditionally — also on
    // timestamp TIES, which legitimately occur in derived streams where a
    // join emits several distinct result policies at one output timestamp;
    // positional semantics says the latest punctuation governs what
    // follows.
    current_policy_ =
        std::make_shared<const Policy>(BuildBatchPolicy(open_batch_));
  }
  current_batch_ = std::move(open_batch_);
  open_batch_.clear();

  batch_covers_all_ = true;
  has_attr_policies_ = false;
  for (const SecurityPunctuation& sp : current_batch_) {
    if (!sp.AppliesToStream(stream_name_) || !sp.tuple_pattern().IsAny() ||
        !sp.CoversWholeTuple()) {
      batch_covers_all_ = false;
    }
    if (!sp.CoversWholeTuple()) has_attr_policies_ = true;
  }
}

PolicyPtr PolicyTracker::PolicyFor(TupleId tid) {
  FinalizeOpenBatch();
  if (batch_covers_all_ || current_batch_.empty()) {
    return current_policy_;
  }
  // Fast path: when every sp of the batch covers this tuple (the common
  // case — e.g. a tuple-range DDP naming exactly the tuples that follow),
  // the whole-batch policy applies and the shared object is returned
  // without building anything.
  bool all_apply = true, any_apply = false;
  for (const SecurityPunctuation& sp : current_batch_) {
    const bool applies = sp.CoversWholeTuple() &&
                         sp.AppliesToStream(stream_name_) &&
                         sp.AppliesToTupleId(tid);
    all_apply = all_apply && applies;
    any_apply = any_apply || applies;
  }
  if (all_apply) return current_policy_;
  if (!any_apply) {
    // An incremental batch that does not cover this tuple leaves its
    // previous policy intact; an absolute one means denial-by-default.
    return batch_incremental_ ? previous_policy_ : DenyAllPolicy();
  }

  // Narrow the batch to the sps whose DDP covers this tuple as a whole.
  // For an incremental batch the covered deltas apply on top of the
  // previous policy.
  RoleSet positive, negative;
  for (const SecurityPunctuation& sp : current_batch_) {
    if (!sp.AppliesToStream(stream_name_)) continue;
    if (!sp.AppliesToTupleId(tid)) continue;
    if (!sp.CoversWholeTuple()) continue;  // attribute policies mask, below
    if (sp.sign() == Sign::kPositive) {
      positive.UnionWith(sp.roles());
    } else {
      negative.UnionWith(sp.roles());
    }
  }
  RoleSet allowed = batch_incremental_ ? previous_policy_->allowed()
                                       : RoleSet();
  allowed.UnionWith(positive);
  allowed.SubtractAll(negative);
  return MakePolicy(std::move(allowed), current_batch_.front().ts());
}

RoleSet PolicyTracker::EffectiveRolesForAttribute(const Tuple& t,
                                                  std::string_view attr_name) {
  FinalizeOpenBatch();
  RoleSet positive, negative;
  for (const SecurityPunctuation& sp : current_batch_) {
    if (!sp.AppliesToStream(stream_name_)) continue;
    if (!sp.AppliesToTupleId(t.tid)) continue;
    if (!sp.AppliesToAttribute(attr_name)) continue;
    if (sp.sign() == Sign::kPositive) {
      positive.UnionWith(sp.roles());
    } else {
      negative.UnionWith(sp.roles());
    }
  }
  return RoleSet::Difference(positive, negative);
}

size_t PolicyTracker::MemoryBytes() const {
  size_t bytes = sizeof(PolicyTracker) + stream_name_.capacity();
  for (const SecurityPunctuation& sp : open_batch_) bytes += sp.MemoryBytes();
  for (const SecurityPunctuation& sp : current_batch_) {
    bytes += sp.MemoryBytes();
  }
  bytes += current_policy_->MemoryBytes();
  return bytes;
}

}  // namespace spstream

// The Security Shield (SS, ψ) operator of §V.A — the paper's new
// special-purpose access-control filter that can be placed anywhere in a
// query plan.
//
// State: the security predicates (role sets) of the queries downstream.
// Behaviour: buffers the policy streamed by sps (sp-batch assembly +
// override on newer ts); a tuple passes iff its policy intersects some
// predicate; unauthorized tuples *and their sps* are discarded. Sps of an
// authorized segment are propagated lazily, just before the segment's first
// passing tuple, so fully-filtered segments ship no metadata downstream.
#pragma once

#include <optional>

#include "common/audit_log.h"
#include "exec/operator.h"
#include "exec/policy_tracker.h"

namespace spstream {

/// \brief Configuration of one SS operator instance.
struct SsOptions {
  /// One predicate per query (or query group) whose results flow through
  /// this SS. A policy is satisfied when it intersects ANY predicate.
  std::vector<RoleSet> predicates;

  /// Name of the stream on this input (for DDP stream matching).
  std::string stream_name;

  /// Schema of the input (required when mask_attributes is set).
  SchemaPtr schema;

  /// Use the role->predicate posting-list index (the grouped-filter style
  /// speed-up of §V.A) instead of scanning every predicate per sp.
  bool use_predicate_index = true;

  /// Enforce attribute-granularity policies by nulling out attributes the
  /// predicate roles may not read (instead of only tuple-level pass/drop).
  bool mask_attributes = false;
};

/// \brief The SS state: predicates plus the optional role->predicate index.
class SsState {
 public:
  explicit SsState(const SsOptions& options);

  /// \brief Does the policy satisfy any predicate? Uses the index or the
  /// linear scan depending on options.
  bool Matches(const Policy& policy) const;

  /// \brief Indices of all predicates the policy satisfies (multi-query
  /// routing; used by SS splitting experiments).
  std::vector<size_t> MatchingPredicates(const Policy& policy) const;

  /// \brief Union of all predicate role sets.
  const RoleSet& predicate_union() const { return union_; }

  size_t MemoryBytes() const;

 private:
  std::vector<RoleSet> predicates_;
  RoleSet union_;
  bool use_index_;
  // Posting lists: role id -> predicate indices containing that role.
  std::vector<std::vector<uint32_t>> postings_;
};

/// \brief Physical SS operator.
class SsOperator : public Operator {
 public:
  SsOperator(ExecContext* ctx, SsOptions options, std::string label = "SS");

  const SsState& state() const { return state_; }

  // Durable state: only the tracker's batch timestamp survives a restart —
  // the SS restores FAIL-CLOSED (deny-all at that ts) and drops the sp/memo
  // buffers, so recovered tuples are denied until a fresh sp-batch arrives.
  bool HasDurableState() const override { return true; }
  void CheckpointState(std::string* out, bool full) override;
  void OnCheckpointDurable() override;
  Status RestoreState(std::string_view blob) override;

 protected:
  /// Row path: one policy-match memo per tuple run between sps — per-tuple
  /// work between sps is a cached boolean.
  void Process(StreamElement&& elem, int port) override;
  /// Columnar kernel: sps in the specials list delimit tuple runs; each
  /// run's first tuple decides via the slow path and the rest of the run
  /// rides the memo without ever being materialized. Passing rows narrow
  /// the selection vector in place; attribute masking clears validity bits.
  bool ProcessColumnar(ElementBatch& batch, ElementBatch* out,
                       int port) override;

 private:
  void HandleSp(StreamElement& elem);
  void HandleTuple(StreamElement& elem);
  /// Shared decision slow path (memo invalid): resolve the policy of tuple
  /// `tid`, check fail-closed installs, apply attribute masking (mutates
  /// `*t`), refresh the memo and trace/audit/drop accounting. Returns
  /// whether the tuple passes. `t` may be null unless mask_attributes is
  /// set: without masking the decision reads only the tuple id. Does NOT
  /// count tuples_in and does NOT emit.
  bool DecideTupleSlowPath(TupleId tid, Tuple* t);
  void UpdateStateBytes();
  /// Null out attributes of `t` the predicate roles may not read; returns
  /// false when nothing remains visible (tuple must drop).
  bool ApplyAttributeMask(Tuple* t);
  /// Denial record of tuple `tid` under `policy`. The role texts come from
  /// the caches below, so a run of denials renders nothing.
  void AuditDenial(TupleId tid, const PolicyPtr& policy);

  SsOptions options_;
  SsState state_;
  // state_.MemoryBytes(), walked once: the SS state never changes after
  // construction, and the gauge is refreshed on every install.
  const size_t state_bytes_;
  PolicyTracker tracker_;
  // Sps of the newest batch, held until the segment's first authorized
  // tuple; emitted_ flags whether they already went downstream.
  std::vector<SecurityPunctuation> pending_sps_;
  bool pending_emitted_ = true;
  std::optional<Timestamp> pending_ts_;
  // Last observed tracker_.fail_closed_installs(); a change means an
  // sp-batch install faulted since the previous tuple (audit + metrics).
  int64_t seen_fail_closed_installs_ = 0;
  // Memoized access decision for the current tuple run (§III.B: the policy
  // is constant between sp-batches). Valid only while the tracker's policy
  // is uniform across tuples AND attribute masking has nothing to rewrite;
  // any arriving sp invalidates it. The cached policy backs the audit
  // record of memoized denials.
  bool memo_valid_ = false;
  bool memo_authorized_ = false;
  PolicyPtr memo_policy_;
  // Audit text, rendered once per value instead of once per event: the
  // predicate union's roles (fixed at construction; rendered at the first
  // denial, since the audit log is wired up after the plan is built) and
  // the "policy allows ..." detail of the last denying policy, keyed on its
  // shared pointer (held, so the address cannot be reused).
  AuditText predicate_text_;
  PolicyPtr detail_policy_;
  AuditText detail_text_;
  // Checkpoint cursor: tracker batch ts at the last durable checkpoint and
  // the ts staged by the last CheckpointState call.
  Timestamp ckpt_ts_ = kMinTimestamp;
  Timestamp pending_ckpt_ts_ = kMinTimestamp;
  // Sp-batch timestamp whose first enforcement decision has not been traced
  // yet (-1 when none): set on install, cleared when the next tuple's
  // decision emits the "ss.first_enforce" trace mark — the last milestone
  // of the sp-batch lifecycle trace.
  Timestamp first_enforce_ts_ = -1;
};

}  // namespace spstream

// Tracks the access-control policy in force on one input stream.
//
// Implements the applicability semantics of §III.A/§III.E on the hot path:
//  * consecutive sps with equal ts form an sp-batch = one policy (union of
//    positives minus negatives);
//  * a batch with a newer ts overrides the current policy;
//  * stale (older-ts) sps are dropped, mirroring the in-order assumption;
//  * tuples preceding any sp fall under denial-by-default;
//  * a tuple not matched by the batch's DDP also falls to denial-by-default.
//
// Sharded execution (EngineOptions::num_shards > 1) relies on these
// semantics being a pure function of the sp subsequence: the engine
// BROADCASTS every sp to every shard while hash-partitioning the tuples, so
// each pipeline clone's tracker replays the identical sp sequence and
// converges to the same policy state. The install counters below make that
// convergence observable per shard (EXPLAIN ANALYZE shard rows).
#pragma once

#include <vector>

#include "exec/exec_context.h"
#include "security/policy.h"
#include "security/security_punctuation.h"
#include "stream/tuple.h"

namespace spstream {

/// \brief Per-input policy state machine fed by the element sequence.
class PolicyTracker {
 public:
  PolicyTracker(const RoleCatalog* catalog, std::string stream_name)
      : catalog_(catalog), stream_name_(std::move(stream_name)) {}

  /// \brief Feed an arriving sp. Returns false when the sp is stale (older
  /// than the policy in force) and was discarded.
  bool OnSp(const SecurityPunctuation& sp);

  /// \brief Policy applicable to an arriving tuple (finalizes any open
  /// batch first). Cheap when the batch covers all tuples of this stream;
  /// falls back to per-tuple DDP evaluation otherwise.
  PolicyPtr PolicyFor(const Tuple& t) { return PolicyFor(t.tid); }
  /// \brief The same decision from the tuple id alone (tuple-granularity
  /// DDPs match only the id), for callers that hold no materialized tuple.
  PolicyPtr PolicyFor(TupleId tid);

  /// \brief The sps forming the policy currently in force, for downstream
  /// propagation. Valid after the batch is finalized (first tuple seen).
  const std::vector<SecurityPunctuation>& current_batch() const {
    return current_batch_;
  }

  Timestamp current_ts() const { return current_policy_->ts(); }

  /// \brief Effective roles allowed to read attribute `attr_name` of tuple
  /// `t` under the current batch (attribute-granularity support used by the
  /// Security Shield's attribute masking and by projection).
  RoleSet EffectiveRolesForAttribute(const Tuple& t,
                                     std::string_view attr_name);

  /// \brief True when the current batch contains attribute-granularity sps.
  bool has_attribute_policies() const { return has_attr_policies_; }

  /// \brief True when the policy in force applies uniformly to EVERY tuple
  /// of this stream: no open batch awaiting finalization, and no per-tuple
  /// DDP narrowing (the finalized batch covers all tuples, or no batch has
  /// arrived and denial-by-default rules). While this holds, PolicyFor is a
  /// constant function — batch kernels memoize one access decision per run
  /// and re-check only when an sp arrives (which opens a batch and clears
  /// the condition until the next finalize).
  bool PolicyUniformAcrossTuples() const {
    return open_batch_.empty() &&
           (batch_covers_all_ || current_batch_.empty());
  }

  int64_t stale_sps_dropped() const { return stale_sps_dropped_; }

  /// \brief Batches whose installation faulted (fault site policy.install):
  /// each flipped this stream to the fail-closed deny-all policy.
  int64_t fail_closed_installs() const { return fail_closed_installs_; }

  size_t MemoryBytes() const;

  /// \brief Crash-recovery restore (docs/DURABILITY.md): re-arm FAIL-CLOSED
  /// at the checkpointed batch timestamp. The recovered stream denies
  /// everyone — exactly the policy.install fault posture — until a newer
  /// sp-batch arrives and re-converges; sps at or before `ts` are stale and
  /// dropped, so a replayed prefix cannot resurrect a pre-crash policy.
  void RestoreFailClosed(Timestamp ts) {
    previous_policy_ = current_policy_ = MakePolicy(RoleSet(), ts);
    open_batch_.clear();
    current_batch_.clear();
    batch_incremental_ = false;
    batch_covers_all_ = true;
    has_attr_policies_ = false;
  }

 private:
  void FinalizeOpenBatch();

  const RoleCatalog* catalog_;
  std::string stream_name_;

  std::vector<SecurityPunctuation> open_batch_;
  std::vector<SecurityPunctuation> current_batch_;
  PolicyPtr current_policy_ = DenyAllPolicy();
  // Policy in force before the current batch, and whether the current batch
  // is an incremental edit (§IX extension) rather than an override.
  PolicyPtr previous_policy_ = DenyAllPolicy();
  bool batch_incremental_ = false;
  // True when every sp of the finalized batch matches this stream, all
  // tuple ids and all attributes — the common fast path.
  bool batch_covers_all_ = false;
  bool has_attr_policies_ = false;
  int64_t stale_sps_dropped_ = 0;
  int64_t fail_closed_installs_ = 0;
};

}  // namespace spstream

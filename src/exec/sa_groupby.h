// Security-aware group-by with incremental aggregates (Table I).
//
// Each attribute group (AG — one group per key value) is partitioned into
// attribute subgroups (ASGs) whose policies are pairwise non-intersecting.
// A new tuple joins the ASG(s) its policy intersects — merging them when it
// bridges several — or founds a new ASG. One aggregate result is maintained
// per ASG and emitted preceded by the subgroup's policy, replacing the
// previously reported answer for that subgroup.
//
// Aggregates update twice per tuple: once on arrival, once on expiry from
// the sliding window (the 2C(λ1+λsp1) of the §VI.A cost model).
#pragma once

#include <deque>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "exec/operator.h"
#include "exec/policy_tracker.h"
#include "exec/sp_synth.h"

namespace spstream {

/// \brief Supported incremental aggregate functions.
enum class AggFn : uint8_t { kCount, kSum, kAvg, kMin, kMax };

const char* AggFnToString(AggFn fn);

struct SaGroupByOptions {
  int key_col = 0;             ///< grouping attribute A
  int agg_col = 0;             ///< aggregated attribute (ignored for COUNT)
  AggFn agg_fn = AggFn::kCount;
  Timestamp window_size = 1000;
  std::string stream_name;
  std::string output_stream_name = "groupby_out";
};

class SaGroupBy : public Operator {
 public:
  SaGroupBy(ExecContext* ctx, SaGroupByOptions options,
            std::string label = "groupby");

  /// \brief Number of (group, subgroup) aggregates currently alive.
  size_t asg_count() const;

  // Durable state: dirty attribute groups are snapshotted (ASG snapshots
  // are authoritative for aggregates — restore never replays arithmetic),
  // window records since the cursor carry future-expiry bookkeeping, and a
  // merge log keeps records from older deltas pointing at the right root.
  bool HasDurableState() const override { return true; }
  void CheckpointState(std::string* out, bool full) override;
  void OnCheckpointDurable() override;
  Status RestoreState(std::string_view blob) override;
  void OnRestoreComplete() override;

 protected:
  void Process(StreamElement&& elem, int) override;
  void OnAllFinished() override;

 private:
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };

  /// One attribute subgroup. Merging (when a policy bridges subgroups) is
  /// union-find style: a merged-away node forwards to its parent.
  struct Asg {
    std::shared_ptr<Asg> parent;  // non-null once merged away
    RoleSet policy;
    int64_t count = 0;
    double sum = 0;
    std::multiset<double> ordered;  // for MIN/MAX under expiry
    Value key;
    uint64_t id = 0;  // stable checkpoint identity (never reused)
  };
  using AsgPtr = std::shared_ptr<Asg>;

  struct InputRec {
    Timestamp ts;
    double agg_value;
    AsgPtr asg;
  };

  static AsgPtr Find(AsgPtr node);
  void AddToAsg(const AsgPtr& asg, double v);
  void RemoveFromAsg(const AsgPtr& asg, double v);
  Value CurrentAggregate(const Asg& asg) const;
  void EmitAsgResult(const Asg& asg, Timestamp ts);
  void Invalidate(Timestamp now);
  void UpdateStateBytes();

  SaGroupByOptions options_;
  PolicyTracker tracker_;
  std::deque<InputRec> input_window_;
  std::unordered_map<Value, std::vector<AsgPtr>, ValueHash> groups_;
  OutputPolicyEmitter output_emitter_;
  SchemaPtr output_schema_;

  // ---- checkpoint bookkeeping (docs/DURABILITY.md) ----
  uint64_t next_asg_id_ = 1;
  uint64_t total_appended_ = 0;   // window records ever pushed
  Timestamp watermark_ = kMinTimestamp;  // highest Invalidate(now) seen
  std::unordered_set<Value, ValueHash> dirty_keys_;
  std::vector<std::pair<uint64_t, uint64_t>> merges_;  // (from, to) asg ids
  uint64_t ckpt_appended_ = 0;
  uint64_t pending_appended_ = 0;
  Timestamp ckpt_tracker_ts_ = kMinTimestamp;
  Timestamp ckpt_emitter_ts_ = kMinTimestamp;
  Timestamp pending_tracker_ts_ = kMinTimestamp;
  Timestamp pending_emitter_ts_ = kMinTimestamp;
  // Live only while a restore chain is applied: asg id -> restored object,
  // updated in place when a later delta re-snapshots the id so that window
  // records restored earlier keep pointing at the right aggregate.
  std::unordered_map<uint64_t, AsgPtr> restore_map_;
};

}  // namespace spstream

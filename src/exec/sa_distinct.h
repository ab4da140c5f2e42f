// Security-aware duplicate elimination δ over a sliding window (Table I).
//
// The output contains exactly one tuple per distinct value present in the
// window — per *role*: a role that could not access the previously emitted
// duplicate must still receive the value. The paper's three cases reduce to
// one rule: on a new duplicate with policy P_new and cumulative emitted
// policy P_old, emit the value preceded by sp(P_new − P_old) iff that set is
// non-empty, then fold P_new into the emitted policy.
//   case 1 (P_old ∩ P_new = ∅):          emits P_new.
//   case 2 (P_old ∩ P_new = P_new):      emits nothing.
//   case 3 (otherwise):                  emits P_new − (P_old ∩ P_new).
// (The paper's case 1 stores P_new alone; we store the union, which is what
// keeps the per-role no-duplicate invariant exact — see DESIGN.md.)
#pragma once

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "exec/operator.h"
#include "exec/policy_tracker.h"
#include "exec/sp_synth.h"

namespace spstream {

struct SaDistinctOptions {
  int key_col = 0;               ///< column whose distinct values are kept
  Timestamp window_size = 1000;  ///< sliding-window extent
  std::string stream_name;       ///< input stream (DDP matching)
  std::string output_stream_name = "distinct_out";
};

class SaDistinct : public Operator {
 public:
  SaDistinct(ExecContext* ctx, SaDistinctOptions options,
             std::string label = "distinct");

  /// \brief Number of distinct values currently tracked.
  size_t output_state_size() const { return output_state_.size(); }

  // Durable state: dirty per-value dedup entries (upsert or tombstone),
  // window records since the cursor, and the tracker/emitter timestamps.
  bool HasDurableState() const override { return true; }
  void CheckpointState(std::string* out, bool full) override;
  void OnCheckpointDurable() override;
  Status RestoreState(std::string_view blob) override;
  void OnRestoreComplete() override { UpdateStateBytes(); }

 protected:
  void Process(StreamElement&& elem, int) override;

 private:
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  struct OutState {
    Tuple representative;
    RoleSet emitted_roles;  // cumulative P_old
    int64_t live_count = 0; // window residents with this value
  };
  struct InputRec {
    Timestamp ts;
    Value key;
  };

  void Invalidate(Timestamp now);
  void UpdateStateBytes();

  SaDistinctOptions options_;
  PolicyTracker tracker_;
  std::deque<InputRec> input_window_;
  std::unordered_map<Value, OutState, ValueHash> output_state_;
  OutputPolicyEmitter output_emitter_;

  // ---- checkpoint bookkeeping (docs/DURABILITY.md) ----
  uint64_t total_appended_ = 0;  // window records ever pushed
  Timestamp watermark_ = kMinTimestamp;
  std::unordered_set<Value, ValueHash> dirty_keys_;
  uint64_t ckpt_appended_ = 0;
  uint64_t pending_appended_ = 0;
  Timestamp ckpt_tracker_ts_ = kMinTimestamp;
  Timestamp ckpt_emitter_ts_ = kMinTimestamp;
  Timestamp pending_tracker_ts_ = kMinTimestamp;
  Timestamp pending_emitter_ts_ = kMinTimestamp;
};

}  // namespace spstream

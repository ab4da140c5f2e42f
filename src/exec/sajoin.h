// Security-aware sliding-window equijoin (§V.B).
//
// Both physical variants share window/policy bookkeeping here:
//  1. Policy Collection — arriving sps install the upcoming segment policy.
//  2. Invalidation — a new tuple expires old tuples from the *opposite*
//     window head; a fully-drained segment's sps purge with it.
//  3. Join — the new tuple probes the opposite window; result policies are
//     the intersection of the base tuples' policies, and empty intersections
//     discard the result (incompatible policies).
//
// The nested-loop variant scans the opposite window (probe-and-filter or
// filter-and-probe order); the index variant probes the SPIndex to touch
// only policy-compatible segments, with the Lemma 5.1 skipping rule, and
// looks int64 keys up inside them (SegmentKeyMap).
#pragma once

#include <memory>
#include <unordered_map>

#include "exec/operator.h"
#include "exec/policy_tracker.h"
#include "exec/sp_synth.h"
#include "exec/window.h"

namespace spstream {

/// \brief Configuration shared by both SAJoin variants.
struct SaJoinOptions {
  Timestamp window_size = 1000;  ///< time-based window extent (both sides)
  /// Per-side overrides (CQL gives each stream its own [RANGE n]); <= 0
  /// falls back to window_size.
  Timestamp left_window_size = 0;
  Timestamp right_window_size = 0;
  int left_key_col = 0;          ///< equijoin column on port 0
  int right_key_col = 0;         ///< equijoin column on port 1
  std::string left_stream_name;
  std::string right_stream_name;
  std::string output_stream_name = "join_out";
  StreamId output_sid = 0;

  /// Nested-loop probe order (§V.B.1): probe-and-filter checks the join
  /// value first, filter-and-probe checks policy compatibility first.
  enum class ProbeMethod { kProbeAndFilter, kFilterAndProbe };
  ProbeMethod probe_method = ProbeMethod::kProbeAndFilter;

  /// Index variant: apply the Lemma 5.1 skipping rule (turning it off falls
  /// back to visit-stamp dedup — correct but does redundant scanning; kept
  /// as an ablation knob).
  bool use_skipping_rule = true;
};

/// \brief Common machinery of the two SAJoin variants.
class SaJoinBase : public Operator {
 public:
  SaJoinBase(ExecContext* ctx, SaJoinOptions options, std::string label);

  const SaJoinOptions& options() const { return options_; }
  const SegmentedWindow& left_window() const { return windows_[0]; }
  const SegmentedWindow& right_window() const { return windows_[1]; }

  // Durable state: both windows as incremental deltas, both trackers'
  // batch timestamps (restored FAIL-CLOSED), and the output emitter's
  // monotone-ts clamp.
  bool HasDurableState() const override { return true; }
  void CheckpointState(std::string* out, bool full) override;
  void OnCheckpointDurable() override;
  Status RestoreState(std::string_view blob) override;
  void OnRestoreComplete() override;

 protected:
  /// \brief Hook: the windows were just rebuilt from a checkpoint chain —
  /// the index variant reconstructs its SPIndexes here.
  virtual void OnWindowsRestored() {}

  /// \brief Hook: bytes of variant-specific state (the SPIndexes) for the
  /// state gauge; O(1), since the gauge refreshes per tuple.
  virtual size_t IndexMemoryBytes() const { return 0; }

  /// Row path only: the windows store Tuples, so a columnar input decays
  /// here (a columnar join kernel measured slower; docs/PERFORMANCE.md).
  /// The state-bytes gauge refreshes per tuple.
  void Process(StreamElement&& elem, int port) override;

  /// \brief Tuple path: invalidate the opposite window, resolve the
  /// policy, insert, probe.
  void ProcessTuple(Tuple t, int port);
  /// \brief Sp path: install into the port's tracker.
  void ProcessSp(const SecurityPunctuation& sp, int port);

  /// \brief Variant-specific: probe the window opposite to `from_port` with
  /// tuple `t` (policy `t_policy`) and emit join results.
  virtual void Probe(const Tuple& t, const PolicyPtr& t_policy,
                     int from_port) = 0;

  /// \brief Hook: a tuple landed in `segment` of window `port` (the segment
  /// may be freshly created). The index variant maintains the SPIndex here.
  virtual void OnSegmentTouched(Segment* segment, bool created, int port) {
    (void)segment;
    (void)created;
    (void)port;
  }

  /// \brief Hook: `segment` of window `port` is being purged.
  virtual void OnSegmentPurged(Segment* segment, int port) {
    (void)segment;
    (void)port;
  }

  /// \brief Emit one join result (policies already known compatible or to be
  /// checked here): intersects the base policies, discards on empty, and
  /// precedes output with a synthesized sp when the policy changed.
  void EmitJoinResult(const Tuple& left, const Tuple& right,
                      const Policy& left_policy, const Policy& right_policy);

  /// \brief Key value of a tuple on the given port.
  const Value& KeyOf(const Tuple& t, int port) const {
    const int col =
        port == 0 ? options_.left_key_col : options_.right_key_col;
    return t.values[static_cast<size_t>(col)];
  }

  void UpdateStateBytes();

  SaJoinOptions options_;
  PolicyTracker trackers_[2];
  SegmentedWindow windows_[2];
  OutputPolicyEmitter output_emitter_;

 private:
  // Checkpoint cursor over the scalar state (the windows keep their own).
  Timestamp ckpt_tracker_ts_[2] = {kMinTimestamp, kMinTimestamp};
  Timestamp ckpt_emitter_ts_ = kMinTimestamp;
  Timestamp pending_tracker_ts_[2] = {kMinTimestamp, kMinTimestamp};
  Timestamp pending_emitter_ts_ = kMinTimestamp;
};

/// \brief Nested-loop SAJoin (§V.B.1).
class SaJoinNl : public SaJoinBase {
 public:
  SaJoinNl(ExecContext* ctx, SaJoinOptions options,
           std::string label = "sajoin_nl")
      : SaJoinBase(ctx, std::move(options), std::move(label)) {}

 protected:
  void Probe(const Tuple& t, const PolicyPtr& t_policy,
             int from_port) override;
};

/// \brief The Security Punctuation Index of §V.B.2 (Figure 6): an r-node
/// array over all roles, each pointing at the FIFO list of index entries
/// (one per resident segment policy) containing that role.
class SpIndex {
 public:
  explicit SpIndex(size_t role_capacity) : rnodes_(role_capacity) {}

  /// \brief Add an index entry for a newly created segment.
  void Insert(Segment* segment);

  /// \brief Remove the entry of a purged segment. Expiry is FIFO, so the
  /// entry sits at the r-head of each of its roles' lists (property 3).
  void Remove(Segment* segment);

  /// \brief Visit policy-compatible segments: for each role in
  /// `probe_roles` (ascending), walk that r-node's entries. With the
  /// skipping rule (Lemma 5.1) each compatible segment is delivered exactly
  /// once, skipped in O(1) on re-encounters. Without it — the naive
  /// baseline — fn fires once per shared role; `first_visit` is false on
  /// re-encounters so callers can suppress duplicate emission while still
  /// paying the duplicate processing cost.
  /// \return number of index entries touched (scan-work metric).
  size_t Probe(const RoleSet& probe_roles, bool use_skipping_rule,
               const std::function<void(Segment*, bool first_visit)>& fn);

  size_t entry_count() const { return entry_count_; }
  /// O(1): entry bytes are counted at Insert and Remove.
  size_t MemoryBytes() const {
    return sizeof(SpIndex) + rnodes_.capacity() * sizeof(RNode) +
           entry_bytes_;
  }

 private:
  struct Entry {
    Segment* segment = nullptr;
    std::vector<RoleId> roles;           // ascending
    std::vector<Entry*> next;            // parallel to roles
    uint64_t visit_stamp = 0;            // no-skipping dedup
  };
  struct RNode {
    Entry* head = nullptr;
    Entry* tail = nullptr;
  };

  /// Append `entry` at the r-tail of each of its roles' lists.
  void Link(Entry* entry);
  Entry* FindEntrySlot(Entry* e, RoleId role, size_t* slot) const;
  /// An entry's heap footprint, its by_segment_ node included.
  static size_t EntryBytes(const Entry& e);

  std::vector<RNode> rnodes_;
  std::unordered_map<Segment*, std::unique_ptr<Entry>> by_segment_;
  uint64_t stamp_ = 0;
  size_t entry_count_ = 0;
  size_t entry_bytes_ = 0;
};

/// \brief Index SAJoin (§V.B.2): probes the opposite window's SPIndex to
/// join only with policy-compatible segments. With the skipping rule, each
/// delivered segment answers an int64 key through its SegmentKeyMap instead
/// of a scan; the naive no-skipping mode keeps the scan (the Fig. 9
/// baseline) and its windows keep no key maps.
class SaJoinIndex : public SaJoinBase {
 public:
  SaJoinIndex(ExecContext* ctx, SaJoinOptions options,
              std::string label = "sajoin_index");

  /// \brief Index entries scanned so far (work metric for Lemma 5.1 tests).
  int64_t index_entries_scanned() const { return entries_scanned_; }

  /// \brief Segment probings performed. With the skipping rule each
  /// compatible segment is probed once per tuple; the naive mode probes it
  /// once per shared role — the duplicate work Lemma 5.1 eliminates.
  int64_t segments_processed() const { return segments_processed_; }

 protected:
  void Probe(const Tuple& t, const PolicyPtr& t_policy,
             int from_port) override;
  void OnSegmentTouched(Segment* segment, bool created, int port) override;
  void OnSegmentPurged(Segment* segment, int port) override;
  void OnWindowsRestored() override;
  size_t IndexMemoryBytes() const override {
    return indexes_[0].MemoryBytes() + indexes_[1].MemoryBytes();
  }

 private:
  SpIndex indexes_[2];  // one SPIndex per input window
  std::vector<uint64_t> hits_;  // key-map lookup buffer, reused per probe
  int64_t entries_scanned_ = 0;
  int64_t segments_processed_ = 0;
};

}  // namespace spstream

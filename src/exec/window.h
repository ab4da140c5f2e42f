// Time-based sliding window organized as s-punctuated segments (§V.B):
// runs of tuples sharing one access-control policy, each preceded by the
// sp(s) describing it. Invalidation purges a segment's sps exactly when its
// last tuple expires.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "security/policy.h"
#include "security/security_punctuation.h"
#include "stream/tuple.h"

namespace spstream {

/// \brief Int64 join-key -> position index over one segment's tuples.
///
/// Positions are the segment's `appended` coordinate: while resident, the
/// tuple at position p is `tuples[p - first]` with
/// `first = appended - tuples.size()`, and head expiry does not move them.
/// A flat open-addressing table maps each key to the newest position that
/// holds it, and `prev_` links every indexed position to the previous one
/// with the same key. Expired positions are skipped lazily: a walk stops at
/// the first position below `first`. The owning window compacts the map
/// (Rebuild) once stale positions outnumber the resident tuples.
class SegmentKeyMap {
 public:
  /// \brief Index `key` at position `pos`; positions arrive consecutively.
  /// A non-int64 key is not indexed but marks the map inexact until that
  /// position expires.
  void Add(const Value& key, uint64_t pos);

  /// \brief Drop everything and index `tuples` (positions from `first`)
  /// by column `key_col`.
  void Rebuild(const std::deque<Tuple>& tuples, uint64_t first, int key_col);

  /// \brief True when a lookup finds exactly the tuples a scan would: no
  /// resident tuple has a non-int64 key (a double can equal an int64).
  bool Exact(uint64_t first) const { return other_end_ <= first; }

  /// \brief Append to `out` the resident positions (>= `first`) holding
  /// `key`, newest first.
  void Find(int64_t key, uint64_t first, std::vector<uint64_t>* out) const;

  /// Positions held, resident and stale: the compaction measure.
  size_t stored_positions() const { return prev_.size(); }
  size_t HeapBytes() const {
    return slots_.capacity() * sizeof(Slot) +
           prev_.capacity() * sizeof(uint64_t);
  }

 private:
  struct Slot {
    int64_t key = 0;
    uint64_t pos1 = 0;  // newest position + 1; 0 marks an empty slot
  };

  size_t Home(int64_t key) const {
    return static_cast<size_t>((static_cast<uint64_t>(key) *
                                0x9e3779b97f4a7c15ULL) >> shift_);
  }
  void Resize(size_t capacity);  // power of two

  std::vector<Slot> slots_;
  size_t used_ = 0;    // occupied slots (distinct keys since the last rebuild)
  int shift_ = 64;     // 64 - log2(slots_.size())
  uint64_t base_ = 0;  // position of prev_[0]
  std::vector<uint64_t> prev_;  // previous position + 1 with the same key
  uint64_t other_end_ = 0;  // newest non-int64-key position + 1; 0 = none
};

/// \brief One s-punctuated segment: a policy, the sps that expressed it, and
/// the run of tuples it governs (chronological, newest at the back).
struct Segment {
  PolicyPtr policy;
  std::vector<SecurityPunctuation> sps;
  std::deque<Tuple> tuples;
  /// Stable creation id within one window (1-based, ascending front to
  /// back) — the address space of incremental checkpoint records.
  uint64_t seq = 0;
  /// Tuples ever appended to this segment, including ones already expired;
  /// the checkpoint cursor counts in this coordinate so expiry between two
  /// checkpoints cannot shift what "new since last delta" means.
  uint64_t appended = 0;
  /// Join-key index over `tuples`; maintained only when the window was
  /// asked to (SegmentedWindow::IndexKeys), empty otherwise.
  SegmentKeyMap keys;

  /// First resident position in the `appended` coordinate.
  uint64_t first_position() const { return appended - tuples.size(); }
};

/// \brief Sliding window over one join input, segment-partitioned.
///
/// Tuples are appended at the tail (most recent); expiry removes from the
/// head — the list structure of §V.B.1. Segment objects have stable
/// addresses for the lifetime of their residency (the SPIndex points at
/// them).
class SegmentedWindow {
 public:
  explicit SegmentedWindow(Timestamp window_size)
      : window_size_(window_size) {}

  /// \brief Maintain every segment's SegmentKeyMap on column `key_col`:
  /// at insert, at expiry (compaction) and at checkpoint restore. Call
  /// before the first insert or restore.
  void IndexKeys(int key_col) { key_col_ = key_col; }

  /// \brief Append a tuple under `policy`. Starts a new segment when the
  /// policy differs from the tail segment's; `batch_sps` (the sps that
  /// carried the policy) are recorded on the new segment.
  /// \return the segment holding the tuple, and whether it was just created.
  std::pair<Segment*, bool> InsertTuple(
      Tuple t, const PolicyPtr& policy,
      const std::vector<SecurityPunctuation>& batch_sps);

  struct InvalidationStats {
    size_t tuples_removed = 0;
    size_t segments_purged = 0;
    size_t sps_purged = 0;
  };

  /// \brief Remove tuples with ts <= now - window_size from the head.
  /// `on_purge` (optional) fires for each fully-drained segment while it is
  /// still alive, so callers can unhook index entries.
  InvalidationStats Invalidate(
      Timestamp now, const std::function<void(Segment*)>& on_purge = {});

  std::deque<Segment>& segments() { return segments_; }
  const std::deque<Segment>& segments() const { return segments_; }

  size_t tuple_count() const { return tuple_count_; }
  size_t segment_count() const { return segments_.size(); }

  // ---- incremental checkpointing (docs/DURABILITY.md) --------------------
  // The delta records only what changed since the last DURABLE checkpoint:
  // segments created since then in full, plus the surviving new tuples of
  // the segment that was the tail at that checkpoint. Expiry is never
  // recorded — it is a monotone function of the watermark, so the restore
  // side re-derives it by invalidating at the serialized watermark.

  /// \brief Append the delta (or a complete snapshot when `full`) to `out`.
  /// Does NOT advance the checkpoint cursor; call CommitCheckpointCursor()
  /// once the delta is durable.
  void CheckpointDelta(std::string* out, bool full);

  /// \brief The last CheckpointDelta's interval is durable: future deltas
  /// start after it.
  void CommitCheckpointCursor();

  /// \brief True when CheckpointDelta would record nothing.
  bool CheckpointClean() const;

  /// \brief Apply one delta blob starting at `*offset` (chain order,
  /// oldest first). Leaves the checkpoint cursor at the applied state.
  Status ApplyCheckpoint(std::string_view data, size_t* offset);

  /// O(1): maintained incrementally by InsertTuple/Invalidate — the window
  /// used to be walked in full (every segment, tuple and value) on every
  /// call, which made per-tuple state accounting O(window) and dominated
  /// single-shard join cost. Resident tuples/sps/policies are immutable
  /// while windowed, so add-at-insert / subtract-at-expiry stays exact.
  /// Key maps are counted by the byte delta of each map update. Callers
  /// mutating segments() directly would desync the counter; none do (the
  /// SPIndex only links to segments).
  size_t MemoryBytes() const { return sizeof(SegmentedWindow) + bytes_; }

 private:
  /// Bytes of a segment minus its tuples (header, policy, sps, key map) —
  /// the part accounted at segment creation and purge.
  static size_t SegmentOverheadBytes(const Segment& s);

  /// Index the newest tuple of `s` in its key map, compacting when stale
  /// positions pile up.
  void IndexNewest(Segment* s);
  /// Rebuild `s`'s key map when it holds more than 2x resident + slack
  /// positions (or unconditionally when `force`).
  void CompactKeys(Segment* s, bool force);

  /// Reset the checkpoint cursor to the current tail (or "nothing new"
  /// when the window is empty).
  void SetCursorToTail(uint64_t* seq, uint64_t* appended) const;

  Timestamp window_size_;
  std::deque<Segment> segments_;
  size_t tuple_count_ = 0;
  size_t bytes_ = 0;  // segment overheads + key maps + resident tuples
  int key_col_ = -1;  // IndexKeys column; -1 = no key maps

  uint64_t next_seq_ = 1;  // id of the next segment created
  /// Highest invalidation timestamp seen (the serialized expiry horizon).
  Timestamp watermark_ = kMinTimestamp;
  // Committed cursor: tail position at the last durable checkpoint.
  uint64_t ckpt_seq_ = 0;
  uint64_t ckpt_appended_ = 0;
  // Staged cursor: tail position at the last CheckpointDelta call.
  uint64_t pending_seq_ = 0;
  uint64_t pending_appended_ = 0;
};

}  // namespace spstream

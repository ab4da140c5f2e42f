#include "exec/window.h"

#include <algorithm>
#include <bit>

#include "security/sp_codec.h"
#include "storage/state_codec.h"

namespace spstream {

namespace {

// Record kinds inside a window delta (docs/DURABILITY.md).
constexpr uint8_t kRecNewSegment = 0;   // segment created since the cursor
constexpr uint8_t kRecTailAppend = 1;   // new tuples of the old tail segment

void PutSegmentFull(const Segment& s, std::string* out) {
  PutVarint(s.seq, out);
  out->push_back(static_cast<char>(kRecNewSegment));
  out->push_back(s.policy ? 1 : 0);
  if (s.policy) {
    storage::PutRoleSet(s.policy->allowed(), out);
    PutVarint(ZigZagEncode(s.policy->ts()), out);
  }
  PutVarint(s.sps.size(), out);
  for (const SecurityPunctuation& sp : s.sps) EncodeSp(sp, out);
  PutVarint(s.appended, out);
  // Surviving tuples only: expired ones are gone and the restore side never
  // needs them (expiry is re-derived from the watermark).
  PutVarint(s.tuples.size(), out);
  for (const Tuple& t : s.tuples) storage::PutTuple(t, out);
}

// A key map is rebuilt once it holds more than 2x resident + this many
// positions, so its memory stays O(resident) and each rebuild is paid for
// by at least as many inserts or expiries.
constexpr size_t kKeyMapSlack = 64;

}  // namespace

// ---- SegmentKeyMap ---------------------------------------------------------

void SegmentKeyMap::Resize(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const Slot& s : old) {
    if (s.pos1 == 0) continue;
    size_t i = Home(s.key);
    while (slots_[i].pos1 != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void SegmentKeyMap::Add(const Value& key, uint64_t pos) {
  if (prev_.empty()) base_ = pos;
  if (!key.is_int64()) {
    prev_.push_back(0);
    other_end_ = pos + 1;
    return;
  }
  if ((used_ + 1) * 2 > slots_.size()) {
    Resize(std::max<size_t>(16, slots_.size() * 2));
  }
  const int64_t k = key.int64();
  const size_t mask = slots_.size() - 1;
  size_t i = Home(k);
  while (slots_[i].pos1 != 0 && slots_[i].key != k) i = (i + 1) & mask;
  Slot& slot = slots_[i];
  if (slot.pos1 == 0) {
    slot.key = k;
    ++used_;
  }
  prev_.push_back(slot.pos1);
  slot.pos1 = pos + 1;
}

void SegmentKeyMap::Rebuild(const std::deque<Tuple>& tuples, uint64_t first,
                            int key_col) {
  // Size for the distinct keys the old map saw, capped by the tuple count;
  // Add grows the table if that guess is short.
  const size_t distinct = std::min(used_, tuples.size());
  slots_.clear();
  slots_.shrink_to_fit();
  used_ = 0;
  if (distinct > 0) Resize(std::bit_ceil(std::max<size_t>(16, distinct * 2)));
  prev_ = std::vector<uint64_t>();
  prev_.reserve(tuples.size());
  base_ = first;
  other_end_ = 0;
  uint64_t pos = first;
  for (const Tuple& t : tuples) {
    Add(t.values[static_cast<size_t>(key_col)], pos++);
  }
}

void SegmentKeyMap::Find(int64_t key, uint64_t first,
                         std::vector<uint64_t>* out) const {
  if (slots_.empty()) return;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(key); slots_[i].pos1 != 0; i = (i + 1) & mask) {
    if (slots_[i].key != key) continue;
    // The chain runs newest to oldest; the first expired position ends it.
    for (uint64_t p1 = slots_[i].pos1; p1 > first;
         p1 = prev_[p1 - 1 - base_]) {
      out->push_back(p1 - 1);
    }
    return;
  }
}

// ---- SegmentedWindow -------------------------------------------------------

size_t SegmentedWindow::SegmentOverheadBytes(const Segment& s) {
  size_t bytes = sizeof(Segment) + s.keys.HeapBytes();
  bytes += s.policy ? s.policy->MemoryBytes() : 0;
  for (const SecurityPunctuation& sp : s.sps) bytes += sp.MemoryBytes();
  return bytes;
}

std::pair<Segment*, bool> SegmentedWindow::InsertTuple(
    Tuple t, const PolicyPtr& policy,
    const std::vector<SecurityPunctuation>& batch_sps) {
  ++tuple_count_;
  if (!segments_.empty()) {
    Segment& tail = segments_.back();
    // Same policy object, or an equal policy, extends the tail segment —
    // this is the sp-sharing that keeps punctuation memory sublinear.
    if (tail.policy == policy ||
        (tail.policy && policy && *tail.policy == *policy)) {
      tail.tuples.push_back(std::move(t));
      ++tail.appended;
      bytes_ += tail.tuples.back().MemoryBytes();
      IndexNewest(&tail);
      return {&tail, false};
    }
  }
  segments_.push_back(Segment{policy, batch_sps, {}, next_seq_++, 0, {}});
  Segment& created = segments_.back();
  created.tuples.push_back(std::move(t));
  ++created.appended;
  bytes_ += SegmentOverheadBytes(created) + created.tuples.back().MemoryBytes();
  IndexNewest(&created);
  return {&created, true};
}

void SegmentedWindow::IndexNewest(Segment* s) {
  if (key_col_ < 0) return;
  bytes_ -= s->keys.HeapBytes();
  s->keys.Add(s->tuples.back().values[static_cast<size_t>(key_col_)],
              s->appended - 1);
  bytes_ += s->keys.HeapBytes();
  CompactKeys(s, /*force=*/false);
}

void SegmentedWindow::CompactKeys(Segment* s, bool force) {
  if (key_col_ < 0) return;
  if (!force &&
      s->keys.stored_positions() <= 2 * s->tuples.size() + kKeyMapSlack) {
    return;
  }
  bytes_ -= s->keys.HeapBytes();
  s->keys.Rebuild(s->tuples, s->first_position(), key_col_);
  bytes_ += s->keys.HeapBytes();
}

SegmentedWindow::InvalidationStats SegmentedWindow::Invalidate(
    Timestamp now, const std::function<void(Segment*)>& on_purge) {
  InvalidationStats stats;
  if (now > watermark_) watermark_ = now;
  const Timestamp cutoff = now - window_size_;
  while (!segments_.empty()) {
    Segment& head = segments_.front();
    while (!head.tuples.empty() && head.tuples.front().ts <= cutoff) {
      bytes_ -= head.tuples.front().MemoryBytes();
      head.tuples.pop_front();
      --tuple_count_;
      ++stats.tuples_removed;
    }
    if (!head.tuples.empty()) {
      // Only the head loses tuples, so only its key map can go stale here.
      if (stats.tuples_removed > 0) CompactKeys(&head, /*force=*/false);
      break;
    }
    // All tuples of the head segment are invalidated: purge its sps too
    // (§V.B.1 step 2).
    ++stats.segments_purged;
    stats.sps_purged += head.sps.size();
    bytes_ -= SegmentOverheadBytes(head);
    if (on_purge) on_purge(&head);
    segments_.pop_front();
  }
  return stats;
}

// ---- incremental checkpointing -------------------------------------------

void SegmentedWindow::SetCursorToTail(uint64_t* seq, uint64_t* appended) const {
  if (segments_.empty()) {
    // Nothing resident: park the cursor on the last id ever created so a
    // future segment (seq >= next_seq_) still reads as "new".
    *seq = next_seq_ - 1;
    *appended = 0;
  } else {
    *seq = segments_.back().seq;
    *appended = segments_.back().appended;
  }
}

bool SegmentedWindow::CheckpointClean() const {
  for (const Segment& s : segments_) {
    if (s.seq > ckpt_seq_) return false;
    if (s.seq == ckpt_seq_ && s.appended > ckpt_appended_) return false;
  }
  return true;
}

void SegmentedWindow::CheckpointDelta(std::string* out, bool full) {
  out->push_back(full ? 1 : 0);
  PutVarint(ZigZagEncode(watermark_), out);
  PutVarint(next_seq_, out);

  size_t count = 0;
  std::string body;
  for (const Segment& s : segments_) {
    if (full || s.seq > ckpt_seq_) {
      PutSegmentFull(s, &body);
      ++count;
    } else if (s.seq == ckpt_seq_ && s.appended > ckpt_appended_) {
      // The segment that was the tail at the last durable checkpoint grew.
      // Only the tail ever takes appends, so there is at most one of these.
      PutVarint(s.seq, &body);
      body.push_back(static_cast<char>(kRecTailAppend));
      PutVarint(s.appended, &body);
      const uint64_t new_since = s.appended - ckpt_appended_;
      const uint64_t n =
          std::min<uint64_t>(new_since, s.tuples.size());  // some may have expired
      PutVarint(n, &body);
      for (size_t i = s.tuples.size() - static_cast<size_t>(n);
           i < s.tuples.size(); ++i) {
        storage::PutTuple(s.tuples[i], &body);
      }
      ++count;
    }
  }
  PutVarint(count, out);
  out->append(body);
  SetCursorToTail(&pending_seq_, &pending_appended_);
}

void SegmentedWindow::CommitCheckpointCursor() {
  ckpt_seq_ = pending_seq_;
  ckpt_appended_ = pending_appended_;
}

Status SegmentedWindow::ApplyCheckpoint(std::string_view data,
                                        size_t* offset) {
  if (*offset >= data.size()) {
    return Status::Internal("window delta: truncated header");
  }
  const bool full = data[*offset] != 0;
  ++*offset;
  SP_ASSIGN_OR_RETURN(uint64_t wm_raw, GetVarint(data, offset));
  const Timestamp watermark = ZigZagDecode(wm_raw);
  SP_ASSIGN_OR_RETURN(uint64_t next_seq, GetVarint(data, offset));
  SP_ASSIGN_OR_RETURN(uint64_t count, GetVarint(data, offset));

  if (full) {
    segments_.clear();
    tuple_count_ = 0;
    bytes_ = 0;
  }

  for (uint64_t r = 0; r < count; ++r) {
    SP_ASSIGN_OR_RETURN(uint64_t seq, GetVarint(data, offset));
    if (*offset >= data.size()) {
      return Status::Internal("window delta: truncated record");
    }
    const uint8_t kind = static_cast<uint8_t>(data[*offset]);
    ++*offset;
    if (kind == kRecNewSegment) {
      if (*offset >= data.size()) {
        return Status::Internal("window delta: truncated segment");
      }
      const bool has_policy = data[*offset] != 0;
      ++*offset;
      PolicyPtr policy;
      if (has_policy) {
        SP_ASSIGN_OR_RETURN(RoleSet roles, storage::GetRoleSet(data, offset));
        SP_ASSIGN_OR_RETURN(uint64_t ts_raw, GetVarint(data, offset));
        policy = MakePolicy(std::move(roles), ZigZagDecode(ts_raw));
      }
      SP_ASSIGN_OR_RETURN(uint64_t n_sps, GetVarint(data, offset));
      std::vector<SecurityPunctuation> sps;
      sps.reserve(n_sps);
      for (uint64_t i = 0; i < n_sps; ++i) {
        SP_ASSIGN_OR_RETURN(SecurityPunctuation sp, DecodeSp(data, offset));
        sps.push_back(std::move(sp));
      }
      SP_ASSIGN_OR_RETURN(uint64_t appended, GetVarint(data, offset));
      SP_ASSIGN_OR_RETURN(uint64_t n_tuples, GetVarint(data, offset));
      if (!segments_.empty() && segments_.back().seq >= seq) {
        return Status::Internal("window delta: segment seq out of order");
      }
      segments_.push_back(
          Segment{std::move(policy), std::move(sps), {}, seq, appended, {}});
      Segment& created = segments_.back();
      for (uint64_t i = 0; i < n_tuples; ++i) {
        SP_ASSIGN_OR_RETURN(Tuple t, storage::GetTuple(data, offset));
        created.tuples.push_back(std::move(t));
        bytes_ += created.tuples.back().MemoryBytes();
        ++tuple_count_;
      }
      bytes_ += SegmentOverheadBytes(created);
      // Key maps are derived state, not checkpointed: rebuild.
      CompactKeys(&created, /*force=*/true);
    } else if (kind == kRecTailAppend) {
      SP_ASSIGN_OR_RETURN(uint64_t appended, GetVarint(data, offset));
      SP_ASSIGN_OR_RETURN(uint64_t n_new, GetVarint(data, offset));
      if (segments_.empty() || segments_.back().seq != seq) {
        return Status::Internal("window delta: tail-append targets seq " +
                                std::to_string(seq) +
                                " which is not the resident tail");
      }
      Segment& tail = segments_.back();
      tail.appended = appended;
      for (uint64_t i = 0; i < n_new; ++i) {
        SP_ASSIGN_OR_RETURN(Tuple t, storage::GetTuple(data, offset));
        tail.tuples.push_back(std::move(t));
        bytes_ += tail.tuples.back().MemoryBytes();
        ++tuple_count_;
      }
      // Tuples that expired before the delta was cut leave a gap in the
      // positions, so rebuild rather than extend.
      CompactKeys(&tail, /*force=*/true);
    } else {
      return Status::Internal("window delta: unknown record kind " +
                              std::to_string(kind));
    }
  }

  next_seq_ = std::max(next_seq_, next_seq);
  // Re-derive expiry: the live run invalidated up to `watermark` before
  // this delta was cut, and expiry is a monotone threshold on tuple ts.
  if (watermark > kMinTimestamp) Invalidate(watermark);
  SetCursorToTail(&ckpt_seq_, &ckpt_appended_);
  pending_seq_ = ckpt_seq_;
  pending_appended_ = ckpt_appended_;
  return Status::OK();
}

}  // namespace spstream

#include "exec/reorder.h"

namespace spstream {

void ReorderOp::Process(StreamElement&& elem, int) {
  if (elem.is_control()) {
    Emit(std::move(elem));
    return;
  }
  const Timestamp ts = elem.ts();
  if (elem.is_tuple()) {
    ++metrics_.tuples_in;
  } else {
    ++metrics_.sps_in;
  }
  if (ts < released_ts_) {
    // Arrived beyond the slack: releasing it now would break downstream
    // monotonicity. Count and drop (denial-by-default keeps this safe: a
    // dropped late sp can only deny, never leak).
    ++late_drops_;
    return;
  }
  heap_.push(Entry{ts, elem.is_tuple(), seq_++, std::move(elem)});
  if (ts > max_ts_) max_ts_ = ts;
  Release(max_ts_ - options_.slack);
  metrics_.NoteStateBytes(
      static_cast<int64_t>(heap_.size() * sizeof(Entry)));
}

void ReorderOp::Release(Timestamp watermark) {
  while (!heap_.empty() && heap_.top().ts <= watermark) {
    Entry e = std::move(const_cast<Entry&>(heap_.top()));
    heap_.pop();
    released_ts_ = e.ts;
    if (e.element.is_tuple()) {
      EmitTuple(std::move(e.element.tuple()));
    } else {
      EmitSp(std::move(e.element.sp()));
    }
  }
}

void ReorderOp::OnAllFinished() { Release(kMaxTimestamp); }

}  // namespace spstream

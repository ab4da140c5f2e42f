// Bounded out-of-order repair. The paper assumes in-order sp arrival and
// points at window-semantics work ([8], [9]) for the out-of-order case;
// this operator implements that repair: elements are buffered and released
// in timestamp order once the watermark (max ts seen minus an allowed
// `slack`) passes them. Ties release sps before tuples so the
// sp-precedes-its-tuples invariant is restored, with arrival order
// preserved within each class.
#pragma once

#include <queue>

#include "exec/operator.h"

namespace spstream {

struct ReorderOptions {
  /// How far (in timestamp units) an element may arrive late. Elements
  /// later than this are dropped (counted, never reordered past the
  /// watermark — downstream monotonicity is guaranteed).
  Timestamp slack = 100;
};

class ReorderOp : public Operator {
 public:
  ReorderOp(ExecContext* ctx, ReorderOptions options,
            std::string label = "reorder")
      : Operator(ctx, std::move(label)), options_(options) {}

  int64_t late_drops() const { return late_drops_; }

 protected:
  void Process(StreamElement&& elem, int) override;
  void OnAllFinished() override;

 private:
  struct Entry {
    Timestamp ts;
    bool is_tuple;   // sps sort before tuples at equal ts
    uint64_t seq;    // arrival order within the same (ts, class)
    StreamElement element;

    bool operator>(const Entry& other) const {
      if (ts != other.ts) return ts > other.ts;
      if (is_tuple != other.is_tuple) return is_tuple && !other.is_tuple;
      return seq > other.seq;
    }
  };

  void Release(Timestamp watermark);

  ReorderOptions options_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  Timestamp max_ts_ = kMinTimestamp;
  Timestamp released_ts_ = kMinTimestamp;
  uint64_t seq_ = 0;
  int64_t late_drops_ = 0;
};

}  // namespace spstream

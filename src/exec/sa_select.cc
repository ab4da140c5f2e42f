#include "exec/sa_select.h"

#include "exec/vector_eval.h"

namespace spstream {

bool SaSelect::ProcessColumnar(ElementBatch& batch, ElementBatch* out, int) {
  if (!vector_pred_tried_) {
    vector_pred_tried_ = true;
    VectorPredicate pred;
    if (pred.Compile(*predicate_)) vector_pred_ = std::move(pred);
  }
  if (!vector_pred_.has_value()) return false;  // scalar fallback
  VectorPredicate& pred = *vector_pred_;
  std::vector<ElementBatch::Special> kept;
  std::vector<uint32_t> sel;
  sel.reserve(batch.num_live_rows());
  std::vector<ElementBatch::Special>& specials = batch.specials();
  size_t si = 0;
  auto flush_pending = [&](uint32_t before_row) {
    pending_emitted_ = true;
    for (SecurityPunctuation& sp : pending_sps_) {
      ++metrics_.sps_out;
      kept.push_back(
          ElementBatch::Special{before_row, StreamElement(std::move(sp))});
    }
    pending_sps_.clear();
  };
  auto handle_special = [&](ElementBatch::Special& s) {
    StreamElement& e = s.elem;
    if (e.is_sp()) {
      ++metrics_.sps_in;
      const Timestamp sp_ts = e.sp().ts();
      if (!pending_ts_ || *pending_ts_ != sp_ts) {
        // New batch: the previous one (if unsent) covered only filtered
        // tuples, so its sps are discarded per Table I.
        pending_sps_.clear();
        pending_ts_ = sp_ts;
        pending_emitted_ = false;
      }
      pending_sps_.push_back(std::move(e.sp()));
    } else {
      kept.push_back(std::move(s));  // control passes through in place
    }
  };
  const size_t live = batch.num_live_rows();
  for (size_t k = 0; k < live; ++k) {
    const uint32_t r = batch.live_row(k);
    while (si < specials.size() && specials[si].before_row <= r) {
      handle_special(specials[si]);
      ++si;
    }
    ++metrics_.tuples_in;
    if (!pred.Test(batch, r)) {
      ++metrics_.tuples_dropped_predicate;
      continue;
    }
    if (!pending_emitted_) flush_pending(r);
    ++metrics_.tuples_out;
    sel.push_back(r);
  }
  for (; si < specials.size(); ++si) {
    handle_special(specials[si]);
  }
  batch.ReplaceSpecials(std::move(kept));
  batch.SetSelection(std::move(sel));
  *out = std::move(batch);
  return true;
}

void SaSelect::Process(StreamElement&& elem, int) {
  if (elem.is_sp()) {
    ++metrics_.sps_in;
    const Timestamp sp_ts = elem.sp().ts();
    if (!pending_ts_ || *pending_ts_ != sp_ts) {
      // New batch: the previous one (if unsent) covered only filtered
      // tuples, so its sps are discarded per Table I.
      pending_sps_.clear();
      pending_ts_ = sp_ts;
      pending_emitted_ = false;
    }
    pending_sps_.push_back(std::move(elem.sp()));
    return;
  }
  if (!elem.is_tuple()) {
    Emit(std::move(elem));
    return;
  }

  ++metrics_.tuples_in;
  const Tuple& t = elem.tuple();
  if (!predicate_->EvalBool(t)) {
    ++metrics_.tuples_dropped_predicate;
    return;
  }
  if (!pending_emitted_) {
    pending_emitted_ = true;
    for (SecurityPunctuation& sp : pending_sps_) {
      EmitSp(std::move(sp));
    }
    pending_sps_.clear();
  }
  EmitTuple(std::move(elem.tuple()));
}

}  // namespace spstream

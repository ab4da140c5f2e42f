#include "stream/element_batch.h"

namespace spstream {

void ElementBatch::LatchColumns(size_t ncols) {
  cols_.resize(ncols);
  if (reserve_hint_ > 0) {
    for (ColumnVector& c : cols_) c.reserve(reserve_hint_);
  }
  ncols_set_ = true;
}

bool ElementBatch::TryAppendTuple(const Tuple& t) {
  if (!ncols_set_) LatchColumns(t.values.size());
  if (t.values.size() != cols_.size()) return false;
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (!cols_[i].Accepts(t.values[i])) return false;
  }
  for (size_t i = 0; i < cols_.size(); ++i) {
    cols_[i].TryAppend(t.values[i]);
  }
  sids_.push_back(t.sid);
  tids_.push_back(t.tid);
  tss_.push_back(t.ts);
  if (has_sel_) sel_.push_back(static_cast<uint32_t>(num_rows() - 1));
  return true;
}

void ElementBatch::push_back(StreamElement e) {
  if (e.is_end_of_stream()) has_eos_ = true;
  if (columnar_) {
    if (e.is_tuple()) {
      if (TryAppendTuple(e.tuple())) return;
      DecayToRows();  // mismatch: fall through to the row append
    } else {
      specials_.push_back(
          Special{static_cast<uint32_t>(num_rows()), std::move(e)});
      return;
    }
  }
  elems_.push_back(std::move(e));
}

void ElementBatch::Append(const StreamElement& e) {
  if (columnar_) {
    if (e.is_tuple()) {
      if (TryAppendTuple(e.tuple())) return;
      DecayToRows();
    } else {
      if (e.is_end_of_stream()) has_eos_ = true;
      specials_.push_back(Special{static_cast<uint32_t>(num_rows()), e});
      return;
    }
  }
  if (e.is_end_of_stream()) has_eos_ = true;
  elems_.push_back(e);
}

Tuple ElementBatch::MaterializeTuple(size_t row) const {
  std::vector<Value> values;
  values.reserve(cols_.size());
  for (const ColumnVector& c : cols_) {
    values.push_back(c.ValueAt(row));
  }
  return Tuple(sids_[row], tids_[row], std::move(values), tss_[row]);
}

void ElementBatch::DecayToRows() const {
  if (!columnar_) return;
  std::vector<StreamElement> out;
  out.reserve(num_live_rows() + specials_.size() + elems_.size());
  const size_t live = num_live_rows();
  size_t si = 0;
  for (size_t k = 0; k < live; ++k) {
    const uint32_t r = has_sel_ ? sel_[k] : static_cast<uint32_t>(k);
    while (si < specials_.size() && specials_[si].before_row <= r) {
      out.push_back(std::move(specials_[si].elem));
      ++si;
    }
    out.push_back(StreamElement(MaterializeTuple(r)));
  }
  for (; si < specials_.size(); ++si) {
    out.push_back(std::move(specials_[si].elem));
  }
  elems_ = std::move(out);
  columnar_ = false;
  ncols_set_ = false;
  has_sel_ = false;
  sids_.clear();
  tids_.clear();
  tss_.clear();
  cols_.clear();
  specials_.clear();
  sel_.clear();
}

void ElementBatch::CountLive(int64_t* tuples, int64_t* sps) const {
  if (columnar_) {
    *tuples += static_cast<int64_t>(num_live_rows());
    for (const Special& s : specials_) {
      if (s.elem.is_sp()) ++*sps;
    }
    return;
  }
  for (const StreamElement& e : elems_) {
    if (e.is_tuple()) {
      ++*tuples;
    } else if (e.is_sp()) {
      ++*sps;
    }
  }
}

size_t ElementBatch::MemoryBytes() const {
  size_t bytes = sizeof(ElementBatch);
  bytes += elems_.capacity() * sizeof(StreamElement);
  for (const StreamElement& e : elems_) bytes += e.MemoryBytes();
  bytes += sids_.capacity() * sizeof(StreamId) +
           tids_.capacity() * sizeof(TupleId) +
           tss_.capacity() * sizeof(Timestamp) +
           sel_.capacity() * sizeof(uint32_t) +
           specials_.capacity() * sizeof(Special);
  for (const ColumnVector& c : cols_) bytes += c.MemoryBytes();
  for (const Special& s : specials_) bytes += s.elem.MemoryBytes();
  return bytes;
}

void ElementBatch::clear() {
  elems_.clear();
  has_eos_ = false;
  columnar_ = false;
  ncols_set_ = false;
  has_sel_ = false;
  reserve_hint_ = 0;
  sids_.clear();
  tids_.clear();
  tss_.clear();
  cols_.clear();
  specials_.clear();
  sel_.clear();
}

}  // namespace spstream

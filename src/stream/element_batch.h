// A micro-batch of stream elements: one run of tuples together with the
// sp/control boundaries that split it. Batching is an execution-layer
// transport only — element order inside a batch is exactly stream order, so
// an operator that processes a batch element-by-element is indistinguishable
// from one fed the elements individually (tests/batch_equivalence_test.cc
// holds the engine to that, byte-for-byte).
//
// The paper's observation that makes batch kernels worthwhile (§III.B): a
// stream's effective policy is constant *between* sp-batches, so every tuple
// of a run delimited by sps shares one access decision. Operators therefore
// never need batches pre-split at sp boundaries — they detect boundaries
// inline (an sp element invalidates whatever per-run state they memoized).
//
// Two representations share this class:
//
//  * rows — a std::vector<StreamElement>, the original AoS transport. Every
//    operator understands it.
//  * columnar (SoA) — per-attribute ColumnVectors plus parallel sid/tid/ts
//    arrays for the tuples, a specials list anchoring sps/controls between
//    rows, and an optional selection vector so filters narrow the batch
//    without materializing a copy.
//
// The columnar form is an optimization, never an obligation: elements()
// lazily decays the batch to rows (exact stream order, exact values), so an
// operator without a columnar kernel keeps working untouched. Anchors in
// the specials list and entries of the selection vector are ORIGINAL row
// indexes — rows are never compacted, so dropping a row from the selection
// invalidates nothing.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "stream/column_vector.h"
#include "stream/stream_element.h"

namespace spstream {

/// \brief A run of stream elements handed through the DAG as one unit.
class ElementBatch {
 public:
  /// \brief An sp or control element anchored between columnar rows:
  /// materialization emits it before original row `before_row`
  /// (`before_row == num_rows()` means after every row). Entries are kept
  /// in non-decreasing anchor order; ties preserve insertion order.
  struct Special {
    uint32_t before_row;
    StreamElement elem;
  };

  ElementBatch() = default;
  explicit ElementBatch(std::vector<StreamElement> elems)
      : elems_(std::move(elems)) {
    for (const StreamElement& e : elems_) {
      if (e.is_end_of_stream()) has_eos_ = true;
    }
  }

  // ---- representation ------------------------------------------------

  bool is_columnar() const { return columnar_; }

  /// \brief An empty batch for a feed that ships `batch_size` elements per
  /// batch, reserved to `n`. It is columnar above batch size 1, so the
  /// kernels engage from the source on; size 1 keeps the row transport (a
  /// one-row columnar batch costs more than the element it carries).
  static ElementBatch ForFeed(size_t batch_size, size_t n) {
    ElementBatch batch;
    if (batch_size > 1) batch.BeginColumnar();
    batch.reserve(n);
    return batch;
  }

  /// \brief Switch an EMPTY batch to the columnar representation. The
  /// column count latches from the first appended tuple; a later tuple
  /// with a different arity (or a type-conflicting value) decays the batch
  /// back to rows — appends never fail, they just stop being columnar.
  void BeginColumnar() {
    columnar_ = true;
    ncols_set_ = false;
  }

  /// \brief Materialize the columnar content into rows (exact stream
  /// order, exact values) and switch the representation. No-op on a row
  /// batch. Logically const: the element sequence is unchanged.
  void DecayToRows() const;

  // ---- row-transparent API (works for both representations) ----------

  void reserve(size_t n) {
    if (columnar_) {
      reserve_hint_ = n;
      sids_.reserve(n);
      tids_.reserve(n);
      tss_.reserve(n);
    } else {
      elems_.reserve(n);
    }
  }

  /// \brief Append by value (moves). On a columnar batch, tuples go to the
  /// columns and sps/controls to the specials list; a mismatched tuple
  /// decays the batch first.
  void push_back(StreamElement e);

  /// \brief Append a copy without constructing an intermediate
  /// StreamElement when columnar (the engine feed path shares one pending
  /// buffer across queries, so it must copy).
  void Append(const StreamElement& e);

  bool empty() const {
    return columnar_ ? num_live_rows() == 0 && specials_.empty()
                     : elems_.empty();
  }

  /// \brief Logical element count: live rows + specials when columnar.
  size_t size() const {
    return columnar_ ? num_live_rows() + specials_.size() : elems_.size();
  }

  /// \brief True when the batch carries an end-of-stream control anywhere.
  /// Such (rare, terminal) batches skip the columnar kernels: the row path
  /// does the finished-port accounting.
  bool has_eos() const { return has_eos_; }

  /// \brief Row view; decays a columnar batch first.
  std::vector<StreamElement>& elements() {
    DecayToRows();
    return elems_;
  }
  const std::vector<StreamElement>& elements() const {
    DecayToRows();
    return elems_;
  }

  void clear();

  /// \brief Retained bytes of the current representation (payload arrays,
  /// validity bitmaps, specials, row elements).
  size_t MemoryBytes() const;

  // ---- columnar access (valid only while is_columnar()) --------------

  /// \brief Original (pre-selection) row count.
  size_t num_rows() const { return tids_.size(); }
  size_t num_columns() const { return cols_.size(); }

  /// \brief Live rows after selection.
  size_t num_live_rows() const {
    return has_sel_ ? sel_.size() : num_rows();
  }
  /// \brief Original index of the k-th live row (ascending in k).
  uint32_t live_row(size_t k) const {
    return has_sel_ ? sel_[k] : static_cast<uint32_t>(k);
  }

  const ColumnVector& column(size_t i) const { return cols_[i]; }
  std::vector<ColumnVector>& mutable_columns() { return cols_; }

  TupleId tid_at(size_t row) const { return tids_[row]; }

  std::vector<Special>& specials() { return specials_; }
  const std::vector<Special>& specials() const { return specials_; }

  /// \brief Install a narrowed selection: ascending original row indexes,
  /// a subset of the current live rows.
  void SetSelection(std::vector<uint32_t> sel) {
    sel_ = std::move(sel);
    has_sel_ = true;
  }
  /// \brief Replace the specials list (anchors must stay non-decreasing).
  void ReplaceSpecials(std::vector<Special> specials) {
    specials_ = std::move(specials);
  }
  /// \brief Replace the column set (projection); row metadata and the
  /// selection are untouched.
  void ReplaceColumns(std::vector<ColumnVector> cols) {
    cols_ = std::move(cols);
  }

  /// \brief Rebuild the Tuple stored at original row `row`.
  Tuple MaterializeTuple(size_t row) const;

  /// \brief Count live tuples and sps (metrics) without materializing.
  void CountLive(int64_t* tuples, int64_t* sps) const;

 private:
  bool TryAppendTuple(const Tuple& t);
  void LatchColumns(size_t ncols);

  // Row representation. Mutable: DecayToRows is logically const (it
  // changes the representation, never the element sequence).
  mutable std::vector<StreamElement> elems_;
  bool has_eos_ = false;

  // Columnar representation.
  mutable bool columnar_ = false;
  mutable bool ncols_set_ = false;
  mutable bool has_sel_ = false;
  size_t reserve_hint_ = 0;
  mutable std::vector<StreamId> sids_;
  mutable std::vector<TupleId> tids_;
  mutable std::vector<Timestamp> tss_;
  mutable std::vector<ColumnVector> cols_;
  mutable std::vector<Special> specials_;
  mutable std::vector<uint32_t> sel_;
};

}  // namespace spstream

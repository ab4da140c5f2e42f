#include "exec/sa_project.h"

namespace spstream {

SaProject::SaProject(ExecContext* ctx, std::vector<int> keep_columns,
                     SchemaPtr input_schema, std::string label)
    : Operator(ctx, std::move(label)),
      keep_columns_(std::move(keep_columns)),
      input_schema_(std::move(input_schema)) {
  std::vector<Field> fields;
  fields.reserve(keep_columns_.size());
  for (int col : keep_columns_) {
    if (col >= 0 &&
        static_cast<size_t>(col) < input_schema_->num_fields()) {
      fields.push_back(input_schema_->field(static_cast<size_t>(col)));
    }
  }
  output_schema_ =
      MakeSchema(input_schema_->stream_name() + "_proj", std::move(fields));
}

bool SaProject::SpIrrelevantAfterProjection(
    const SecurityPunctuation& sp) const {
  if (sp.CoversWholeTuple()) return false;  // tuple/stream policies survive
  for (int col : keep_columns_) {
    if (col >= 0 &&
        static_cast<size_t>(col) < input_schema_->num_fields() &&
        sp.AppliesToAttribute(
            input_schema_->field(static_cast<size_t>(col)).name)) {
      return false;
    }
  }
  return true;  // covered only projected-away attributes
}

bool SaProject::ProcessColumnar(ElementBatch& batch, ElementBatch* out, int) {
  // Specials: sps irrelevant after the projection are discarded; controls
  // keep their anchors.
  std::vector<ElementBatch::Special>& specials = batch.specials();
  std::vector<ElementBatch::Special> kept;
  kept.reserve(specials.size());
  for (ElementBatch::Special& s : specials) {
    if (s.elem.is_sp()) {
      ++metrics_.sps_in;
      if (SpIrrelevantAfterProjection(s.elem.sp())) continue;
      ++metrics_.sps_out;
    }
    kept.push_back(std::move(s));
  }
  const size_t live = batch.num_live_rows();
  metrics_.tuples_in += static_cast<int64_t>(live);
  metrics_.tuples_out += static_cast<int64_t>(live);
  // Columns: move each retained array into output position; a repeated
  // source column is copied until its last use.
  std::vector<ColumnVector>& cols = batch.mutable_columns();
  std::vector<ColumnVector> projected;
  projected.reserve(keep_columns_.size());
  for (size_t j = 0; j < keep_columns_.size(); ++j) {
    const int col = keep_columns_[j];
    if (col >= 0 && static_cast<size_t>(col) < cols.size()) {
      bool last_use = true;
      for (size_t j2 = j + 1; j2 < keep_columns_.size(); ++j2) {
        if (keep_columns_[j2] == col) {
          last_use = false;
          break;
        }
      }
      if (last_use) {
        projected.push_back(std::move(cols[static_cast<size_t>(col)]));
      } else {
        projected.push_back(cols[static_cast<size_t>(col)]);
      }
    } else {
      ColumnVector null_col;
      null_col.AppendNulls(batch.num_rows());
      projected.push_back(std::move(null_col));
    }
  }
  batch.ReplaceColumns(std::move(projected));
  batch.ReplaceSpecials(std::move(kept));
  *out = std::move(batch);
  return true;
}

void SaProject::Process(StreamElement&& elem, int) {
  if (elem.is_sp()) {
    ++metrics_.sps_in;
    if (SpIrrelevantAfterProjection(elem.sp())) return;
    EmitSp(std::move(elem.sp()));
    return;
  }
  if (!elem.is_tuple()) {
    Emit(std::move(elem));
    return;
  }

  ++metrics_.tuples_in;
  Tuple& t = elem.tuple();
  // The projection is built in a reused buffer and swapped in, so the
  // tuple's old buffer becomes the next call's scratch and the row path
  // allocates nothing per tuple. A fresh vector per tuple (and freeing the
  // old one) scattered an upstream join's window tuples across the heap
  // and slowed its probe (docs/PERFORMANCE.md).
  std::vector<Value>& projected = scratch_;
  projected.clear();
  for (size_t j = 0; j < keep_columns_.size(); ++j) {
    const int col = keep_columns_[j];
    if (col >= 0 && static_cast<size_t>(col) < t.values.size()) {
      // A repeated source column is copied until its last use — moving on
      // the first use would hand later uses a moved-from Value.
      bool last_use = true;
      for (size_t j2 = j + 1; j2 < keep_columns_.size(); ++j2) {
        if (keep_columns_[j2] == col) {
          last_use = false;
          break;
        }
      }
      Value& v = t.values[static_cast<size_t>(col)];
      if (last_use) {
        projected.push_back(std::move(v));
      } else {
        projected.push_back(v);
      }
    } else {
      projected.push_back(Value::Null());
    }
  }
  t.values.swap(projected);
  EmitTuple(std::move(t));
}

}  // namespace spstream

// Security-aware projection π (Table I): discards unwanted attributes
// on-the-fly, propagates sps — and discards an sp when its policy only
// covered attributes the projection dropped.
#pragma once

#include "exec/operator.h"

namespace spstream {

/// \brief Projection onto a subset of the input attributes.
class SaProject : public Operator {
 public:
  /// \param keep_columns input column indexes to retain, in output order.
  /// \param input_schema schema of the input (attribute names drive the
  ///        sp-relevance check).
  SaProject(ExecContext* ctx, std::vector<int> keep_columns,
            SchemaPtr input_schema, std::string label = "project");

  /// \brief Schema of the projected output.
  const SchemaPtr& output_schema() const { return output_schema_; }

 protected:
  void Process(StreamElement&& elem, int) override;
  /// Columnar kernel: move whole column arrays into the output order — no
  /// per-row work at all. Out-of-range keep columns become null columns
  /// (the per-element path's Value::Null() behaviour).
  bool ProcessColumnar(ElementBatch& batch, ElementBatch* out,
                       int port) override;

 private:
  /// True when the sp's attribute pattern matches none of the retained
  /// attributes (the sp governed only projected-away columns).
  bool SpIrrelevantAfterProjection(const SecurityPunctuation& sp) const;

  std::vector<int> keep_columns_;
  SchemaPtr input_schema_;
  SchemaPtr output_schema_;
  // Row-path projection buffer (see Process).
  std::vector<Value> scratch_;
};

}  // namespace spstream

// Security-aware selection σ (Table I): drops tuples failing the query
// condition; *delays* sp propagation until at least one tuple governed by
// the sp passes, and discards sps whose whole segment was filtered.
#pragma once

#include <optional>

#include "exec/expr.h"
#include "exec/operator.h"
#include "exec/vector_eval.h"

namespace spstream {

class SaSelect : public Operator {
 public:
  SaSelect(ExecContext* ctx, ExprPtr predicate, std::string label = "select")
      : Operator(ctx, std::move(label)), predicate_(std::move(predicate)) {}

 protected:
  void Process(StreamElement&& elem, int) override;
  /// Columnar kernel: compile the predicate once (row fallback when it has
  /// no vectorized form), then narrow the batch's selection vector in
  /// place — dropped rows are never copied or materialized.
  bool ProcessColumnar(ElementBatch& batch, ElementBatch* out,
                       int port) override;

 private:
  ExprPtr predicate_;
  // Compiled-once vector form of predicate_ (the expression is immutable
  // after construction); nullopt until first ProcessColumnar, which falls
  // back to the scalar path permanently when compilation fails.
  std::optional<VectorPredicate> vector_pred_;
  bool vector_pred_tried_ = false;
  // Sps of the current batch, buffered until a covered tuple passes.
  std::vector<SecurityPunctuation> pending_sps_;
  bool pending_emitted_ = true;
  std::optional<Timestamp> pending_ts_;
};

}  // namespace spstream

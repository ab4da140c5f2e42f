// Vectorized predicate evaluation over columnar ElementBatches: an Expr
// tree of column refs, literals, comparisons, boolean connectives and
// DISTANCE is compiled once into a flat node program, then tested per row
// straight against the column arrays — no Tuple, no per-row Value
// construction.
//
// The program reproduces the scalar semantics bit for bit: Value::Compare's
// total order (nulls first, cross-kind ordered null < numeric < string <
// bool, numerics promoted to double unless both int64) and EvalBool's
// truthiness (bool -> itself, null -> false, otherwise AsDouble() != 0,
// which makes any string falsy). DISTANCE takes AsDouble() of each operand
// (null and strings 0, bools 0/1). tests/columnar_fuzz_test.cc holds the two
// paths equal on random inputs.
#pragma once

#include <string_view>
#include <vector>

#include "exec/expr.h"
#include "stream/element_batch.h"

namespace spstream {

/// \brief A compiled columnar predicate.
class VectorPredicate : public ColumnarPredicateBuilder {
 public:
  /// \brief Compile `root`; false when the tree contains a node with no
  /// vectorized form — the caller keeps the scalar path. No side effects
  /// on failure beyond discarding the partial program.
  bool Compile(const Expr& root);

  /// \brief EvalBool of the compiled tree against original row `row` of a
  /// columnar `batch`.
  bool Test(const ElementBatch& batch, uint32_t row) const;

  // ColumnarPredicateBuilder:
  int AddColumn(int index) override;
  int AddLiteral(const Value& v) override;
  int AddCompare(Expr::CmpOp op, int lhs, int rhs) override;
  int AddLogical(Expr::LogicalOp op, int lhs, int rhs) override;
  int AddDistance(int x1, int y1, int x2, int y2) override;

 private:
  struct Node {
    enum class Op : uint8_t {
      kColumn,
      kLiteral,
      kCompare,
      kAnd,
      kOr,
      kNot,
      kDistance,
    };
    Op op = Op::kLiteral;
    int a = -1;
    int b = -1;
    int c = -1;  // kDistance only: operands a, b, c, d = x1, y1, x2, y2
    int d = -1;
    int col = -1;
    Value lit;
    Expr::CmpOp cmp = Expr::CmpOp::kEq;
  };

  /// \brief Per-row scalar view of a node result, mirroring the fields
  /// Value::Compare dispatches on.
  struct View {
    int rank = 0;  // 0 null, 1 numeric, 2 string, 3 bool (Value's KindRank)
    bool is_int = false;
    int64_t i = 0;
    double d = 0.0;
    std::string_view s;
    bool b = false;
  };

  View ViewOf(int id, const ElementBatch& batch, uint32_t row) const;
  bool TestNode(int id, const ElementBatch& batch, uint32_t row) const;

  std::vector<Node> nodes_;
  int root_ = -1;
};

}  // namespace spstream

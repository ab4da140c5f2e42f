// Scalar expression trees evaluated against tuples: column references,
// literals, comparisons, boolean connectives, arithmetic, and the distance
// primitive used by the paper's "objects within two miles" location query.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "stream/tuple.h"

namespace spstream {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;
class ColumnarPredicateBuilder;

/// \brief Immutable scalar expression node.
class Expr {
 public:
  enum class Kind : uint8_t {
    kColumn,
    kLiteral,
    kCompare,
    kLogical,
    kArithmetic,
    kDistance,  // euclidean distance over four scalar operands
  };
  enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
  enum class LogicalOp : uint8_t { kAnd, kOr, kNot };
  enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };

  virtual ~Expr() = default;
  virtual Kind kind() const = 0;
  virtual Value Eval(const Tuple& t) const = 0;
  virtual std::string ToString() const = 0;

  /// \brief Evaluate as a predicate: non-null, non-false, non-zero is true.
  bool EvalBool(const Tuple& t) const {
    Value v = Eval(t);
    if (v.is_bool()) return v.boolean();
    if (v.is_null()) return false;
    return v.AsDouble() != 0.0;
  }

  // Factories.
  static ExprPtr Column(int index, std::string name = "");
  static ExprPtr Literal(Value v);
  static ExprPtr Compare(CmpOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr And(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr operand);
  static ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
  /// \brief sqrt((x1-x2)^2 + (y1-y2)^2).
  static ExprPtr Distance(ExprPtr x1, ExprPtr y1, ExprPtr x2, ExprPtr y2);

  /// \brief Column indexes referenced anywhere in the tree (deduplicated).
  std::vector<int> ReferencedColumns() const;

  /// \brief Append referenced column indexes to `out` (implementation hook
  /// for ReferencedColumns; public so sibling nodes can recurse).
  virtual void CollectColumns(std::vector<int>* out) const = 0;

  /// \brief Register this subtree with a columnar predicate compiler
  /// (exec/vector_eval.h) and return its node id, or -1 when the node kind
  /// has no vectorized form (arithmetic) — the caller then keeps
  /// the scalar per-element path. Compiled programs must reproduce
  /// Eval/EvalBool (and therefore Value::Compare) semantics exactly.
  virtual int CompileColumnar(ColumnarPredicateBuilder* builder) const {
    (void)builder;
    return -1;
  }
};

/// \brief Sink interface CompileColumnar implementations register nodes
/// with. Every Add* returns the new node's id or -1 (unsupported operand).
class ColumnarPredicateBuilder {
 public:
  virtual ~ColumnarPredicateBuilder() = default;
  virtual int AddColumn(int index) = 0;
  virtual int AddLiteral(const Value& v) = 0;
  virtual int AddCompare(Expr::CmpOp op, int lhs, int rhs) = 0;
  virtual int AddLogical(Expr::LogicalOp op, int lhs, int rhs) = 0;
  virtual int AddDistance(int x1, int y1, int x2, int y2) = 0;
};

const char* CmpOpToString(Expr::CmpOp op);
const char* ArithOpToString(Expr::ArithOp op);

}  // namespace spstream

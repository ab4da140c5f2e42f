#include "exec/vector_eval.h"

#include <cmath>

namespace spstream {

bool VectorPredicate::Compile(const Expr& root) {
  nodes_.clear();
  root_ = root.CompileColumnar(this);
  return root_ >= 0;
}

int VectorPredicate::AddColumn(int index) {
  Node n;
  n.op = Node::Op::kColumn;
  n.col = index;
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

int VectorPredicate::AddLiteral(const Value& v) {
  Node n;
  n.op = Node::Op::kLiteral;
  n.lit = v;
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

int VectorPredicate::AddCompare(Expr::CmpOp op, int lhs, int rhs) {
  Node n;
  n.op = Node::Op::kCompare;
  n.cmp = op;
  n.a = lhs;
  n.b = rhs;
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

int VectorPredicate::AddLogical(Expr::LogicalOp op, int lhs, int rhs) {
  Node n;
  switch (op) {
    case Expr::LogicalOp::kAnd:
      n.op = Node::Op::kAnd;
      break;
    case Expr::LogicalOp::kOr:
      n.op = Node::Op::kOr;
      break;
    case Expr::LogicalOp::kNot:
      n.op = Node::Op::kNot;
      break;
  }
  n.a = lhs;
  n.b = rhs;
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

int VectorPredicate::AddDistance(int x1, int y1, int x2, int y2) {
  Node n;
  n.op = Node::Op::kDistance;
  n.a = x1;
  n.b = y1;
  n.c = x2;
  n.d = y2;
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

VectorPredicate::View VectorPredicate::ViewOf(int id,
                                              const ElementBatch& batch,
                                              uint32_t row) const {
  const Node& n = nodes_[static_cast<size_t>(id)];
  View v;
  switch (n.op) {
    case Node::Op::kColumn: {
      // ColumnExpr semantics: out-of-range index reads as Null; an
      // untyped (all-null) or masked entry likewise.
      if (n.col < 0 || static_cast<size_t>(n.col) >= batch.num_columns()) {
        return v;
      }
      const ColumnVector& c = batch.column(static_cast<size_t>(n.col));
      if (!c.IsValid(row)) return v;
      switch (c.type()) {
        case ValueType::kInt64:
          v.rank = 1;
          v.is_int = true;
          v.i = c.Int64At(row);
          v.d = static_cast<double>(v.i);
          break;
        case ValueType::kDouble:
          v.rank = 1;
          v.d = c.DoubleAt(row);
          break;
        case ValueType::kString:
          v.rank = 2;
          v.s = c.StringAt(row);
          break;
        case ValueType::kBool:
          v.rank = 3;
          v.b = c.BoolAt(row);
          break;
        case ValueType::kNull:
          break;
      }
      return v;
    }
    case Node::Op::kLiteral: {
      const Value& lit = n.lit;
      if (lit.is_int64()) {
        v.rank = 1;
        v.is_int = true;
        v.i = lit.int64();
        v.d = static_cast<double>(v.i);
      } else if (lit.is_double()) {
        v.rank = 1;
        v.d = lit.dbl();
      } else if (lit.is_string()) {
        v.rank = 2;
        v.s = lit.str();
      } else if (lit.is_bool()) {
        v.rank = 3;
        v.b = lit.boolean();
      }
      return v;
    }
    case Node::Op::kDistance: {
      // DistanceExpr::Eval: a double from Value::AsDouble of each operand
      // (numerics as double, bools 0/1, nulls and strings 0).
      auto operand = [&](int k) {
        const View o = ViewOf(k, batch, row);
        return o.rank == 1 ? o.d : (o.rank == 3 && o.b ? 1.0 : 0.0);
      };
      const double dx = operand(n.a) - operand(n.c);
      const double dy = operand(n.b) - operand(n.d);
      v.rank = 1;
      v.d = std::sqrt(dx * dx + dy * dy);
      return v;
    }
    default:
      // Compare/logical subtrees evaluate to a bool Value (CompareExpr and
      // LogicalExpr both return booleans), rank 3 in the total order.
      v.rank = 3;
      v.b = TestNode(id, batch, row);
      return v;
  }
}

bool VectorPredicate::TestNode(int id, const ElementBatch& batch,
                               uint32_t row) const {
  const Node& n = nodes_[static_cast<size_t>(id)];
  switch (n.op) {
    case Node::Op::kCompare: {
      const View l = ViewOf(n.a, batch, row);
      const View r = ViewOf(n.b, batch, row);
      int c;
      if (l.rank != r.rank) {
        c = l.rank < r.rank ? -1 : 1;
      } else {
        switch (l.rank) {
          case 0:
            c = 0;
            break;
          case 1:
            if (l.is_int && r.is_int) {
              c = l.i < r.i ? -1 : (l.i > r.i ? 1 : 0);
            } else {
              c = l.d < r.d ? -1 : (l.d > r.d ? 1 : 0);
            }
            break;
          case 2: {
            const int sc = l.s.compare(r.s);
            c = sc < 0 ? -1 : (sc == 0 ? 0 : 1);
            break;
          }
          default:
            c = l.b == r.b ? 0 : (l.b ? 1 : -1);
            break;
        }
      }
      switch (n.cmp) {
        case Expr::CmpOp::kEq:
          return c == 0;
        case Expr::CmpOp::kNe:
          return c != 0;
        case Expr::CmpOp::kLt:
          return c < 0;
        case Expr::CmpOp::kLe:
          return c <= 0;
        case Expr::CmpOp::kGt:
          return c > 0;
        case Expr::CmpOp::kGe:
          return c >= 0;
      }
      return false;
    }
    case Node::Op::kAnd:
      return TestNode(n.a, batch, row) && TestNode(n.b, batch, row);
    case Node::Op::kOr:
      return TestNode(n.a, batch, row) || TestNode(n.b, batch, row);
    case Node::Op::kNot:
      return !TestNode(n.a, batch, row);
    case Node::Op::kColumn:
    case Node::Op::kLiteral:
    case Node::Op::kDistance: {
      // EvalBool truthiness of a bare value: bool -> itself, null ->
      // false, otherwise AsDouble() != 0 (strings are always falsy).
      const View v = ViewOf(id, batch, row);
      switch (v.rank) {
        case 0:
          return false;
        case 1:
          return v.is_int ? v.i != 0 : v.d != 0.0;
        case 2:
          return false;
        default:
          return v.b;
      }
    }
  }
  return false;
}

bool VectorPredicate::Test(const ElementBatch& batch, uint32_t row) const {
  return TestNode(root_, batch, row);
}

}  // namespace spstream

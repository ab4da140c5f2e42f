#include "exec/expr.h"

#include <algorithm>
#include <cmath>

namespace spstream {

const char* CmpOpToString(Expr::CmpOp op) {
  switch (op) {
    case Expr::CmpOp::kEq:
      return "=";
    case Expr::CmpOp::kNe:
      return "!=";
    case Expr::CmpOp::kLt:
      return "<";
    case Expr::CmpOp::kLe:
      return "<=";
    case Expr::CmpOp::kGt:
      return ">";
    case Expr::CmpOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpToString(Expr::ArithOp op) {
  switch (op) {
    case Expr::ArithOp::kAdd:
      return "+";
    case Expr::ArithOp::kSub:
      return "-";
    case Expr::ArithOp::kMul:
      return "*";
    case Expr::ArithOp::kDiv:
      return "/";
  }
  return "?";
}

namespace {

class ColumnExpr final : public Expr {
 public:
  ColumnExpr(int index, std::string name)
      : index_(index), name_(std::move(name)) {}
  Kind kind() const override { return Kind::kColumn; }
  Value Eval(const Tuple& t) const override {
    if (index_ < 0 || static_cast<size_t>(index_) >= t.values.size()) {
      return Value::Null();
    }
    return t.values[static_cast<size_t>(index_)];
  }
  std::string ToString() const override {
    return name_.empty() ? "$" + std::to_string(index_) : name_;
  }
  void CollectColumns(std::vector<int>* out) const override {
    out->push_back(index_);
  }
  int CompileColumnar(ColumnarPredicateBuilder* builder) const override {
    return builder->AddColumn(index_);
  }

 private:
  int index_;
  std::string name_;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}
  Kind kind() const override { return Kind::kLiteral; }
  Value Eval(const Tuple&) const override { return value_; }
  std::string ToString() const override { return value_.ToString(); }
  void CollectColumns(std::vector<int>*) const override {}
  int CompileColumnar(ColumnarPredicateBuilder* builder) const override {
    return builder->AddLiteral(value_);
  }

 private:
  Value value_;
};

class CompareExpr final : public Expr {
 public:
  CompareExpr(CmpOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Kind kind() const override { return Kind::kCompare; }
  Value Eval(const Tuple& t) const override {
    const int c = lhs_->Eval(t).Compare(rhs_->Eval(t));
    switch (op_) {
      case CmpOp::kEq:
        return c == 0;
      case CmpOp::kNe:
        return c != 0;
      case CmpOp::kLt:
        return c < 0;
      case CmpOp::kLe:
        return c <= 0;
      case CmpOp::kGt:
        return c > 0;
      case CmpOp::kGe:
        return c >= 0;
    }
    return false;
  }
  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + CmpOpToString(op_) + " " +
           rhs_->ToString() + ")";
  }
  void CollectColumns(std::vector<int>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }
  int CompileColumnar(ColumnarPredicateBuilder* builder) const override {
    const int l = lhs_->CompileColumnar(builder);
    if (l < 0) return -1;
    const int r = rhs_->CompileColumnar(builder);
    if (r < 0) return -1;
    return builder->AddCompare(op_, l, r);
  }

 private:
  CmpOp op_;
  ExprPtr lhs_, rhs_;
};

class LogicalExpr final : public Expr {
 public:
  LogicalExpr(LogicalOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Kind kind() const override { return Kind::kLogical; }
  Value Eval(const Tuple& t) const override {
    switch (op_) {
      case LogicalOp::kAnd:
        return lhs_->EvalBool(t) && rhs_->EvalBool(t);
      case LogicalOp::kOr:
        return lhs_->EvalBool(t) || rhs_->EvalBool(t);
      case LogicalOp::kNot:
        return !lhs_->EvalBool(t);
    }
    return false;
  }
  std::string ToString() const override {
    switch (op_) {
      case LogicalOp::kAnd:
        return "(" + lhs_->ToString() + " AND " + rhs_->ToString() + ")";
      case LogicalOp::kOr:
        return "(" + lhs_->ToString() + " OR " + rhs_->ToString() + ")";
      case LogicalOp::kNot:
        return "(NOT " + lhs_->ToString() + ")";
    }
    return "?";
  }
  void CollectColumns(std::vector<int>* out) const override {
    lhs_->CollectColumns(out);
    if (rhs_) rhs_->CollectColumns(out);
  }
  int CompileColumnar(ColumnarPredicateBuilder* builder) const override {
    const int l = lhs_->CompileColumnar(builder);
    if (l < 0) return -1;
    int r = -1;
    if (rhs_) {
      r = rhs_->CompileColumnar(builder);
      if (r < 0) return -1;
    }
    return builder->AddLogical(op_, l, r);
  }

 private:
  LogicalOp op_;
  ExprPtr lhs_, rhs_;  // rhs_ null for NOT
};

class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Kind kind() const override { return Kind::kArithmetic; }
  Value Eval(const Tuple& t) const override {
    const Value l = lhs_->Eval(t), r = rhs_->Eval(t);
    if (l.is_int64() && r.is_int64() && op_ != ArithOp::kDiv) {
      switch (op_) {
        case ArithOp::kAdd:
          return l.int64() + r.int64();
        case ArithOp::kSub:
          return l.int64() - r.int64();
        case ArithOp::kMul:
          return l.int64() * r.int64();
        default:
          break;
      }
    }
    const double a = l.AsDouble(), b = r.AsDouble();
    switch (op_) {
      case ArithOp::kAdd:
        return a + b;
      case ArithOp::kSub:
        return a - b;
      case ArithOp::kMul:
        return a * b;
      case ArithOp::kDiv:
        return b == 0.0 ? Value::Null() : Value(a / b);
    }
    return Value::Null();
  }
  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + ArithOpToString(op_) + " " +
           rhs_->ToString() + ")";
  }
  void CollectColumns(std::vector<int>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }

 private:
  ArithOp op_;
  ExprPtr lhs_, rhs_;
};

class DistanceExpr final : public Expr {
 public:
  DistanceExpr(ExprPtr x1, ExprPtr y1, ExprPtr x2, ExprPtr y2)
      : x1_(std::move(x1)),
        y1_(std::move(y1)),
        x2_(std::move(x2)),
        y2_(std::move(y2)) {}
  Kind kind() const override { return Kind::kDistance; }
  Value Eval(const Tuple& t) const override {
    const double dx = x1_->Eval(t).AsDouble() - x2_->Eval(t).AsDouble();
    const double dy = y1_->Eval(t).AsDouble() - y2_->Eval(t).AsDouble();
    return std::sqrt(dx * dx + dy * dy);
  }
  std::string ToString() const override {
    return "DISTANCE(" + x1_->ToString() + ", " + y1_->ToString() + ", " +
           x2_->ToString() + ", " + y2_->ToString() + ")";
  }
  void CollectColumns(std::vector<int>* out) const override {
    x1_->CollectColumns(out);
    y1_->CollectColumns(out);
    x2_->CollectColumns(out);
    y2_->CollectColumns(out);
  }
  int CompileColumnar(ColumnarPredicateBuilder* builder) const override {
    int ids[4];
    const ExprPtr* operands[4] = {&x1_, &y1_, &x2_, &y2_};
    for (int k = 0; k < 4; ++k) {
      ids[k] = (*operands[k])->CompileColumnar(builder);
      if (ids[k] < 0) return -1;
    }
    return builder->AddDistance(ids[0], ids[1], ids[2], ids[3]);
  }

 private:
  ExprPtr x1_, y1_, x2_, y2_;
};

}  // namespace

ExprPtr Expr::Column(int index, std::string name) {
  return std::make_shared<ColumnExpr>(index, std::move(name));
}
ExprPtr Expr::Literal(Value v) {
  return std::make_shared<LiteralExpr>(std::move(v));
}
ExprPtr Expr::Compare(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<CompareExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<LogicalExpr>(LogicalOp::kAnd, std::move(lhs),
                                       std::move(rhs));
}
ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<LogicalExpr>(LogicalOp::kOr, std::move(lhs),
                                       std::move(rhs));
}
ExprPtr Expr::Not(ExprPtr operand) {
  return std::make_shared<LogicalExpr>(LogicalOp::kNot, std::move(operand),
                                       nullptr);
}
ExprPtr Expr::Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ArithExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Expr::Distance(ExprPtr x1, ExprPtr y1, ExprPtr x2, ExprPtr y2) {
  return std::make_shared<DistanceExpr>(std::move(x1), std::move(y1),
                                        std::move(x2), std::move(y2));
}

std::vector<int> Expr::ReferencedColumns() const {
  std::vector<int> cols;
  CollectColumns(&cols);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

}  // namespace spstream

#include <gtest/gtest.h>

#include <cmath>

#include "exec/sa_project.h"
#include "exec/sa_select.h"
#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;
using sptest::MakeTuple;
using sptest::RunUnary;

class SelectProjectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = roles_.RegisterSyntheticRoles(8);
    ctx_ = ExecContext{&roles_, &streams_};
    schema_ = MakeSchema("s", {Field{"a", ValueType::kInt64},
                               Field{"b", ValueType::kInt64},
                               Field{"c", ValueType::kInt64}});
  }
  RoleCatalog roles_;
  StreamCatalog streams_;
  std::vector<RoleId> ids_;
  ExecContext ctx_;
  SchemaPtr schema_;
};

// Predicate: column 0 > 5.
ExprPtr ColGt5() {
  return Expr::Compare(Expr::CmpOp::kGt, Expr::Column(0),
                       Expr::Literal(Value(5)));
}

TEST_F(SelectProjectTest, SelectFiltersOnPredicate) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {3, 0, 0}, 1));
  input.emplace_back(MakeTuple(2, {7, 0, 0}, 2));
  input.emplace_back(MakeTuple(3, {9, 0, 0}, 3));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaSelect>(ColGt5());
  });
  ASSERT_EQ(r.tuples.size(), 2u);
  EXPECT_EQ(r.tuples[0].tid, 2);
  EXPECT_EQ(r.tuples[1].tid, 3);
}

TEST_F(SelectProjectTest, SelectDelaysSpUntilFirstPassingTuple) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {3, 0, 0}, 1));  // filtered
  input.emplace_back(MakeTuple(2, {7, 0, 0}, 2));  // passes
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaSelect>(ColGt5());
  });
  ASSERT_EQ(r.elements.size(), 2u);  // sp then tuple (EOS is not collected)
  EXPECT_TRUE(r.elements[0].is_sp());
  EXPECT_TRUE(r.elements[1].is_tuple());
  EXPECT_EQ(r.elements[1].tuple().tid, 2);
}

TEST_F(SelectProjectTest, SelectDiscardsSpOfFullyFilteredSegment) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {3, 0, 0}, 1));  // whole segment filtered
  input.emplace_back(MakeSp("s", {ids_[1]}, 5));
  input.emplace_back(MakeTuple(2, {7, 0, 0}, 5));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaSelect>(ColGt5());
  });
  ASSERT_EQ(r.sps.size(), 1u);
  EXPECT_EQ(r.sps[0].ts(), 5);  // first segment's sp never propagated
}

TEST_F(SelectProjectTest, SelectEmitsBatchOnceNotPerTuple) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {7, 0, 0}, 1));
  input.emplace_back(MakeTuple(2, {8, 0, 0}, 2));
  input.emplace_back(MakeTuple(3, {9, 0, 0}, 3));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaSelect>(ColGt5());
  });
  EXPECT_EQ(r.sps.size(), 1u);
  EXPECT_EQ(r.tuples.size(), 3u);
}

TEST_F(SelectProjectTest, ProjectKeepsColumnsInOrder) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeTuple(1, {10, 20, 30}, 1));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaProject>(std::vector<int>{2, 0}, schema_);
  });
  ASSERT_EQ(r.tuples.size(), 1u);
  ASSERT_EQ(r.tuples[0].values.size(), 2u);
  EXPECT_EQ(r.tuples[0].values[0], Value(30));
  EXPECT_EQ(r.tuples[0].values[1], Value(10));
}

TEST_F(SelectProjectTest, ProjectOutputSchemaNames) {
  Pipeline pipeline(&ctx_);
  auto* proj = pipeline.Add<SaProject>(std::vector<int>{1}, schema_);
  ASSERT_EQ(proj->output_schema()->num_fields(), 1u);
  EXPECT_EQ(proj->output_schema()->field(0).name, "b");
}

TEST_F(SelectProjectTest, ProjectPropagatesWholeTupleSps) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {1, 2, 3}, 1));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaProject>(std::vector<int>{0}, schema_);
  });
  EXPECT_EQ(r.sps.size(), 1u);
  EXPECT_EQ(r.tuples.size(), 1u);
}

TEST_F(SelectProjectTest, ProjectDiscardsSpForProjectedAwayAttribute) {
  // Sp covers only column "c", which the projection drops (Table I).
  SecurityPunctuation attr_sp(Pattern::Literal("s"), Pattern::Any(),
                              Pattern::Literal("c"), Pattern::Any(),
                              Sign::kPositive, false, 1);
  attr_sp.SetResolvedRoles(RoleSet::Of(ids_[0]));
  std::vector<StreamElement> input;
  input.emplace_back(std::move(attr_sp));
  input.emplace_back(MakeTuple(1, {1, 2, 3}, 1));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaProject>(std::vector<int>{0, 1}, schema_);
  });
  EXPECT_TRUE(r.sps.empty());
  EXPECT_EQ(r.tuples.size(), 1u);
}

TEST_F(SelectProjectTest, ProjectKeepsSpCoveringRetainedAttribute) {
  SecurityPunctuation attr_sp(Pattern::Literal("s"), Pattern::Any(),
                              Pattern::Compile("b|c").value(),
                              Pattern::Any(), Sign::kPositive, false, 1);
  attr_sp.SetResolvedRoles(RoleSet::Of(ids_[0]));
  std::vector<StreamElement> input;
  input.emplace_back(std::move(attr_sp));
  input.emplace_back(MakeTuple(1, {1, 2, 3}, 1));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaProject>(std::vector<int>{1}, schema_);  // keep "b"
  });
  EXPECT_EQ(r.sps.size(), 1u);
}

TEST_F(SelectProjectTest, SelectThenProjectPipeline) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  for (int i = 0; i < 10; ++i) {
    input.emplace_back(MakeTuple(i, {i, i * 10, i * 100}, i + 1));
  }
  Pipeline pipeline(&ctx_);
  auto* src = pipeline.Add<PushSource>("src");
  auto* sel = pipeline.Add<SaSelect>(ColGt5());
  auto* proj = pipeline.Add<SaProject>(std::vector<int>{1}, schema_);
  auto* sink = pipeline.Add<CollectorSink>();
  src->AddOutput(sel);
  sel->AddOutput(proj);
  proj->AddOutput(sink);
  FeedToEnd({{src, std::move(input)}}, /*batch_size=*/1);
  auto tuples = sink->Tuples();
  ASSERT_EQ(tuples.size(), 4u);  // cols 6..9 pass
  EXPECT_EQ(tuples[0].values[0], Value(60));
  EXPECT_EQ(sel->metrics().tuples_dropped_predicate, 6);
}

TEST_F(SelectProjectTest, ExpressionEvaluation) {
  Tuple t = MakeTuple(1, {4, 6, 0}, 1);
  auto sum = Expr::Arith(Expr::ArithOp::kAdd, Expr::Column(0),
                         Expr::Column(1));
  EXPECT_EQ(sum->Eval(t), Value(10));
  auto cmp = Expr::Compare(Expr::CmpOp::kEq, sum, Expr::Literal(Value(10)));
  EXPECT_TRUE(cmp->EvalBool(t));
  auto not_cmp = Expr::Not(cmp);
  EXPECT_FALSE(not_cmp->EvalBool(t));
  auto dist = Expr::Distance(Expr::Column(0), Expr::Column(1),
                             Expr::Literal(Value(0)),
                             Expr::Literal(Value(0)));
  EXPECT_NEAR(dist->Eval(t).AsDouble(), std::sqrt(16 + 36), 1e-9);
  EXPECT_EQ(sum->ReferencedColumns(), (std::vector<int>{0, 1}));
  // Division by zero yields NULL (predicate false).
  auto div = Expr::Arith(Expr::ArithOp::kDiv, Expr::Column(0),
                         Expr::Column(2));
  EXPECT_TRUE(div->Eval(t).is_null());
}

}  // namespace
}  // namespace spstream

// Figure 5: one shared physical plan (a DAG, not a tree) serving multiple
// queries, with SS operators embedded where each query's authorization
// narrows — exercising multi-output operators and in-pipeline sharing.
#include <gtest/gtest.h>

#include "spstream.h"
#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;
using sptest::MakeTuple;

class SharedDagTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = roles_.RegisterSyntheticRoles(6);
    schema_ = MakeSchema("s", {Field{"a", ValueType::kInt64},
                               Field{"b", ValueType::kInt64}});
    ctx_ = ExecContext{&roles_, &streams_};
  }
  RoleCatalog roles_;
  StreamCatalog streams_;
  std::vector<RoleId> ids_;
  SchemaPtr schema_;
  ExecContext ctx_;
};

TEST_F(SharedDagTest, OneSourceTwoShieldedQueries) {
  // Figure 5 shape: a shared subplan (source -> select) fans out into two
  // per-query SS operators with different predicates.
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {10, 1}, 1));
  input.emplace_back(MakeSp("s", {ids_[1]}, 5));
  input.emplace_back(MakeTuple(2, {20, 2}, 5));
  input.emplace_back(MakeSp("s", {ids_[0], ids_[1]}, 9));
  input.emplace_back(MakeTuple(3, {30, 3}, 9));
  input.emplace_back(MakeTuple(4, {2, 4}, 10));  // filtered by select

  Pipeline pipeline(&ctx_);
  auto* src = pipeline.Add<PushSource>("src");
  auto* shared_select = pipeline.Add<SaSelect>(Expr::Compare(
      Expr::CmpOp::kGt, Expr::Column(0), Expr::Literal(Value(5))));
  src->AddOutput(shared_select);

  SsOptions o1;
  o1.predicates = {RoleSet::Of(ids_[0])};
  o1.stream_name = "s";
  o1.schema = schema_;
  auto* ss_q1 = pipeline.Add<SsOperator>(o1, "SS_q1");
  SsOptions o2;
  o2.predicates = {RoleSet::Of(ids_[1])};
  o2.stream_name = "s";
  o2.schema = schema_;
  auto* ss_q2 = pipeline.Add<SsOperator>(o2, "SS_q2");
  auto* sink1 = pipeline.Add<CollectorSink>("q1");
  auto* sink2 = pipeline.Add<CollectorSink>("q2");

  // The shared operator fans out to both shields (DAG, not tree).
  shared_select->AddOutput(ss_q1);
  shared_select->AddOutput(ss_q2);
  ss_q1->AddOutput(sink1);
  ss_q2->AddOutput(sink2);
  FeedToEnd({{src, std::move(input)}}, /*batch_size=*/1);

  // q1 (role r0): tuples 1 and 3. q2 (role r1): tuples 2 and 3.
  auto q1 = sink1->Tuples();
  auto q2 = sink2->Tuples();
  ASSERT_EQ(q1.size(), 2u);
  EXPECT_EQ(q1[0].tid, 1);
  EXPECT_EQ(q1[1].tid, 3);
  ASSERT_EQ(q2.size(), 2u);
  EXPECT_EQ(q2[0].tid, 2);
  EXPECT_EQ(q2[1].tid, 3);
  // The shared select ran ONCE over the stream: 4 tuples in, not 8.
  EXPECT_EQ(shared_select->metrics().tuples_in, 4);
}

TEST_F(SharedDagTest, MergedShieldBeforeSharedWorkSplitAfter) {
  // The §VI.C construction inside one pipeline: merged SS (union of both
  // queries' roles) guards the shared (expensive) subplan; split shields
  // narrow per query at the end.
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {10, 1}, 1));
  input.emplace_back(MakeSp("s", {ids_[5]}, 5));  // nobody's role
  input.emplace_back(MakeTuple(2, {20, 2}, 5));

  Pipeline pipeline(&ctx_);
  auto* src = pipeline.Add<PushSource>("src");
  SsOptions merged;
  merged.predicates = {RoleSet::FromIds({ids_[0], ids_[1]})};
  merged.stream_name = "s";
  merged.schema = schema_;
  auto* ss_merged = pipeline.Add<SsOperator>(merged, "SS_merged");
  auto* shared_select = pipeline.Add<SaSelect>(Expr::Compare(
      Expr::CmpOp::kGt, Expr::Column(0), Expr::Literal(Value(0))));
  src->AddOutput(ss_merged);
  ss_merged->AddOutput(shared_select);

  SsOptions split1;
  split1.predicates = {RoleSet::Of(ids_[0])};
  split1.stream_name = "s";
  split1.schema = schema_;
  auto* ss_1 = pipeline.Add<SsOperator>(split1, "SS_split1");
  SsOptions split2;
  split2.predicates = {RoleSet::Of(ids_[1])};
  split2.stream_name = "s";
  split2.schema = schema_;
  auto* ss_2 = pipeline.Add<SsOperator>(split2, "SS_split2");
  auto* sink1 = pipeline.Add<CollectorSink>();
  auto* sink2 = pipeline.Add<CollectorSink>();
  shared_select->AddOutput(ss_1);
  shared_select->AddOutput(ss_2);
  ss_1->AddOutput(sink1);
  ss_2->AddOutput(sink2);
  FeedToEnd({{src, std::move(input)}}, /*batch_size=*/1);

  // The merged shield killed the r5 segment before the shared select.
  EXPECT_EQ(shared_select->metrics().tuples_in, 1);
  EXPECT_EQ(sink1->Tuples().size(), 1u);
  EXPECT_TRUE(sink2->Tuples().empty());
}

TEST_F(SharedDagTest, UmbrellaHeaderCompiles) {
  // spstream.h pulled in everything this file used — if it compiles and a
  // couple of symbols from distant modules resolve, the umbrella works.
  EXPECT_STREQ(AggFnToString(AggFn::kSum), "SUM");
  EXPECT_TRUE(Pattern::Compile("a|b").ok());
  SpStreamEngine engine;
  EXPECT_EQ(engine.query_count(), 0u);
}

}  // namespace
}  // namespace spstream

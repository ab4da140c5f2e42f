// Table II equivalence rules: structural checks plus empirical
// output-equivalence of rewritten plans on randomized punctuated streams.
#include "optimizer/rules.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "exec/plan_builder.h"
#include "test_util.h"
#include "workload/policy_gen.h"

namespace spstream {
namespace {

using sptest::MakeSp;
using sptest::MakeTuple;

class RulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = roles_.RegisterSyntheticRoles(12);
    schema_ = MakeSchema("s", {Field{"a", ValueType::kInt64},
                               Field{"b", ValueType::kInt64}});
    ASSERT_TRUE(streams_.RegisterStream(schema_).ok());
  }

  LogicalNodePtr Source() { return LogicalNode::Source("s", schema_); }

  RoleCatalog roles_;
  StreamCatalog streams_;
  std::vector<RoleId> ids_;
  SchemaPtr schema_;
};

TEST_F(RulesTest, Rule1SplitAndMergeRoundTrip) {
  RoleSet p1 = RoleSet::Of(ids_[0]);
  RoleSet p2 = RoleSet::Of(ids_[1]);
  auto merged = LogicalNode::Ss({p1, p2}, Source());
  auto split = SplitSs(merged);
  ASSERT_NE(split, nullptr);
  EXPECT_EQ(CountNodes(split, LogicalNode::Kind::kSs), 2u);
  ASSERT_EQ(split->ss_predicates.size(), 1u);
  EXPECT_EQ(split->ss_predicates[0], p1);  // cascade order

  auto remerged = MergeSs(split);
  ASSERT_NE(remerged, nullptr);
  EXPECT_TRUE(PlansEqual(remerged, merged));

  // Single-predicate SS does not split.
  EXPECT_EQ(SplitSs(LogicalNode::Ss({p1}, Source())), nullptr);
  // Non-cascade does not merge.
  EXPECT_EQ(MergeSs(merged), nullptr);
}

TEST_F(RulesTest, Rule2CommuteWithSelect) {
  auto pred = Expr::Compare(Expr::CmpOp::kGt, Expr::Column(0),
                            Expr::Literal(Value(5)));
  auto plan = LogicalNode::Ss({RoleSet::Of(ids_[0])},
                              LogicalNode::Select(pred, Source()));
  auto pushed = PushSsDown(plan);
  ASSERT_NE(pushed, nullptr);
  EXPECT_EQ(pushed->kind, LogicalNode::Kind::kSelect);
  EXPECT_EQ(pushed->children[0]->kind, LogicalNode::Kind::kSs);

  auto pulled = PullSsUp(pushed);
  ASSERT_NE(pulled, nullptr);
  EXPECT_TRUE(PlansEqual(pulled, plan));
}

TEST_F(RulesTest, Rule2CommuteWithProjectDistinctGroupBy) {
  RoleSet p = RoleSet::Of(ids_[0]);
  for (auto make : {+[](LogicalNodePtr src) {
                      return LogicalNode::Project({0}, std::move(src));
                    },
                    +[](LogicalNodePtr src) {
                      return LogicalNode::Distinct(0, 100, std::move(src));
                    },
                    +[](LogicalNodePtr src) {
                      return LogicalNode::GroupBy(0, AggFn::kCount, 0, 100,
                                                  std::move(src));
                    }}) {
    auto plan = LogicalNode::Ss({p}, make(Source()));
    auto pushed = PushSsDown(plan);
    ASSERT_NE(pushed, nullptr);
    EXPECT_EQ(pushed->children[0]->kind, LogicalNode::Kind::kSs);
    auto back = PullSsUp(pushed);
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(PlansEqual(back, plan));
  }
}

TEST_F(RulesTest, Rule3PushOverJoinBothSides) {
  RoleSet p = RoleSet::Of(ids_[0]);
  auto join = LogicalNode::Join(0, 0, 100, Source(), Source());
  auto plan = LogicalNode::Ss({p}, join);
  auto pushed = PushSsOverBinary(plan, true, true);
  ASSERT_NE(pushed, nullptr);
  EXPECT_EQ(pushed->kind, LogicalNode::Kind::kJoin);
  EXPECT_EQ(pushed->children[0]->kind, LogicalNode::Kind::kSs);
  EXPECT_EQ(pushed->children[1]->kind, LogicalNode::Kind::kSs);

  auto back = PullSsAboveBinary(pushed);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(PlansEqual(back, plan));
}

TEST_F(RulesTest, Rule3OneSidedPushKeepsResidualShield) {
  RoleSet p = RoleSet::Of(ids_[0]);
  auto plan = LogicalNode::Ss(
      {p}, LogicalNode::Join(0, 0, 100, Source(), Source()));
  auto pushed = PushSsOverBinary(plan, true, false);
  ASSERT_NE(pushed, nullptr);
  // ψp(ψp(T) ⋈ E): the residual shield stays — whether E streams policies
  // cannot be verified statically, so the one-sided push is a pre-filter,
  // not a replacement (Table II's "only T streams policies" side-condition).
  ASSERT_EQ(pushed->kind, LogicalNode::Kind::kSs);
  const LogicalNodePtr& join = pushed->children[0];
  ASSERT_EQ(join->kind, LogicalNode::Kind::kJoin);
  EXPECT_EQ(join->children[0]->kind, LogicalNode::Kind::kSs);
  EXPECT_EQ(join->children[1]->kind, LogicalNode::Kind::kSource);
}

TEST_F(RulesTest, Rule3MultiRolePredicateKeepsResidualBothSides) {
  // l and r can each intersect a multi-role predicate through different
  // roles while their intersection misses it entirely — so even the
  // both-sides push must keep the residual shield.
  RoleSet p = RoleSet::FromIds({ids_[0], ids_[1]});
  auto plan = LogicalNode::Ss(
      {p}, LogicalNode::Join(0, 0, 100, Source(), Source()));
  auto pushed = PushSsOverBinary(plan, true, true);
  ASSERT_NE(pushed, nullptr);
  EXPECT_EQ(pushed->kind, LogicalNode::Kind::kSs);
  EXPECT_EQ(pushed->children[0]->kind, LogicalNode::Kind::kJoin);
  // And the inverse (pull-up) refuses multi-role predicates over joins.
  auto bare = LogicalNode::Join(0, 0, 100, LogicalNode::Ss({p}, Source()),
                                LogicalNode::Ss({p}, Source()));
  EXPECT_EQ(PullSsAboveBinary(bare), nullptr);
}

TEST_F(RulesTest, Rule4CommuteJoinSwapsKeysAndRestoresColumnOrder) {
  auto join = LogicalNode::Join(1, 0, 100, Source(), Source());
  auto plan = LogicalNode::Ss({RoleSet::Of(ids_[0])}, join);
  auto commuted = CommuteJoin(plan);
  ASSERT_NE(commuted, nullptr);
  // ψ(π_restore(E ⋈ T)): the compensating projection keeps downstream
  // column references valid.
  ASSERT_EQ(commuted->kind, LogicalNode::Kind::kSs);
  const LogicalNodePtr& proj = commuted->children[0];
  ASSERT_EQ(proj->kind, LogicalNode::Kind::kProject);
  EXPECT_EQ(proj->columns, (std::vector<int>{2, 3, 0, 1}));
  const LogicalNodePtr& inner = proj->children[0];
  ASSERT_EQ(inner->kind, LogicalNode::Kind::kJoin);
  EXPECT_EQ(inner->left_key, 0);
  EXPECT_EQ(inner->right_key, 1);
}

TEST_F(RulesTest, Rule5AssociateNestedJoin) {
  // ((T ⋈ E) ⋈ K) with the outer key referencing E.
  auto t = Source();
  auto e = Source();
  auto k = Source();
  auto inner = LogicalNode::Join(0, 1, 100, t, e);
  // inner output: [a, b, a, b]; outer left key 3 = E.b.
  auto outer = LogicalNode::Join(3, 0, 100, inner, k);
  auto plan = LogicalNode::Ss({RoleSet::Of(ids_[0])}, outer);
  auto assoc = AssociateJoin(plan);
  ASSERT_NE(assoc, nullptr);
  const LogicalNodePtr& new_outer = assoc->children[0];
  ASSERT_EQ(new_outer->kind, LogicalNode::Kind::kJoin);
  EXPECT_EQ(new_outer->children[0]->kind, LogicalNode::Kind::kSource);
  const LogicalNodePtr& new_inner = new_outer->children[1];
  ASSERT_EQ(new_inner->kind, LogicalNode::Kind::kJoin);
  EXPECT_EQ(new_inner->left_key, 1);  // E.b within E
  EXPECT_EQ(new_inner->right_key, 0);

  // Outer key referencing T blocks re-association.
  auto outer_t = LogicalNode::Join(0, 0, 100, inner->Clone(), k->Clone());
  EXPECT_EQ(AssociateJoin(outer_t), nullptr);
}

TEST_F(RulesTest, NeighborsEnumeratesRewrites) {
  RoleSet p1 = RoleSet::Of(ids_[0]);
  RoleSet p2 = RoleSet::Of(ids_[1]);
  auto pred = Expr::Compare(Expr::CmpOp::kGt, Expr::Column(0),
                            Expr::Literal(Value(5)));
  auto plan = LogicalNode::Ss(
      {p1, p2}, LogicalNode::Select(pred, Source()));
  auto neighbors = Neighbors(plan);
  EXPECT_GE(neighbors.size(), 2u);  // at least split + commute
  // No duplicates, and the original is not included.
  std::set<std::string> rendered;
  rendered.insert(plan->ToString());
  for (const auto& n : neighbors) {
    EXPECT_TRUE(rendered.insert(n->ToString()).second);
  }
}

// ---- Empirical equivalence: rewritten plans produce identical outputs ---

class RuleEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RuleEquivalenceProperty, RewrittenPlansMatchOnRandomStreams) {
  RoleCatalog roles;
  StreamCatalog streams;
  auto ids = roles.RegisterSyntheticRoles(10);
  SchemaPtr schema = MakeSchema("s", {Field{"a", ValueType::kInt64},
                                      Field{"b", ValueType::kInt64}});
  ASSERT_TRUE(streams.RegisterStream(schema).ok());
  ExecContext ctx{&roles, &streams};

  Rng rng(GetParam());
  auto elements = sptest::RandomPunctuatedStream(
      &rng, "s", /*n=*/300, /*cols=*/2, /*value_range=*/20,
      /*role_pool=*/10, /*max_seg=*/5);
  std::unordered_map<std::string, std::vector<StreamElement>> inputs{
      {"s", elements}};

  auto pred = Expr::Compare(Expr::CmpOp::kLt, Expr::Column(0),
                            Expr::Literal(Value(12)));
  auto base = LogicalNode::Ss(
      {RoleSet::FromIds({ids[1], ids[4]}), RoleSet::FromIds({ids[1], ids[7]})},
      LogicalNode::Select(pred, LogicalNode::Project(
                                    {0, 1},
                                    LogicalNode::Source("s", schema))));

  auto run = [&](const LogicalNodePtr& plan) {
    Pipeline pipeline(&ctx);
    auto built = sptest::RunPlan(&pipeline, plan, inputs);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    std::vector<Tuple> out = built->sinks[0]->Tuples();
    return out;
  };

  const auto baseline = run(base);
  ASSERT_FALSE(baseline.empty()) << "degenerate workload";

  // Every neighbor (and neighbor-of-neighbor) plan yields the same tuples.
  size_t checked = 0;
  for (const auto& n1 : Neighbors(base)) {
    EXPECT_EQ(run(n1), baseline) << "neighbor:\n" << n1->ToString();
    if (++checked > 12) break;
  }
  auto frontier = Neighbors(base);
  if (!frontier.empty()) {
    for (const auto& n2 : Neighbors(frontier[0])) {
      EXPECT_EQ(run(n2), baseline) << "2-step:\n" << n2->ToString();
      if (++checked > 20) break;
    }
  }

  // Second scenario: a join under a projection — exercises the rules whose
  // soundness depends on column-order preservation (Rule 4's compensating
  // projection) and on per-side policy streams (Rule 3).
  auto elements2 = sptest::RandomPunctuatedStream(
      &rng, "s", /*n=*/250, /*cols=*/2, /*value_range=*/6,
      /*role_pool=*/10, /*max_seg=*/4);
  std::unordered_map<std::string, std::vector<StreamElement>> inputs2{
      {"s", elements2}};
  // Self-join on column 0; project picks asymmetric columns so a column
  // swap would be visible.
  auto join_base = LogicalNode::Ss(
      {RoleSet::FromIds({ids[2], ids[5]})},
      LogicalNode::Project(
          {1, 2},
          LogicalNode::Join(0, 0, /*window=*/30,
                            LogicalNode::Source("s", schema),
                            LogicalNode::Source("s", schema))));
  auto run2 = [&](const LogicalNodePtr& plan) {
    Pipeline pipeline(&ctx);
    auto built = sptest::RunPlan(&pipeline, plan, inputs2);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    // Canonicalize: joins may emit in different orders across shapes.
    auto tuples = built->sinks[0]->Tuples();
    std::vector<std::string> canon;
    canon.reserve(tuples.size());
    for (const Tuple& t : tuples) {
      std::string row;
      for (const Value& v : t.values) row += v.ToString() + "|";
      canon.push_back(row);
    }
    std::sort(canon.begin(), canon.end());
    return canon;
  };
  const auto join_baseline = run2(join_base);
  ASSERT_FALSE(join_baseline.empty()) << "degenerate join workload";
  checked = 0;
  for (const auto& n1 : Neighbors(join_base)) {
    EXPECT_EQ(run2(n1), join_baseline) << "join neighbor:\n"
                                       << n1->ToString();
    if (++checked > 16) break;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleEquivalenceProperty,
                         ::testing::Values(3, 17, 2024));

}  // namespace
}  // namespace spstream

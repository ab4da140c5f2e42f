#include "optimizer/optimizer.h"

#include <gtest/gtest.h>

#include "exec/plan_builder.h"
#include "test_util.h"

namespace spstream {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = roles_.RegisterSyntheticRoles(10);
    schema_ = MakeSchema("s", {Field{"a", ValueType::kInt64},
                               Field{"b", ValueType::kInt64}});
    schema_t_ = MakeSchema("t", {Field{"a", ValueType::kInt64},
                                 Field{"b", ValueType::kInt64}});
    sources_["s"] = SourceStats{100.0, 10.0};
    sources_["t"] = SourceStats{100.0, 10.0};
  }

  RoleCatalog roles_;
  std::vector<RoleId> ids_;
  SchemaPtr schema_, schema_t_;
  std::unordered_map<std::string, SourceStats> sources_;
};

TEST_F(OptimizerTest, NeverWorseThanInput) {
  CostModelOptions opts;
  opts.ss_selectivity = 0.2;
  CostModel model(sources_, opts);
  Optimizer optimizer(&model);

  auto pred = Expr::Compare(Expr::CmpOp::kGt, Expr::Column(0),
                            Expr::Literal(Value(0)));
  auto plan = LogicalNode::Ss(
      {RoleSet::Of(ids_[0])},
      LogicalNode::Select(
          pred, LogicalNode::Join(0, 0, 10,
                                  LogicalNode::Source("s", schema_),
                                  LogicalNode::Source("t", schema_t_))));
  auto optimized = optimizer.Optimize(plan);
  EXPECT_LE(model.PlanCost(optimized), model.PlanCost(plan));
  EXPECT_GT(optimizer.last_candidates_evaluated(), 0u);
}

TEST_F(OptimizerTest, SelectiveShieldPushedBelowJoin) {
  CostModelOptions opts;
  opts.ss_selectivity = 0.05;  // shield kills 95% of traffic
  CostModel model(sources_, opts);
  Optimizer optimizer(&model);

  auto plan = LogicalNode::Ss(
      {RoleSet::Of(ids_[0])},
      LogicalNode::Join(0, 0, 10, LogicalNode::Source("s", schema_),
                        LogicalNode::Source("t", schema_t_)));
  auto optimized = optimizer.Optimize(plan);
  // The shield should no longer sit at the root: it moved below the join.
  EXPECT_NE(optimized->kind, LogicalNode::Kind::kSs);
  EXPECT_GE(CountNodes(optimized, LogicalNode::Kind::kSs), 1u);
  EXPECT_LT(model.PlanCost(optimized), model.PlanCost(plan));
}

TEST_F(OptimizerTest, LocalOptimumTerminates) {
  CostModel model(sources_, {});
  Optimizer optimizer(&model, OptimizerOptions{/*max_rounds=*/50, 256});
  auto plan = LogicalNode::Project({0}, LogicalNode::Source("s", schema_));
  auto optimized = optimizer.Optimize(plan);
  EXPECT_TRUE(PlansEqual(optimized, plan));  // nothing to improve
}

TEST_F(OptimizerTest, OptimizedPlanRemainsOutputEquivalent) {
  RoleCatalog roles;
  StreamCatalog streams;
  auto ids = roles.RegisterSyntheticRoles(10);
  SchemaPtr schema = MakeSchema("s", {Field{"a", ValueType::kInt64},
                                      Field{"b", ValueType::kInt64}});
  ASSERT_TRUE(streams.RegisterStream(schema).ok());
  ExecContext ctx{&roles, &streams};
  Rng rng(5150);
  auto elements = sptest::RandomPunctuatedStream(&rng, "s", 300, 2, 20, 10,
                                                 5);
  std::unordered_map<std::string, std::vector<StreamElement>> inputs{
      {"s", elements}};

  auto pred = Expr::Compare(Expr::CmpOp::kLt, Expr::Column(1),
                            Expr::Literal(Value(15)));
  auto plan = LogicalNode::Ss(
      {RoleSet::FromIds({ids[2], ids[5]})},
      LogicalNode::Select(pred,
                          LogicalNode::Source("s", schema)));

  CostModelOptions opts;
  opts.ss_selectivity = 0.3;
  CostModel model({{"s", SourceStats{100, 20}}}, opts);
  Optimizer optimizer(&model);
  auto optimized = optimizer.Optimize(plan);

  auto run = [&](const LogicalNodePtr& p) {
    Pipeline pipeline(&ctx);
    auto built = sptest::RunPlan(&pipeline, p, inputs);
    EXPECT_TRUE(built.ok());
    return built->sinks[0]->Tuples();
  };
  EXPECT_EQ(run(plan), run(optimized));
}

TEST_F(OptimizerTest, PerRoleStatsRankSelectiveSplitPushdown) {
  // §VI.C: "If the selectivity of some roles in the SS state is low and
  // some is high, the SS state can be split and the SS with lower
  // selectivity pushed up." With per-role match fractions, the cost model
  // must prefer the rare (highly filtering) predicate below the join and
  // the common one above.
  CostModelOptions opts;
  opts.role_match_fraction[ids_[0]] = 0.01;  // rare: filters 99%
  opts.role_match_fraction[ids_[1]] = 0.90;  // common: filters little
  CostModel model(sources_, opts);

  RoleSet rare = RoleSet::Of(ids_[0]);
  RoleSet common = RoleSet::Of(ids_[1]);
  auto join = [&] {
    return LogicalNode::Join(0, 0, 10, LogicalNode::Source("s", schema_),
                             LogicalNode::Source("t", schema_t_));
  };

  // Candidate A: rare shield on both inputs, common above the join.
  auto rare_down = LogicalNode::Ss(
      {common},
      LogicalNode::Join(0, 0, 10,
                        LogicalNode::Ss({rare},
                                        LogicalNode::Source("s", schema_)),
                        LogicalNode::Ss({rare}, LogicalNode::Source(
                                                    "t", schema_t_))));
  // Candidate B: the reverse — common below, rare above.
  auto common_down = LogicalNode::Ss(
      {rare},
      LogicalNode::Join(0, 0, 10,
                        LogicalNode::Ss({common},
                                        LogicalNode::Source("s", schema_)),
                        LogicalNode::Ss({common}, LogicalNode::Source(
                                                      "t", schema_t_))));
  EXPECT_LT(model.PlanCost(rare_down), model.PlanCost(common_down));

  // The optimizer, starting from the merged conjunctive shield at the
  // root, must end at least as cheap as the hand-built best candidate.
  auto merged = LogicalNode::Ss({rare, common}, join());
  OptimizerOptions oopts;
  oopts.max_rounds = 24;
  oopts.max_candidates_per_round = 1024;
  oopts.beam_width = 8;
  Optimizer optimizer(&model, oopts);
  auto best = optimizer.Optimize(merged);
  // The beam should land within a few percent of the hand-built best shape
  // (the exact plan may differ by residual-shield bookkeeping).
  EXPECT_LE(model.PlanCost(best), model.PlanCost(rare_down) * 1.05);
  EXPECT_LT(model.PlanCost(best), model.PlanCost(merged));
  // And the winning plan indeed keeps a shield below the join.
  bool ss_below_join = false;
  std::function<void(const LogicalNodePtr&, bool)> walk =
      [&](const LogicalNodePtr& node, bool under_join) {
        if (node->kind == LogicalNode::Kind::kSs && under_join) {
          ss_below_join = true;
        }
        for (const auto& c : node->children) {
          walk(c, under_join || node->kind == LogicalNode::Kind::kJoin);
        }
      };
  walk(best, false);
  EXPECT_TRUE(ss_below_join) << best->ToString();
}

TEST_F(OptimizerTest, SharedPlanMergesAndSplits) {
  std::vector<RoleSet> query_roles = {RoleSet::Of(ids_[0]),
                                      RoleSet::Of(ids_[1]),
                                      RoleSet::FromIds({ids_[1], ids_[2]})};
  auto subplan = LogicalNode::Select(
      Expr::Compare(Expr::CmpOp::kGt, Expr::Column(0),
                    Expr::Literal(Value(3))),
      LogicalNode::Source("s", schema_));
  SharedPlan shared = BuildSharedPlan(subplan, query_roles);

  // Trunk: merged SS above the source with the union of all roles.
  ASSERT_NE(shared.trunk, nullptr);
  EXPECT_EQ(CountNodes(shared.trunk, LogicalNode::Kind::kSs), 1u);
  LogicalNodePtr node = shared.trunk;
  while (node->kind != LogicalNode::Kind::kSs) node = node->children[0];
  RoleSet expected_union;
  for (const auto& r : query_roles) expected_union.UnionWith(r);
  ASSERT_EQ(node->ss_predicates.size(), 1u);
  EXPECT_EQ(node->ss_predicates[0], expected_union);

  // One split SS per query, each with its own predicate, over the trunk.
  ASSERT_EQ(shared.query_roots.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(shared.query_roots[i]->kind, LogicalNode::Kind::kSs);
    EXPECT_EQ(shared.query_roots[i]->ss_predicates[0], query_roles[i]);
    EXPECT_EQ(shared.query_roots[i]->children[0].get(), shared.trunk.get());
  }
}

TEST_F(OptimizerTest, SharedPlanPreservesPerQueryResults) {
  // Executing the shared plan per query equals executing each query's own
  // post-filter plan.
  RoleCatalog roles;
  StreamCatalog streams;
  auto ids = roles.RegisterSyntheticRoles(8);
  SchemaPtr schema = MakeSchema("s", {Field{"a", ValueType::kInt64},
                                      Field{"b", ValueType::kInt64}});
  ASSERT_TRUE(streams.RegisterStream(schema).ok());
  ExecContext ctx{&roles, &streams};
  Rng rng(808);
  auto elements =
      sptest::RandomPunctuatedStream(&rng, "s", 250, 2, 20, 8, 4);
  std::unordered_map<std::string, std::vector<StreamElement>> inputs{
      {"s", elements}};

  auto subplan = LogicalNode::Select(
      Expr::Compare(Expr::CmpOp::kLt, Expr::Column(0),
                    Expr::Literal(Value(15))),
      LogicalNode::Source("s", schema));
  std::vector<RoleSet> query_roles = {RoleSet::Of(ids[1]),
                                      RoleSet::FromIds({ids[2], ids[3]})};
  SharedPlan shared = BuildSharedPlan(subplan, query_roles);

  auto run = [&](const LogicalNodePtr& p) {
    Pipeline pipeline(&ctx);
    auto built = sptest::RunPlan(&pipeline, p, inputs);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built->sinks[0]->Tuples();
  };

  for (size_t q = 0; q < query_roles.size(); ++q) {
    auto solo = LogicalNode::Ss({query_roles[q]}, subplan->Clone());
    EXPECT_EQ(run(shared.query_roots[q]), run(solo)) << "query " << q;
  }
}

}  // namespace
}  // namespace spstream

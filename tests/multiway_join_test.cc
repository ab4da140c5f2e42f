// Multi-way (left-deep) join planning and execution, including Rule 5
// (associativity) reachability from planner-generated plans.
#include <gtest/gtest.h>

#include "exec/plan_builder.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "query/planner.h"
#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;

class MultiwayJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = roles_.RegisterSyntheticRoles(4);
    for (const char* name : {"A", "B", "C"}) {
      SchemaPtr schema = MakeSchema(
          name, {Field{"k", ValueType::kInt64},
                 Field{std::string("payload_") + name, ValueType::kInt64}});
      schemas_[name] = schema;
      ASSERT_TRUE(streams_.RegisterStream(schema).ok());
    }
    planner_ = std::make_unique<Planner>(&streams_, &roles_);
    ctx_ = ExecContext{&roles_, &streams_};
  }

  std::vector<StreamElement> StreamFor(const std::string& name,
                                       std::vector<int64_t> keys,
                                       TupleId base_tid) {
    std::vector<StreamElement> out;
    out.emplace_back(MakeSp(name, {ids_[0]}, 1));
    Timestamp ts = 1;
    for (int64_t k : keys) {
      out.emplace_back(Tuple(0, base_tid++, {Value(k), Value(base_tid)},
                             ts++));
    }
    return out;
  }

  RoleCatalog roles_;
  StreamCatalog streams_;
  std::unordered_map<std::string, SchemaPtr> schemas_;
  std::unique_ptr<Planner> planner_;
  std::vector<RoleId> ids_;
  ExecContext ctx_;
};

TEST_F(MultiwayJoinTest, PlansLeftDeepTree) {
  auto stmt = ParseSelect(
      "SELECT A.payload_A FROM A [RANGE 100], B, C "
      "WHERE A.k = B.k AND B.k = C.k AND payload_C > 0");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto plan = planner_->PlanSelect(*stmt, RoleSet());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(CountNodes(*plan, LogicalNode::Kind::kJoin), 2u);
  EXPECT_EQ(CountNodes(*plan, LogicalNode::Kind::kSelect), 1u);
  // Left-deep: outer join's left child is the inner join.
  LogicalNodePtr node = *plan;
  while (node->kind != LogicalNode::Kind::kJoin) node = node->children[0];
  EXPECT_EQ(node->children[0]->kind, LogicalNode::Kind::kJoin);
  EXPECT_EQ(node->children[1]->kind, LogicalNode::Kind::kSource);
}

TEST_F(MultiwayJoinTest, DisconnectedStreamRejected) {
  auto stmt = ParseSelect(
      "SELECT A.payload_A FROM A, B, C WHERE A.k = B.k");
  ASSERT_TRUE(stmt.ok());
  auto plan = planner_->PlanSelect(*stmt, RoleSet());
  EXPECT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("C"), std::string::npos);
}

TEST_F(MultiwayJoinTest, ThreeWayExecutionMatchesExpectation) {
  auto stmt = ParseSelect(
      "SELECT A.payload_A, B.payload_B, C.payload_C "
      "FROM A [RANGE 1000], B [RANGE 1000], C [RANGE 1000] "
      "WHERE A.k = B.k AND B.k = C.k");
  ASSERT_TRUE(stmt.ok());
  auto plan = planner_->PlanSelect(*stmt, RoleSet::Of(ids_[0]));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // A: keys {1, 2, 3}; B: keys {2, 3, 4}; C: keys {3}. Join = key 3 only.
  std::unordered_map<std::string, std::vector<StreamElement>> inputs{
      {"A", StreamFor("A", {1, 2, 3}, 0)},
      {"B", StreamFor("B", {2, 3, 4}, 100)},
      {"C", StreamFor("C", {3}, 200)}};

  Pipeline pipeline(&ctx_);
  auto built = sptest::RunPlan(&pipeline, *plan, inputs);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto tuples = built->sinks[0]->Tuples();
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].values.size(), 3u);
}

TEST_F(MultiwayJoinTest, AssociativityRuleApplicable) {
  auto stmt = ParseSelect(
      "SELECT A.payload_A FROM A, B, C WHERE A.k = B.k AND B.k = C.k");
  ASSERT_TRUE(stmt.ok());
  auto plan = planner_->PlanSelect(*stmt, RoleSet::Of(ids_[0]));
  ASSERT_TRUE(plan.ok());
  // Somewhere in the rewrite space, Rule 5 turns the left-deep tree into a
  // right-deep one.
  bool found_right_deep = false;
  std::vector<LogicalNodePtr> frontier = {*plan};
  for (int depth = 0; depth < 2 && !found_right_deep; ++depth) {
    std::vector<LogicalNodePtr> next;
    for (const auto& p : frontier) {
      for (const auto& n : Neighbors(p)) {
        std::function<bool(const LogicalNodePtr&)> right_deep =
            [&](const LogicalNodePtr& node) -> bool {
          if (node->kind == LogicalNode::Kind::kJoin &&
              node->children[1]->kind == LogicalNode::Kind::kJoin) {
            return true;
          }
          for (const auto& c : node->children) {
            if (right_deep(c)) return true;
          }
          return false;
        };
        if (right_deep(n)) found_right_deep = true;
        next.push_back(n);
      }
    }
    frontier = std::move(next);
  }
  EXPECT_TRUE(found_right_deep);
}

TEST_F(MultiwayJoinTest, ThreeWayEquivalentAcrossJoinImpls) {
  auto stmt = ParseSelect(
      "SELECT A.payload_A, C.payload_C FROM A [RANGE 1000], B [RANGE 1000], "
      "C [RANGE 1000] WHERE A.k = B.k AND B.k = C.k");
  ASSERT_TRUE(stmt.ok());
  auto plan = planner_->PlanSelect(*stmt, RoleSet::Of(ids_[0]));
  ASSERT_TRUE(plan.ok());

  Rng rng(404);
  auto keys = [&](size_t n) {
    std::vector<int64_t> out;
    for (size_t i = 0; i < n; ++i) {
      out.push_back(static_cast<int64_t>(rng.NextBounded(6)));
    }
    return out;
  };
  std::unordered_map<std::string, std::vector<StreamElement>> inputs{
      {"A", StreamFor("A", keys(30), 0)},
      {"B", StreamFor("B", keys(30), 100)},
      {"C", StreamFor("C", keys(30), 200)}};

  auto run = [&](PhysicalPlanOptions::JoinImpl impl) {
    PhysicalPlanOptions popts;
    popts.join_impl = impl;
    Pipeline pipeline(&ctx_);
    auto built = sptest::RunPlan(&pipeline, *plan, inputs, popts);
    EXPECT_TRUE(built.ok());
    return built->sinks[0]->Tuples().size();
  };
  const size_t nl = run(PhysicalPlanOptions::JoinImpl::kNestedLoop);
  const size_t idx = run(PhysicalPlanOptions::JoinImpl::kIndex);
  EXPECT_EQ(nl, idx);
  EXPECT_GT(nl, 0u);
}

}  // namespace
}  // namespace spstream

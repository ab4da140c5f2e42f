// End-to-end: CQL text -> parser -> planner -> optimizer -> physical plan
// -> pipelined execution over generated punctuated streams, including the
// paper's three SS-placement strategies and the Example 2 health scenario.
#include <gtest/gtest.h>

#include "analyzer/sp_analyzer.h"
#include "exec/plan_builder.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "query/planner.h"
#include "test_util.h"
#include "workload/health_streams.h"
#include "workload/moving_objects.h"
#include "workload/policy_gen.h"

namespace spstream {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hospital_ = RegisterHospitalRoles(&roles_);
    ASSERT_TRUE(streams_.RegisterStream(HeartRateSchema()).ok());
    ASSERT_TRUE(streams_.RegisterStream(BodyTemperatureSchema()).ok());
    ASSERT_TRUE(streams_.RegisterStream(BreathingRateSchema()).ok());
    ASSERT_TRUE(
        streams_
            .RegisterStream(
                MovingObjectsGenerator::LocationSchema("Location"))
            .ok());
    ctx_ = ExecContext{&roles_, &streams_};
    planner_ = std::make_unique<Planner>(&streams_, &roles_);
  }

  std::vector<Tuple> Execute(
      const LogicalNodePtr& plan,
      const std::unordered_map<std::string, std::vector<StreamElement>>&
          inputs,
      const PhysicalPlanOptions& popts = {}) {
    Pipeline pipeline(&ctx_);
    auto built = sptest::RunPlan(&pipeline, plan, inputs, popts);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built->sinks[0]->Tuples();
  }

  RoleCatalog roles_;
  StreamCatalog streams_;
  HospitalRoles hospital_;
  ExecContext ctx_;
  std::unique_ptr<Planner> planner_;
};

TEST_F(IntegrationTest, HealthScenarioGpSeesOnlyItsPatients) {
  HealthStreamOptions opts;
  opts.num_patients = 6;
  opts.updates_per_patient = 40;
  opts.emergency_prob = 0.0;  // no escalations
  HealthWorkload wl = GenerateHealthWorkload(&roles_, opts);

  auto stmt = ParseSelect(
      "SELECT patient_id, beats_per_min FROM HeartRate "
      "WHERE beats_per_min > 80");
  ASSERT_TRUE(stmt.ok());
  auto plan = planner_->PlanSelect(*stmt, RoleSet::Of(hospital_.general_physician));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  auto out = Execute(*plan, {{"HeartRate", wl.heart_rate}});
  EXPECT_FALSE(out.empty());
  for (const Tuple& t : out) {
    EXPECT_GT(t.values[1].int64(), 80);
  }

  // A dermatologist gets nothing from this stream.
  auto dm_plan =
      planner_->PlanSelect(*stmt, RoleSet::Of(hospital_.dermatologist));
  ASSERT_TRUE(dm_plan.ok());
  EXPECT_TRUE(Execute(*dm_plan, {{"HeartRate", wl.heart_rate}}).empty());
}

TEST_F(IntegrationTest, EmergencyEscalationAdmitsEmployeeMidStream) {
  HealthStreamOptions opts;
  opts.num_patients = 4;
  opts.updates_per_patient = 120;
  opts.emergency_prob = 0.05;
  opts.seed = 23;
  HealthWorkload wl = GenerateHealthWorkload(&roles_, opts);

  auto stmt = ParseSelect("SELECT patient_id, beats_per_min FROM HeartRate");
  ASSERT_TRUE(stmt.ok());
  auto plan = planner_->PlanSelect(*stmt, RoleSet::Of(hospital_.employee));
  ASSERT_TRUE(plan.ok());
  auto out = Execute(*plan, {{"HeartRate", wl.heart_rate}});
  // The employee role only sees the escalated (emergency) updates...
  ASSERT_FALSE(out.empty());
  for (const Tuple& t : out) {
    EXPECT_GE(t.values[1].int64(), 150) << "non-emergency update leaked";
  }
  // ...while a GP sees everything.
  auto gp_plan =
      planner_->PlanSelect(*stmt, RoleSet::Of(hospital_.general_physician));
  ASSERT_TRUE(gp_plan.ok());
  EXPECT_EQ(Execute(*gp_plan, {{"HeartRate", wl.heart_rate}}).size(),
            4u * 120u);
}

TEST_F(IntegrationTest, PlacementStrategiesProduceIdenticalTuples) {
  MovingObjectsGenerator::SeedRoles(&roles_, 12);
  MovingObjectsOptions mopts;
  mopts.num_objects = 100;
  mopts.num_updates = 1500;
  mopts.tuples_per_sp = 10;
  mopts.roles_per_policy = 2;
  mopts.role_pool = 12;
  MovingObjectsGenerator gen(&roles_, RoadNetwork::Grid({}), mopts);
  auto elements = gen.Generate();
  std::unordered_map<std::string, std::vector<StreamElement>> inputs{
      {"Location", elements}};

  auto stmt = ParseSelect(
      "SELECT object_id, x, y FROM Location WHERE speed > 15");
  ASSERT_TRUE(stmt.ok());
  auto bare = planner_->PlanSelect(*stmt, RoleSet());  // no shield yet
  ASSERT_TRUE(bare.ok());

  auto r1 = roles_.Lookup("r1");
  auto r5 = roles_.Lookup("r5");
  ASSERT_TRUE(r1.ok() && r5.ok());
  RoleSet q = RoleSet::FromIds({*r1, *r5});

  auto pre = Execute(ApplySsPlacement(*bare, q, SsPlacement::kPreFilter),
                     inputs);
  auto post = Execute(ApplySsPlacement(*bare, q, SsPlacement::kPostFilter),
                      inputs);
  auto mid = Execute(
      ApplySsPlacement(*bare, q, SsPlacement::kIntermediate), inputs);
  ASSERT_FALSE(pre.empty());
  EXPECT_EQ(pre, post);
  EXPECT_EQ(pre, mid);
}

TEST_F(IntegrationTest, PlacementsAgreeOnJoinsUnderBatchedPolling) {
  // Regression: derived-stream punctuations must stay ts-monotone so the
  // root shield of the post-filter placement never mislabels segments.
  // (Batched polling makes join output event times run backwards across
  // input switches — exactly the condition that once leaked here.)
  JoinWorkloadOptions wopts;
  wopts.tuples_per_stream = 800;
  wopts.tuples_per_sp = 10;
  wopts.sp_selectivity = 0.3;
  wopts.seed = 77;
  JoinWorkload wl = GenerateJoinWorkload(&roles_, wopts);
  (void)streams_.RegisterStream(wl.left_schema);
  (void)streams_.RegisterStream(wl.right_schema);
  std::unordered_map<std::string, std::vector<StreamElement>> inputs{
      {"s1", wl.left}, {"s2", wl.right}};

  auto bare = LogicalNode::Join(0, 0, /*window=*/60,
                                LogicalNode::Source("s1", wl.left_schema),
                                LogicalNode::Source("s2", wl.right_schema));
  RoleSet q = RoleSet::Of(*roles_.Lookup("g_shared"));

  auto run = [&](SsPlacement placement, size_t batch) {
    Pipeline pipeline(&ctx_);
    auto built = sptest::RunPlan(
        &pipeline, ApplySsPlacement(bare, q, placement), inputs, {}, batch);
    EXPECT_TRUE(built.ok());
    return built->sinks[0]->Tuples().size();
  };
  for (size_t batch : {size_t{1}, size_t{64}, size_t{1000}}) {
    const size_t post = run(SsPlacement::kPostFilter, batch);
    const size_t mid = run(SsPlacement::kIntermediate, batch);
    EXPECT_EQ(post, mid) << "batch=" << batch;
    EXPECT_GT(post, 0u);
  }
}

TEST_F(IntegrationTest, OptimizedJoinPlanEndToEnd) {
  JoinWorkloadOptions wopts;
  wopts.tuples_per_stream = 600;
  wopts.sp_selectivity = 0.6;
  wopts.seed = 12;
  JoinWorkload wl = GenerateJoinWorkload(&roles_, wopts);
  ASSERT_TRUE(streams_.RegisterStream(wl.left_schema).ok());
  ASSERT_TRUE(streams_.RegisterStream(wl.right_schema).ok());
  std::unordered_map<std::string, std::vector<StreamElement>> inputs{
      {"s1", wl.left}, {"s2", wl.right}};

  auto shared = roles_.Lookup("g_shared");
  ASSERT_TRUE(shared.ok());

  auto stmt = ParseSelect(
      "SELECT s1.payload, s2.payload FROM s1 [RANGE 40], s2 [RANGE 40] "
      "WHERE s1.key = s2.key");
  ASSERT_TRUE(stmt.ok());
  auto plan = planner_->PlanSelect(*stmt, RoleSet::Of(*shared));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  CostModel model({{"s1", SourceStats{100, 10}},
                   {"s2", SourceStats{100, 10}}},
                  CostModelOptions{});
  Optimizer optimizer(&model);
  auto optimized = optimizer.Optimize(*plan);

  PhysicalPlanOptions nl;
  nl.join_impl = PhysicalPlanOptions::JoinImpl::kNestedLoop;
  PhysicalPlanOptions idx;
  idx.join_impl = PhysicalPlanOptions::JoinImpl::kIndex;

  auto base_nl = Execute(*plan, inputs, nl);
  auto base_idx = Execute(*plan, inputs, idx);
  auto opt_idx = Execute(optimized, inputs, idx);
  ASSERT_FALSE(base_nl.empty());
  EXPECT_EQ(base_nl.size(), base_idx.size());
  EXPECT_EQ(base_nl.size(), opt_idx.size());
}

TEST_F(IntegrationTest, InsertSpStatementsDriveAccessEndToEnd) {
  // Build a stream entirely from INSERT SP statements + tuples and verify
  // the enforced policy switches.
  auto sp1_stmt = ParseInsertSp(
      "INSERT SP INTO STREAM HeartRate "
      "LET DDP = (HeartRate, *, *), SRP = (RBAC, C), TS = 1");
  ASSERT_TRUE(sp1_stmt.ok());
  auto sp2_stmt = ParseInsertSp(
      "INSERT SP INTO STREAM HeartRate "
      "LET DDP = (HeartRate, *, *), SRP = (RBAC, ND), TS = 10");
  ASSERT_TRUE(sp2_stmt.ok());
  auto sp1 = planner_->BuildSp(*sp1_stmt, 0);
  auto sp2 = planner_->BuildSp(*sp2_stmt, 0);
  ASSERT_TRUE(sp1.ok() && sp2.ok());

  std::vector<StreamElement> elements;
  elements.emplace_back(*sp1);
  elements.emplace_back(Tuple(0, 120, {Value(int64_t{120}), Value(70)}, 1));
  elements.emplace_back(*sp2);
  elements.emplace_back(Tuple(0, 121, {Value(int64_t{121}), Value(75)}, 10));

  auto stmt = ParseSelect("SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(stmt.ok());

  auto c_plan =
      planner_->PlanSelect(*stmt, RoleSet::Of(hospital_.cardiologist));
  ASSERT_TRUE(c_plan.ok());
  auto c_out = Execute(*c_plan, {{"HeartRate", elements}});
  ASSERT_EQ(c_out.size(), 1u);
  EXPECT_EQ(c_out[0].tid, 120);

  auto nd_plan =
      planner_->PlanSelect(*stmt, RoleSet::Of(hospital_.nurse_on_duty));
  ASSERT_TRUE(nd_plan.ok());
  auto nd_out = Execute(*nd_plan, {{"HeartRate", elements}});
  ASSERT_EQ(nd_out.size(), 1u);
  EXPECT_EQ(nd_out[0].tid, 121);
}

TEST_F(IntegrationTest, AnalyzerFrontEndRefinesProviderPolicies) {
  // Hospital server policy: HeartRate readable only by C or GP — refines
  // every (mutable) provider sp on admission.
  SpAnalyzer analyzer(&roles_, "HeartRate");
  SecurityPunctuation server = SecurityPunctuation::StreamLevel(
      Pattern::Literal("HeartRate"), Pattern::Compile("C|GP").value(), 0);
  ASSERT_TRUE(analyzer.AddServerPolicy(server).ok());

  // Provider grants {GP, ND}; after refinement only GP survives.
  std::vector<StreamElement> raw;
  raw.emplace_back(sptest::MakeSp(
      "HeartRate", {hospital_.general_physician, hospital_.nurse_on_duty},
      5));
  raw.emplace_back(Tuple(0, 120, {Value(int64_t{120}), Value(70)}, 5));
  std::vector<StreamElement> admitted;
  for (auto& e : raw) {
    for (auto& fwd : analyzer.Process(std::move(e))) {
      admitted.push_back(std::move(fwd));
    }
  }

  auto stmt = ParseSelect("SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(stmt.ok());
  auto nd_plan =
      planner_->PlanSelect(*stmt, RoleSet::Of(hospital_.nurse_on_duty));
  auto gp_plan =
      planner_->PlanSelect(*stmt, RoleSet::Of(hospital_.general_physician));
  ASSERT_TRUE(nd_plan.ok() && gp_plan.ok());
  EXPECT_TRUE(Execute(*nd_plan, {{"HeartRate", admitted}}).empty());
  EXPECT_EQ(Execute(*gp_plan, {{"HeartRate", admitted}}).size(), 1u);
}

TEST_F(IntegrationTest, EndToEndSafetyFuzz) {
  // Fuzzed plans over fuzzed streams: no output tuple may ever correspond
  // to an input tuple whose policy excluded the query's roles.
  MovingObjectsGenerator::SeedRoles(&roles_, 10);
  Rng rng(60606);
  for (int trial = 0; trial < 6; ++trial) {
    auto elements = sptest::RandomPunctuatedStream(
        &rng, "Location", 400, 4, 50, 10, 6, 2);
    auto ref = sptest::ReferenceAnnotate(elements, "Location");
    std::map<TupleId, RoleSet> by_tid;
    for (auto& rt : ref) by_tid[rt.tuple.tid] = rt.roles;

    RoleSet q;
    q.Insert(static_cast<RoleId>(rng.NextBounded(10)));
    auto stmt = ParseSelect(
        "SELECT object_id, x FROM Location WHERE x >= " +
        std::to_string(rng.NextBounded(40)));
    ASSERT_TRUE(stmt.ok());
    auto plan = planner_->PlanSelect(*stmt, q);
    ASSERT_TRUE(plan.ok());
    // Exercise a random placement each trial.
    auto placement = static_cast<SsPlacement>(rng.NextBounded(3));
    auto bare = planner_->PlanSelect(*stmt, RoleSet());
    ASSERT_TRUE(bare.ok());
    auto shielded = ApplySsPlacement(*bare, q, placement);
    auto out = Execute(shielded, {{"Location", elements}});
    for (const Tuple& t : out) {
      ASSERT_TRUE(by_tid.count(t.tid));
      EXPECT_TRUE(by_tid[t.tid].Intersects(q))
          << "trial " << trial << ": unauthorized tuple " << t.tid;
    }
  }
}

}  // namespace
}  // namespace spstream

#include "engine/engine.h"

#include <gtest/gtest.h>

#include "workload/health_streams.h"

namespace spstream {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<SpStreamEngine>();
    engine_->RegisterRole("GP");
    engine_->RegisterRole("C");
    engine_->RegisterRole("ND");
    ASSERT_TRUE(engine_->RegisterStream(HeartRateSchema()).ok());
    ASSERT_TRUE(engine_->RegisterSubject("dr_house", {"GP"}).ok());
    ASSERT_TRUE(engine_->RegisterSubject("dr_wilson", {"C"}).ok());
  }

  Tuple Beat(TupleId pid, int64_t bpm, Timestamp ts) {
    return Tuple(0, pid, {Value(static_cast<int64_t>(pid)), Value(bpm)},
                 ts);
  }

  std::unique_ptr<SpStreamEngine> engine_;
};

TEST_F(EngineTest, SubjectValidation) {
  EXPECT_FALSE(engine_->RegisterSubject("dup", {"NoSuchRole"}).ok());
  EXPECT_FALSE(engine_->RegisterSubject("dr_house", {"GP"}).ok());
  EXPECT_FALSE(engine_->RegisterSubject("roleless", {}).ok());
}

TEST_F(EngineTest, EndToEndQueryLifecycle) {
  auto q = engine_->RegisterQuery(
      "dr_house", "SELECT patient_id, beats_per_min FROM HeartRate");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  ASSERT_TRUE(engine_
                  ->ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = 1")
                  .ok());
  ASSERT_TRUE(engine_
                  ->Push("HeartRate", {StreamElement(Beat(120, 72, 1)),
                                       StreamElement(Beat(121, 88, 2))})
                  .ok());
  ASSERT_TRUE(engine_->Run().ok());

  auto results = engine_->Results(*q);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 2u);

  // Drain and confirm cleared.
  auto taken = engine_->TakeResults(*q);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken->size(), 2u);
  EXPECT_TRUE(engine_->Results(*q)->empty());
}

TEST_F(EngineTest, PerSubjectIsolation) {
  auto gp_q = engine_->RegisterQuery("dr_house",
                                     "SELECT patient_id FROM HeartRate");
  auto c_q = engine_->RegisterQuery("dr_wilson",
                                    "SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(gp_q.ok() && c_q.ok());

  ASSERT_TRUE(engine_
                  ->ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = 1")
                  .ok());
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(120, 72, 1))}).ok());
  ASSERT_TRUE(engine_->Run().ok());

  EXPECT_EQ(engine_->Results(*gp_q)->size(), 1u);
  EXPECT_TRUE(engine_->Results(*c_q)->empty());  // cardiologist: no grant
}

TEST_F(EngineTest, IncrementalRunsAccumulate) {
  auto q = engine_->RegisterQuery("dr_house",
                                  "SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine_
                  ->ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = 1")
                  .ok());
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(1, 70, 1))}).ok());
  ASSERT_TRUE(engine_->Run().ok());
  EXPECT_EQ(engine_->Results(*q)->size(), 1u);

  // Second batch rides a refreshed policy.
  ASSERT_TRUE(engine_
                  ->ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = 5")
                  .ok());
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(2, 71, 5))}).ok());
  ASSERT_TRUE(engine_->Run().ok());
  EXPECT_EQ(engine_->Results(*q)->size(), 2u);
}

TEST_F(EngineTest, PoliciesPersistAcrossRunEpochs) {
  // Continuous pipelines keep operator state alive: a policy installed in
  // epoch 1 still governs tuples arriving in later epochs, with no
  // re-granting sp.
  auto q = engine_->RegisterQuery("dr_house",
                                  "SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine_
                  ->ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = 1")
                  .ok());
  ASSERT_TRUE(engine_->Run().ok());  // epoch 1: only the sp
  EXPECT_TRUE(engine_->Results(*q)->empty());

  // Epoch 2: a bare tuple, no sp — still authorized by the epoch-1 policy.
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(7, 70, 2))}).ok());
  ASSERT_TRUE(engine_->Run().ok());
  EXPECT_EQ(engine_->Results(*q)->size(), 1u);

  // Epoch 3: an incremental delta edits the standing policy; the edited
  // policy applies to epoch-3 tuples with no absolute re-grant.
  ASSERT_TRUE(engine_
                  ->ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), "
                      "SIGN = negative, INCREMENTAL = true, TS = 10")
                  .ok());
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(8, 71, 10))}).ok());
  ASSERT_TRUE(engine_->Run().ok());
  EXPECT_EQ(engine_->Results(*q)->size(), 1u);  // GP revoked: no new rows
}

TEST_F(EngineTest, ServerPolicyRefinesThroughAnalyzer) {
  SecurityPunctuation server = SecurityPunctuation::StreamLevel(
      Pattern::Literal("HeartRate"), Pattern::Literal("C"), 0);
  ASSERT_TRUE(engine_->AddServerPolicy("HeartRate", server).ok());

  auto gp_q = engine_->RegisterQuery("dr_house",
                                     "SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(gp_q.ok());
  // Provider grants GP, but the hospital allows only C: intersection empty.
  ASSERT_TRUE(engine_
                  ->ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = 1")
                  .ok());
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(1, 70, 1))}).ok());
  ASSERT_TRUE(engine_->Run().ok());
  EXPECT_TRUE(engine_->Results(*gp_q)->empty());
  const SpAnalyzerStats* stats = engine_->analyzer_stats("HeartRate");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->sps_refined_by_server, 1);
}

TEST_F(EngineTest, DeregisterUnfreezesSubject) {
  auto q = engine_->RegisterQuery("dr_house",
                                  "SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine_->DeregisterQuery(*q).ok());
  EXPECT_FALSE(engine_->DeregisterQuery(*q).ok());  // double deregister
  // Deregistered queries receive nothing.
  ASSERT_TRUE(engine_
                  ->ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = 1")
                  .ok());
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(1, 70, 1))}).ok());
  ASSERT_TRUE(engine_->Run().ok());
  EXPECT_TRUE(engine_->Results(*q)->empty());
}

TEST_F(EngineTest, RuntimeRoleChangeReplansQueries) {
  auto q = engine_->RegisterQuery("dr_house",
                                  "SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(q.ok());

  // Epoch 1: GP-only policy; dr_house (GP) sees the tuple.
  ASSERT_TRUE(engine_
                  ->ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = 1")
                  .ok());
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(1, 70, 1))}).ok());
  ASSERT_TRUE(engine_->Run().ok());
  EXPECT_EQ(engine_->Results(*q)->size(), 1u);

  // §IX extension: dr_house loses GP, becomes ND at runtime.
  const RoleId gp = engine_->roles()->Lookup("GP").value();
  const RoleId nd = engine_->roles()->Lookup("ND").value();
  const std::string gp_shield = "SS[" + RoleSet::Of(gp).ToString() + "]";
  const std::string nd_shield = "SS[" + RoleSet::Of(nd).ToString() + "]";
  auto before = engine_->ExplainQuery(*q);
  ASSERT_TRUE(before.ok());
  EXPECT_NE(before->find(gp_shield), std::string::npos) << *before;
  ASSERT_TRUE(engine_->UpdateSubjectRoles("dr_house", {"ND"}).ok());

  // The role change re-planned the query once, audited as kPlanAdapt, and
  // the shield now carries the new role.
  std::vector<AuditEvent> replans;
  for (const AuditEvent& e : engine_->audit()->Tail(
           engine_->audit()->capacity())) {
    if (e.kind == AuditEventKind::kPlanAdapt) replans.push_back(e);
  }
  ASSERT_EQ(replans.size(), 1u);
  EXPECT_EQ(replans[0].scope, "q" + std::to_string(*q));
  EXPECT_EQ(replans[0].roles, "{ND}");
  auto after = engine_->ExplainQuery(*q);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->find(nd_shield), std::string::npos) << *after;
  EXPECT_EQ(after->find(gp_shield), std::string::npos) << *after;

  // Epoch 2: same GP-only policy; the re-planned shield now denies.
  ASSERT_TRUE(engine_
                  ->ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = 5")
                  .ok());
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(2, 71, 5))}).ok());
  ASSERT_TRUE(engine_->Run().ok());
  EXPECT_EQ(engine_->Results(*q)->size(), 1u);  // unchanged: epoch-1 only

  EXPECT_FALSE(engine_->UpdateSubjectRoles("nobody", {"GP"}).ok());
  EXPECT_FALSE(engine_->UpdateSubjectRoles("dr_house", {}).ok());
}

TEST_F(EngineTest, ExplainShowsShieldedPlan) {
  auto q = engine_->RegisterQuery(
      "dr_house", "SELECT patient_id FROM HeartRate WHERE beats_per_min > 0");
  ASSERT_TRUE(q.ok());
  auto plan_text = engine_->ExplainQuery(*q);
  ASSERT_TRUE(plan_text.ok());
  EXPECT_NE(plan_text->find("SS["), std::string::npos);
  EXPECT_NE(plan_text->find("Source(HeartRate)"), std::string::npos);
  EXPECT_FALSE(engine_->ExplainQuery(999).ok());
}

TEST_F(EngineTest, StatefulAggregateQueryAcrossEpochs) {
  // Group-by state must persist across Run() epochs in the continuous
  // pipeline: counts keep growing as new epochs arrive.
  auto q = engine_->RegisterQuery(
      "dr_house",
      "SELECT patient_id, COUNT(*) FROM HeartRate [RANGE 100000] "
      "GROUP BY patient_id");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(engine_
                  ->ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = 1")
                  .ok());
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(120, 70, 1))}).ok());
  ASSERT_TRUE(engine_->Run().ok());
  auto epoch1 = engine_->TakeResults(*q);
  ASSERT_TRUE(epoch1.ok());
  ASSERT_EQ(epoch1->size(), 1u);
  EXPECT_EQ(epoch1->front().values[1], Value(int64_t{1}));

  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(120, 72, 2))}).ok());
  ASSERT_TRUE(engine_->Run().ok());
  auto epoch2 = engine_->TakeResults(*q);
  ASSERT_TRUE(epoch2.ok());
  ASSERT_EQ(epoch2->size(), 1u);
  EXPECT_EQ(epoch2->front().values[1], Value(int64_t{2}));  // state kept
}

TEST_F(EngineTest, DistinctQueryThroughEngine) {
  auto q = engine_->RegisterQuery(
      "dr_house",
      "SELECT DISTINCT patient_id FROM HeartRate [RANGE 100000]");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(engine_
                  ->ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = 1")
                  .ok());
  ASSERT_TRUE(engine_
                  ->Push("HeartRate", {StreamElement(Beat(120, 70, 1)),
                                       StreamElement(Beat(120, 71, 2)),
                                       StreamElement(Beat(121, 72, 3))})
                  .ok());
  ASSERT_TRUE(engine_->Run().ok());
  auto results = engine_->Results(*q);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 2u);  // 120 deduplicated
}

TEST_F(EngineTest, JoinQueryThroughEngine) {
  ASSERT_TRUE(engine_->RegisterStream(BodyTemperatureSchema()).ok());
  auto q = engine_->RegisterQuery(
      "dr_house",
      "SELECT HeartRate.patient_id, beats_per_min, temperature "
      "FROM HeartRate [RANGE 1000], BodyTemperature [RANGE 1000] "
      "WHERE HeartRate.patient_id = BodyTemperature.patient_id");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  for (const char* stream : {"HeartRate", "BodyTemperature"}) {
    ASSERT_TRUE(engine_
                    ->ExecuteInsertSp(std::string("INSERT SP INTO STREAM ") +
                                      stream + " LET DDP = (" + stream +
                                      ", *, *), SRP = (RBAC, GP), TS = 1")
                    .ok());
  }
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(120, 70, 2))}).ok());
  ASSERT_TRUE(engine_
                  ->Push("BodyTemperature",
                         {StreamElement(Tuple(
                             1, 120, {Value(int64_t{120}), Value(98.7)},
                             3))})
                  .ok());
  ASSERT_TRUE(engine_->Run().ok());
  auto results = engine_->Results(*q);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ(results->front().values.size(), 3u);
  EXPECT_DOUBLE_EQ(results->front().values[2].AsDouble(), 98.7);
}

TEST_F(EngineTest, SubscriptionDeliversResultsDuringRun) {
  auto q = engine_->RegisterQuery("dr_house",
                                  "SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(q.ok());
  std::vector<TupleId> pushed;
  ASSERT_TRUE(engine_
                  ->SubscribeResults(
                      *q, [&](const Tuple& t) { pushed.push_back(t.tid); })
                  .ok());
  ASSERT_TRUE(engine_
                  ->ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = 1")
                  .ok());
  ASSERT_TRUE(engine_
                  ->Push("HeartRate", {StreamElement(Beat(120, 70, 1)),
                                       StreamElement(Beat(121, 71, 2))})
                  .ok());
  ASSERT_TRUE(engine_->Run().ok());
  EXPECT_EQ(pushed, (std::vector<TupleId>{120, 121}));
  EXPECT_FALSE(engine_->SubscribeResults(99, [](const Tuple&) {}).ok());
}

TEST_F(EngineTest, WindowUnitsInCql) {
  auto stmt = ParseSelect(
      "SELECT patient_id, COUNT(*) FROM HeartRate [RANGE 2 MINUTES] "
      "GROUP BY patient_id");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(stmt->from[0].range.has_value());
  EXPECT_EQ(*stmt->from[0].range, 2 * 60 * 1000);
  auto secs = ParseSelect("SELECT patient_id FROM HeartRate [RANGE 30 "
                          "SECONDS]");
  ASSERT_TRUE(secs.ok());
  EXPECT_EQ(*secs->from[0].range, 30000);
  auto ms = ParseSelect("SELECT patient_id FROM HeartRate [RANGE 500 MS]");
  ASSERT_TRUE(ms.ok());
  EXPECT_EQ(*ms->from[0].range, 500);
}

TEST_F(EngineTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(engine_->RegisterQuery("ghost", "SELECT a FROM HeartRate")
                   .ok());
  EXPECT_FALSE(
      engine_->RegisterQuery("dr_house", "SELECT a FROM NoStream").ok());
  EXPECT_FALSE(engine_->Push("NoStream", {}).ok());
  EXPECT_FALSE(engine_
                   ->ExecuteInsertSp(
                       "INSERT SP INTO STREAM NoStream "
                       "LET DDP = (*,*,*), SRP = GP")
                   .ok());
  EXPECT_FALSE(engine_->Results(42).ok());
}

// A plan the shard router cannot partition runs on one pipeline; the
// fallback is audited under its own kind, not as a re-plan.
TEST(EngineShardFallbackTest, NonShardablePlanAuditsOneShardFallback) {
  EngineOptions opts;
  opts.num_shards = 2;
  SpStreamEngine engine(std::move(opts));
  engine.RegisterRole("R0");
  ASSERT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "A", {Field{"k", ValueType::kInt64},
                            Field{"v", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "B", {Field{"k", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine.RegisterSubject("alice", {"R0"}).ok());
  // DISTINCT on A.v needs a partition on v; the join needs one on k.
  auto q = engine.RegisterQuery(
      "alice",
      "SELECT DISTINCT A.v FROM A [RANGE 64], B [RANGE 64] WHERE A.k = B.k");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  for (int epoch = 0; epoch < 2; ++epoch) {
    ASSERT_TRUE(engine.Run().ok());
  }

  std::vector<AuditEvent> fallbacks;
  for (const AuditEvent& e : engine.audit()->Tail(engine.audit()->capacity())) {
    if (e.kind == AuditEventKind::kShardFallback) fallbacks.push_back(e);
  }
  ASSERT_EQ(fallbacks.size(), 1u);
  EXPECT_EQ(fallbacks[0].scope, "q" + std::to_string(*q));
  EXPECT_EQ(std::string(AuditEventKindName(fallbacks[0].kind)),
            "shard_fallback");
  EXPECT_EQ(engine.audit()->CountOf(AuditEventKind::kShardFallback), 1);
  EXPECT_EQ(engine.audit()->CountOf(AuditEventKind::kPlanAdapt), 0);
}

}  // namespace
}  // namespace spstream

// CAPE-style runtime adaptivity: the engine measures each epoch's streams
// and re-optimizes plans against the measured statistics.
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/engine.h"
#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;
using sptest::MakeTuple;

class AdaptiveEngineTest : public ::testing::Test {
 protected:
  std::unique_ptr<SpStreamEngine> MakeEngine(bool adaptive,
                                             bool share_plans = false) {
    EngineOptions opts;
    opts.adaptive = adaptive;
    opts.share_plans = share_plans;
    // Queries start post-filtered and unoptimized: only the measured
    // statistics (via adaptation) can justify moving the shield.
    opts.optimize_plans = false;
    opts.initial_placement = SsPlacement::kPostFilter;
    opts.cost_options.ss_selectivity = 1.0;
    auto engine = std::make_unique<SpStreamEngine>(opts);
    engine->RegisterRole("rare");
    engine->RegisterRole("common");
    EXPECT_TRUE(engine
                    ->RegisterStream(MakeSchema(
                        "A", {Field{"k", ValueType::kInt64},
                              Field{"v", ValueType::kInt64}}))
                    .ok());
    EXPECT_TRUE(engine
                    ->RegisterStream(MakeSchema(
                        "B", {Field{"k", ValueType::kInt64},
                              Field{"v", ValueType::kInt64}}))
                    .ok());
    return engine;
  }

  /// One epoch of both streams: `rare` appears in 5% of policies.
  void PushEpoch(SpStreamEngine* engine, uint64_t seed, Timestamp base_ts) {
    Rng rng(seed);
    auto rare = engine->roles()->Lookup("rare").value();
    auto common = engine->roles()->Lookup("common").value();
    for (const char* stream : {"A", "B"}) {
      std::vector<StreamElement> elements;
      Timestamp ts = base_ts;
      for (int seg = 0; seg < 50; ++seg) {
        std::vector<RoleId> policy = {common};
        if (rng.NextBool(0.05)) policy.push_back(rare);
        elements.emplace_back(MakeSp(stream, policy, ts));
        for (int i = 0; i < 4; ++i) {
          elements.emplace_back(
              MakeTuple(seg * 4 + i,
                        {static_cast<int64_t>(rng.NextBounded(20)),
                         static_cast<int64_t>(i)},
                        ts));
          ++ts;
        }
      }
      ASSERT_TRUE(engine->Push(stream, std::move(elements)).ok());
    }
  }
};

TEST_F(AdaptiveEngineTest, MeasuresStreamsAndAdaptsJoinPlan) {
  auto engine = MakeEngine(/*adaptive=*/true);
  ASSERT_TRUE(engine->RegisterSubject("vip", {"rare"}).ok());
  auto q = engine->RegisterQuery(
      "vip",
      "SELECT A.v, B.v FROM A [RANGE 50], B [RANGE 50] WHERE A.k = B.k");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  PushEpoch(engine.get(), 1, 1);
  ASSERT_TRUE(engine->Run().ok());

  // Statistics were measured...
  const StreamStatistics* stats = engine->measured_stats("A");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->tuples, 200u);
  auto rare = engine->roles()->Lookup("rare").value();
  ASSERT_TRUE(stats->role_match_fraction.count(rare));
  EXPECT_LT(stats->role_match_fraction.at(rare), 0.2);

  // ...and the rare-role shield moved off the root toward the sources
  // (its measured selectivity makes early filtering clearly profitable).
  ASSERT_GE(engine->adaptations(), 1);
  auto plan_text = engine->ExplainQuery(*q);
  ASSERT_TRUE(plan_text.ok());
  // Root of the adapted plan is no longer the shield.
  EXPECT_NE(plan_text->substr(0, 3), "SS[");

  // The adapted plan keeps producing correct results in later epochs.
  PushEpoch(engine.get(), 2, 1000);
  ASSERT_TRUE(engine->Run().ok());
}

TEST_F(AdaptiveEngineTest, AdaptiveAndStaticAgreeOnResults) {
  auto adaptive = MakeEngine(true);
  auto stat = MakeEngine(false);
  for (auto* engine : {adaptive.get(), stat.get()}) {
    ASSERT_TRUE(engine->RegisterSubject("vip", {"rare"}).ok());
  }
  const std::string sql =
      "SELECT A.v, B.v FROM A [RANGE 50], B [RANGE 50] WHERE A.k = B.k";
  auto q_a = adaptive->RegisterQuery("vip", sql);
  auto q_s = stat->RegisterQuery("vip", sql);
  ASSERT_TRUE(q_a.ok() && q_s.ok());

  for (uint64_t epoch = 0; epoch < 3; ++epoch) {
    PushEpoch(adaptive.get(), 10 + epoch, 1 + epoch * 5000);
    PushEpoch(stat.get(), 10 + epoch, 1 + epoch * 5000);
    ASSERT_TRUE(adaptive->Run().ok());
    ASSERT_TRUE(stat->Run().ok());
  }
  // Adaptation resets continuous state at epoch boundaries, which could
  // (only) lose cross-epoch join pairs; with windows (50) far smaller than
  // the epoch ts gap (5000), no pair spans epochs — so the result
  // *multisets* must match (plan shapes emit join pairs in different
  // orders, so compare canonicalized).
  auto canon = [](const std::vector<Tuple>& tuples) {
    std::vector<std::string> rows;
    rows.reserve(tuples.size());
    for (const Tuple& t : tuples) {
      std::string row = std::to_string(t.tid) + "@" + std::to_string(t.ts);
      for (const Value& v : t.values) row += "|" + v.ToString();
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(canon(*adaptive->Results(*q_a)), canon(*stat->Results(*q_s)));
}

// A member of a shared group runs the group's shared plan, not its own
// optimized one, so re-optimizing a member's plan leaves the group's DAG
// (and its windows and policies) running.
TEST_F(AdaptiveEngineTest, PlanSwapLeavesSharedGroupRunning) {
  auto engine = MakeEngine(/*adaptive=*/true, /*share_plans=*/true);
  ASSERT_TRUE(engine->RegisterSubject("vip", {"rare"}).ok());
  ASSERT_TRUE(engine->RegisterSubject("vip2", {"rare"}).ok());
  const std::string sql =
      "SELECT A.v, B.v FROM A [RANGE 50], B [RANGE 50] WHERE A.k = B.k";
  auto q = engine->RegisterQuery("vip", sql);
  ASSERT_TRUE(q.ok() && engine->RegisterQuery("vip2", sql).ok());

  PushEpoch(engine.get(), 1, 1);
  ASSERT_TRUE(engine->Run().ok());
  ASSERT_GE(engine->adaptations(), 1);
  auto analyzed = engine->ExplainQuery(*q, /*analyze=*/true);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed->find("[actual:"), std::string::npos) << *analyzed;
}

TEST_F(AdaptiveEngineTest, NoAdaptationWithoutMeasurements) {
  auto engine = MakeEngine(true);
  ASSERT_TRUE(engine->RegisterSubject("vip", {"rare"}).ok());
  auto q = engine->RegisterQuery("vip", "SELECT v FROM A");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine->Run().ok());  // nothing pushed
  EXPECT_EQ(engine->adaptations(), 0);
  EXPECT_EQ(engine->measured_stats("A"), nullptr);
}

}  // namespace
}  // namespace spstream

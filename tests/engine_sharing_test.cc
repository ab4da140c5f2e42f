// Multi-query sharing inside the engine (§VI.C as a feature): a shared
// query group runs one long-lived DAG (merged SS → shared subplan → one
// split SS per query) and must be output-identical to per-query pipelines,
// across epochs, shard counts and batch sizes.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "engine/engine.h"
#include "test_util.h"
#include "workload/moving_objects.h"
#include "workload/road_network.h"

namespace spstream {
namespace {

std::vector<StreamElement> LocationElements(RoleCatalog* roles) {
  MovingObjectsOptions opts;
  opts.num_objects = 100;
  opts.num_updates = 1500;
  opts.tuples_per_sp = 10;
  opts.roles_per_policy = 2;
  opts.role_pool = 12;
  opts.seed = 5;
  MovingObjectsGenerator gen(roles, RoadNetwork::Grid({}), opts);
  return gen.Generate();
}

/// Split `elements` into `n` epochs of about equal size. Every epoch after
/// the first opens with the tuples of a block whose sp was admitted in the
/// previous epoch, so they are governed by a policy from an earlier epoch.
std::vector<std::vector<StreamElement>> SplitEpochs(
    const std::vector<StreamElement>& elements, size_t n) {
  std::vector<std::vector<StreamElement>> epochs;
  size_t begin = 0;
  for (size_t e = 1; e <= n; ++e) {
    size_t end = elements.size() * e / n;
    while (end < elements.size() &&
           !(elements[end].is_tuple() && elements[end - 1].is_sp())) {
      ++end;
    }
    epochs.emplace_back(elements.begin() + begin, elements.begin() + end);
    begin = end;
  }
  return epochs;
}

/// Timestamps of the tuples that open each epoch after the first, ahead of
/// the epoch's first sp.
std::set<Timestamp> CarriedOverTimestamps(
    const std::vector<std::vector<StreamElement>>& epochs) {
  std::set<Timestamp> out;
  for (size_t e = 1; e < epochs.size(); ++e) {
    for (const StreamElement& elem : epochs[e]) {
      if (!elem.is_tuple()) break;
      out.insert(elem.ts());
    }
  }
  return out;
}

struct Engines {
  std::unique_ptr<SpStreamEngine> engine;
  std::vector<QueryId> queries;
};

/// Three subjects share one plan; a fourth query with a DIFFERENT shape
/// shares with nobody.
Engines MakeEngines(EngineOptions opts) {
  opts.optimize_plans = false;  // keep plan shapes identical across modes
  Engines s;
  s.engine = std::make_unique<SpStreamEngine>(opts);
  // The generator uses roles r1..r12; register them in catalog order so
  // the resolved sps align with engine roles.
  MovingObjectsGenerator::SeedRoles(s.engine->roles(), 12);
  EXPECT_TRUE(
      s.engine
          ->RegisterStream(MovingObjectsGenerator::LocationSchema("Location"))
          .ok());
  EXPECT_TRUE(s.engine->RegisterSubject("alice", {"r1"}).ok());
  EXPECT_TRUE(s.engine->RegisterSubject("bob", {"r5"}).ok());
  EXPECT_TRUE(s.engine->RegisterSubject("carol", {"r5", "r9"}).ok());
  const std::string sql = "SELECT object_id, x FROM Location WHERE speed > 12";
  for (const char* who : {"alice", "bob", "carol"}) {
    auto q = s.engine->RegisterQuery(who, sql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    s.queries.push_back(*q);
  }
  auto q4 = s.engine->RegisterQuery(
      "alice", "SELECT object_id FROM Location WHERE speed > 25");
  EXPECT_TRUE(q4.ok());
  s.queries.push_back(*q4);
  return s;
}

std::multiset<std::string> Multiset(const std::vector<Tuple>& ts) {
  std::multiset<std::string> out;
  for (const Tuple& t : ts) out.insert(t.ToString());
  return out;
}

/// (num_shards, batch_size, ss_mask_attributes)
class EngineSharingTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, bool>> {};

// The multi-epoch oracle: policies admitted in one epoch must keep
// governing the shared group's tuples in the next, exactly as they do for
// per-query pipelines.
TEST_P(EngineSharingTest, SharedAndSoloModesAgree) {
  const auto [num_shards, batch_size, mask] = GetParam();
  EngineOptions opts;
  opts.num_shards = num_shards;
  opts.batch_size = batch_size;
  opts.physical.ss_mask_attributes = mask;
  Engines solo = MakeEngines(opts);
  opts.share_plans = true;
  Engines shared = MakeEngines(opts);

  const auto epochs = SplitEpochs(LocationElements(solo.engine->roles()), 6);
  ASSERT_EQ(epochs.size(), 6u);
  for (size_t e = 0; e < epochs.size(); ++e) {
    ASSERT_TRUE(e == 0 || !epochs[e].front().is_sp()) << "epoch " << e;
    ASSERT_TRUE(solo.engine->Push("Location", epochs[e]).ok());
    ASSERT_TRUE(shared.engine->Push("Location", epochs[e]).ok());
    ASSERT_TRUE(solo.engine->Run().ok());
    ASSERT_TRUE(shared.engine->Run().ok());
  }

  const std::set<Timestamp> carried = CarriedOverTimestamps(epochs);
  size_t carried_results = 0;
  for (size_t i = 0; i < solo.queries.size(); ++i) {
    auto a = solo.engine->Results(solo.queries[i]);
    auto b = shared.engine->Results(shared.queries[i]);
    ASSERT_TRUE(a.ok() && b.ok());
    if (num_shards == 1) {
      EXPECT_EQ(*a, *b) << "query " << i;
    } else {
      EXPECT_EQ(Multiset(*a), Multiset(*b)) << "query " << i;
    }
    for (const Tuple& t : *a) carried_results += carried.count(t.ts);
  }
  // Some results must owe their delivery to a policy from an earlier
  // epoch, or the oracle would not test policy persistence at all.
  EXPECT_GT(carried_results, 0u) << "degenerate workload";
}

INSTANTIATE_TEST_SUITE_P(
    ShardsBatchMask, EngineSharingTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4}),
                       ::testing::Values(size_t{1}, size_t{64}),
                       ::testing::Bool()));

TEST(EngineSharingGroupTest, SharingSurvivesRoleUpdate) {
  EngineOptions opts;
  opts.share_plans = true;
  Engines shared = MakeEngines(opts);
  auto elements = LocationElements(shared.engine->roles());
  ASSERT_TRUE(shared.engine->UpdateSubjectRoles("bob", {"r2"}).ok());
  ASSERT_TRUE(shared.engine->Push("Location", elements).ok());
  ASSERT_TRUE(shared.engine->Run().ok());
  // Bob's results must correspond to r2 now: every result tuple's object
  // must have carried r2 in its governing policy. Cross-check against a
  // fresh engine whose bob starts as r2.
  EngineOptions ref_opts;
  ref_opts.optimize_plans = false;
  SpStreamEngine ref(ref_opts);
  MovingObjectsGenerator::SeedRoles(ref.roles(), 12);
  ASSERT_TRUE(
      ref.RegisterStream(MovingObjectsGenerator::LocationSchema("Location"))
          .ok());
  ASSERT_TRUE(ref.RegisterSubject("bob", {"r2"}).ok());
  auto rq = ref.RegisterQuery(
      "bob", "SELECT object_id, x FROM Location WHERE speed > 12");
  ASSERT_TRUE(rq.ok());
  ASSERT_TRUE(ref.Push("Location", LocationElements(ref.roles())).ok());
  ASSERT_TRUE(ref.Run().ok());
  EXPECT_EQ(*shared.engine->Results(shared.queries[1]), *ref.Results(*rq));
}

std::vector<StreamElement> Tuples(TupleId first_tid, Timestamp first_ts,
                                  size_t n) {
  std::vector<StreamElement> out;
  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(sptest::MakeTuple(first_tid + static_cast<TupleId>(i),
                                       {static_cast<int64_t>(i)},
                                       first_ts + static_cast<Timestamp>(i)));
  }
  return out;
}

/// Regression: a query that leaves a shared group must not resume an older
/// pipeline with the policy state it held before the group formed. Bob's
/// sp (granting R1 only) superseded alice's grant, so after bob leaves,
/// alice's sp-less tuples stay denied — as with per-query pipelines.
size_t AliceResultsAfterBobLeaves(bool share) {
  EngineOptions opts;
  opts.share_plans = share;
  SpStreamEngine engine(opts);
  const RoleId r0 = engine.RegisterRole("R0");
  const RoleId r1 = engine.RegisterRole("R1");
  EXPECT_TRUE(
      engine.RegisterStream(MakeSchema("A", {Field{"k", ValueType::kInt64}}))
          .ok());
  EXPECT_TRUE(engine.RegisterSubject("alice", {"R0"}).ok());
  EXPECT_TRUE(engine.RegisterSubject("bob", {"R1"}).ok());
  auto alice = engine.RegisterQuery("alice", "SELECT k FROM A");
  EXPECT_TRUE(alice.ok());

  // Epoch 1: alice alone, an sp granting R0.
  std::vector<StreamElement> e1 = {StreamElement(sptest::MakeSp("A", {r0}, 1))};
  for (StreamElement& t : Tuples(0, 2, 4)) e1.push_back(std::move(t));
  EXPECT_TRUE(engine.Push("A", std::move(e1)).ok());
  EXPECT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.TakeResults(*alice)->size(), 4u);

  // Epoch 2: bob joins; the sp now grants R1 only.
  auto bob = engine.RegisterQuery("bob", "SELECT k FROM A");
  EXPECT_TRUE(bob.ok());
  std::vector<StreamElement> e2 = {
      StreamElement(sptest::MakeSp("A", {r1}, 10))};
  for (StreamElement& t : Tuples(10, 11, 4)) e2.push_back(std::move(t));
  EXPECT_TRUE(engine.Push("A", std::move(e2)).ok());
  EXPECT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.TakeResults(*alice)->size(), 0u);
  EXPECT_EQ(engine.TakeResults(*bob)->size(), 4u);

  // Epoch 3: bob leaves; tuples with no fresh sp.
  EXPECT_TRUE(engine.DeregisterQuery(*bob).ok());
  EXPECT_TRUE(engine.Push("A", Tuples(20, 20, 4)).ok());
  EXPECT_TRUE(engine.Run().ok());
  return engine.TakeResults(*alice)->size();
}

TEST(EngineSharingGroupTest, LeavingGroupDoesNotResurrectStalePolicy) {
  EXPECT_EQ(AliceResultsAfterBobLeaves(/*share=*/false), 0u);
  EXPECT_EQ(AliceResultsAfterBobLeaves(/*share=*/true), 0u)
      << "alice delivered under a policy bob's sp had superseded";
}

// EXPLAIN ANALYZE of a shared member renders live counters for the shared
// trunk and for the member's own split shield.
TEST(EngineSharingGroupTest, ExplainAnalyzeShowsTrunkAndSplitShield) {
  EngineOptions opts;
  opts.share_plans = true;
  Engines shared = MakeEngines(opts);
  ASSERT_TRUE(shared.engine
                  ->Push("Location",
                         LocationElements(shared.engine->roles()))
                  .ok());
  ASSERT_TRUE(shared.engine->Run().ok());

  auto explained = shared.engine->ExplainQuery(shared.queries[1], true);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  const std::string& out = *explained;
  EXPECT_EQ(out.find("has not executed"), std::string::npos) << out;
  // Line 0 is bob's split shield (his role only); below it the trunk:
  // project, select, the merged shield (every member's roles), the source.
  std::vector<std::string> lines;
  for (size_t pos = 0; pos < out.size();) {
    const size_t nl = out.find('\n', pos);
    lines.push_back(out.substr(pos, nl - pos));
    pos = nl == std::string::npos ? out.size() : nl + 1;
  }
  ASSERT_GE(lines.size(), 5u) << out;
  EXPECT_EQ(lines[0].rfind("SS[", 0), 0u) << out;
  for (const char* node : {"SS[", "Project", "Select"}) {
    bool annotated = false;
    for (size_t i = 1; i < lines.size(); ++i) {
      annotated |= lines[i].find(node) != std::string::npos &&
                   lines[i].find("[actual: ") != std::string::npos;
    }
    EXPECT_TRUE(annotated) << "trunk node " << node << " not annotated\n"
                           << out;
  }
  EXPECT_NE(lines[0].find("[actual: "), std::string::npos) << out;
}

}  // namespace
}  // namespace spstream

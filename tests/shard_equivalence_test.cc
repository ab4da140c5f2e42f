// Differential-oracle suite for the sharded execution engine.
//
// The invariant under test: for every query whose plan admits a hash
// partition, an N-shard engine produces exactly the same result MULTISET as
// the 1-shard (single-threaded) engine over the same input — sps broadcast
// to every shard make each clone's policy state converge, and key
// partitioning co-locates all tuples relevant to each piece of stateful
// operator state. ~50 seeded random workloads mix security punctuations,
// runtime role churn, equijoins with sliding windows, group-by and
// distinct, so the oracle covers every stateful operator the planner can
// emit. Seeds are fixed: a failure reproduces exactly (docs/TESTING.md).
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "exec/shard_router.h"
#include "test_util.h"

namespace spstream {
namespace {

constexpr size_t kRolePool = 6;

// One randomly generated engine workload, fully determined by its seed:
// identical calls are replayed against the oracle and the sharded engine.
class WorkloadDriver {
 public:
  WorkloadDriver(uint64_t seed, size_t num_shards) : rng_(seed) {
    oracle_ = MakeEngine(1);
    sharded_ = MakeEngine(num_shards);
  }

  void RegisterQueries() {
    static const char* kQueryPool[] = {
        "SELECT k, v FROM A",
        "SELECT k FROM A WHERE v > 40",
        "SELECT DISTINCT k FROM A [RANGE 64]",
        "SELECT k, COUNT(*) FROM A [RANGE 64] GROUP BY k",
        "SELECT k, SUM(v) FROM A [RANGE 48] GROUP BY k",
        "SELECT A.v FROM A [RANGE 80], B [RANGE 80] WHERE A.k = B.k",
        "SELECT A.k, B.u FROM A [RANGE 64], B [RANGE 64] WHERE A.k = B.k",
        "SELECT u FROM B WHERE u > 10",
    };
    const size_t n = 1 + rng_.NextBounded(3);
    for (size_t i = 0; i < n; ++i) {
      const char* sql = kQueryPool[rng_.NextBounded(std::size(kQueryPool))];
      const std::string subject =
          subjects_[rng_.NextBounded(subjects_.size())];
      auto q1 = oracle_->RegisterQuery(subject, sql);
      auto q2 = sharded_->RegisterQuery(subject, sql);
      ASSERT_TRUE(q1.ok()) << sql << ": " << q1.status().ToString();
      ASSERT_TRUE(q2.ok()) << sql << ": " << q2.status().ToString();
      ASSERT_EQ(*q1, *q2);
      query_ids_.push_back(*q1);
      query_sql_.push_back(sql);
    }
  }

  void RunEpochs() {
    const size_t epochs = 3 + rng_.NextBounded(4);
    for (size_t e = 0; e < epochs; ++e) {
      MaybeChurnRoles();
      PushStream("A", /*cols=*/3, 40 + rng_.NextBounded(120));
      PushStream("B", /*cols=*/2, 30 + rng_.NextBounded(80));
      ASSERT_TRUE(oracle_->Run().ok());
      ASSERT_TRUE(sharded_->Run().ok());
      CompareResults(e);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  bool HasJoin() const {
    for (const std::string& sql : query_sql_) {
      if (sql.find("A.k = B.k") != std::string::npos) return true;
    }
    return false;
  }

  int64_t ShardWorkers() {
    return sharded_->SnapshotMetrics().gauges.at("engine.shard_workers");
  }

 private:
  std::unique_ptr<SpStreamEngine> MakeEngine(size_t num_shards) {
    EngineOptions opts;
    opts.num_shards = num_shards;
    auto engine = std::make_unique<SpStreamEngine>(std::move(opts));
    for (size_t r = 0; r < kRolePool; ++r) {
      engine->RegisterRole("R" + std::to_string(r));
    }
    EXPECT_TRUE(engine
                    ->RegisterStream(MakeSchema(
                        "A", {Field{"k", ValueType::kInt64},
                              Field{"v", ValueType::kInt64},
                              Field{"w", ValueType::kInt64}}))
                    .ok());
    EXPECT_TRUE(engine
                    ->RegisterStream(MakeSchema(
                        "B", {Field{"k", ValueType::kInt64},
                              Field{"u", ValueType::kInt64}}))
                    .ok());
    if (subjects_.empty()) {
      subjects_ = {"alice", "bob"};
      subject_roles_.resize(subjects_.size());
    }
    // Same role draw for both engines: draw once, cache, replay.
    for (size_t s = 0; s < subjects_.size(); ++s) {
      if (subject_roles_[s].empty()) subject_roles_[s] = RandomRoleNames();
      EXPECT_TRUE(
          engine->RegisterSubject(subjects_[s], subject_roles_[s]).ok());
    }
    return engine;
  }

  std::vector<std::string> RandomRoleNames() {
    std::vector<std::string> out;
    const size_t n = 1 + rng_.NextBounded(3);
    for (size_t i = 0; i < n; ++i) {
      out.push_back("R" + std::to_string(rng_.NextBounded(kRolePool)));
    }
    return out;
  }

  void MaybeChurnRoles() {
    if (!rng_.NextBool(0.3)) return;
    const size_t s = rng_.NextBounded(subjects_.size());
    const std::vector<std::string> roles = RandomRoleNames();
    const Status s1 = oracle_->UpdateSubjectRoles(subjects_[s], roles);
    const Status s2 = sharded_->UpdateSubjectRoles(subjects_[s], roles);
    ASSERT_EQ(s1.ok(), s2.ok());
  }

  // A punctuated random segment of `stream`: policy changes every few
  // tuples, keys drawn from a small range so joins/groups collide across
  // shard boundaries.
  void PushStream(const std::string& stream, int cols, size_t n) {
    std::vector<StreamElement> elems;
    Timestamp& ts = stream_ts_[stream];
    TupleId& tid = stream_tid_[stream];
    size_t emitted = 0;
    while (emitted < n) {
      std::vector<RoleId> roles;
      const size_t nr = 1 + rng_.NextBounded(2);
      for (size_t i = 0; i < nr; ++i) {
        roles.push_back(static_cast<RoleId>(rng_.NextBounded(kRolePool)));
      }
      elems.emplace_back(sptest::MakeSp(stream, roles, ts,
                                        rng_.NextBool(0.15)
                                            ? Sign::kNegative
                                            : Sign::kPositive));
      const size_t seg = 1 + rng_.NextBounded(8);
      for (size_t i = 0; i < seg && emitted < n; ++i, ++emitted) {
        std::vector<int64_t> vals;
        vals.push_back(static_cast<int64_t>(rng_.NextBounded(8)));  // key
        for (int c = 1; c < cols; ++c) {
          vals.push_back(static_cast<int64_t>(rng_.NextBounded(100)));
        }
        elems.emplace_back(sptest::MakeTuple(tid++, vals, ts));
        ts += 1 + rng_.NextBounded(3);
      }
    }
    std::vector<StreamElement> copy = elems;
    ASSERT_TRUE(oracle_->Push(stream, std::move(elems)).ok());
    ASSERT_TRUE(sharded_->Push(stream, std::move(copy)).ok());
  }

  static std::multiset<std::string> Multiset(const std::vector<Tuple>& ts) {
    std::multiset<std::string> out;
    for (const Tuple& t : ts) out.insert(t.ToString());
    return out;
  }

  void CompareResults(size_t epoch) {
    for (size_t i = 0; i < query_ids_.size(); ++i) {
      auto expect = oracle_->Results(query_ids_[i]);
      auto actual = sharded_->Results(query_ids_[i]);
      ASSERT_TRUE(expect.ok() && actual.ok());
      ASSERT_EQ(Multiset(*expect), Multiset(*actual))
          << "epoch " << epoch << " query " << query_sql_[i] << " ("
          << expect->size() << " vs " << actual->size() << " tuples)";
    }
  }

  Rng rng_;
  std::vector<std::string> subjects_;
  std::vector<std::vector<std::string>> subject_roles_;
  std::unique_ptr<SpStreamEngine> oracle_;
  std::unique_ptr<SpStreamEngine> sharded_;
  std::vector<QueryId> query_ids_;
  std::vector<std::string> query_sql_;
  std::map<std::string, Timestamp> stream_ts_;
  std::map<std::string, TupleId> stream_tid_;
};

class ShardEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardEquivalenceTest, RandomWorkloadMatchesOracle) {
  const uint64_t seed = GetParam();
  // Vary the shard count with the seed: 2, 3 and 4-way partitions.
  const size_t num_shards = 2 + seed % 3;
  WorkloadDriver driver(seed, num_shards);
  driver.RegisterQueries();
  if (::testing::Test::HasFatalFailure()) return;
  driver.RunEpochs();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 51));

// The same oracle with the sharded engine built pinned to one CPU: no
// worker thread starts and the engine thread feeds every clone. The seeds
// are the 15 join-bearing ones among the 50 above.
class OneCpuShardEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(OneCpuShardEquivalenceTest, JoinWorkloadMatchesOracle) {
  const uint64_t seed = GetParam();
  const size_t num_shards = 2 + seed % 3;
  std::unique_ptr<WorkloadDriver> driver;
  {
    sptest::ScopedSingleCpu pin;
    ASSERT_TRUE(pin.pinned());
    driver = std::make_unique<WorkloadDriver>(seed, num_shards);
  }
  ASSERT_EQ(driver->ShardWorkers(), 0);
  driver->RegisterQueries();
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(driver->HasJoin()) << "seed " << seed << " has no join";
  driver->RunEpochs();
}

INSTANTIATE_TEST_SUITE_P(JoinSeeds, OneCpuShardEquivalenceTest,
                         ::testing::Values<uint64_t>(4, 8, 9, 16, 18, 23, 24,
                                                     25, 26, 29, 30, 41, 42,
                                                     43, 49));

// -- Targeted (non-random) coverage -----------------------------------------

TEST(ShardRoutingTest, SimpleScanPartitionsByTupleId) {
  auto plan = LogicalNode::Source(
      "A", MakeSchema("A", {Field{"k", ValueType::kInt64}}));
  const ShardRouting r = AnalyzeShardRouting(plan);
  ASSERT_TRUE(r.shardable);
  ASSERT_EQ(r.leaf_keys.size(), 1u);
  EXPECT_EQ(r.leaf_keys[0].key_col, LeafShardKey::kByTupleId);
}

TEST(ShardRoutingTest, JoinPartitionsBothSidesOnJoinKeys) {
  auto a = LogicalNode::Source(
      "A", MakeSchema("A", {Field{"k", ValueType::kInt64},
                            Field{"v", ValueType::kInt64}}));
  auto b = LogicalNode::Source(
      "B", MakeSchema("B", {Field{"u", ValueType::kInt64},
                            Field{"k", ValueType::kInt64}}));
  auto join = LogicalNode::Join(0, 1, /*window=*/100, a, b);
  const ShardRouting r = AnalyzeShardRouting(join);
  ASSERT_TRUE(r.shardable);
  ASSERT_EQ(r.leaf_keys.size(), 2u);
  EXPECT_EQ(r.leaf_keys[0].key_col, 0);
  EXPECT_EQ(r.leaf_keys[1].key_col, 1);
}

TEST(ShardRoutingTest, ConflictingKeysFallBack) {
  // DISTINCT on a non-key column of a join output: the distinct key (col 1,
  // A.v) cannot coincide with the join partition (col 0, A.k).
  auto a = LogicalNode::Source(
      "A", MakeSchema("A", {Field{"k", ValueType::kInt64},
                            Field{"v", ValueType::kInt64}}));
  auto b = LogicalNode::Source(
      "B", MakeSchema("B", {Field{"k", ValueType::kInt64}}));
  auto join = LogicalNode::Join(0, 0, /*window=*/100, a, b);
  auto distinct = LogicalNode::Distinct(1, /*window=*/100, join);
  const ShardRouting r = AnalyzeShardRouting(distinct);
  EXPECT_FALSE(r.shardable);
  EXPECT_FALSE(r.reason.empty());
}

TEST(ShardOfTest, DeterministicAndInRange) {
  const LeafShardKey by_col{0};
  const LeafShardKey by_tid{LeafShardKey::kByTupleId};
  for (int64_t v = 0; v < 64; ++v) {
    const Tuple t = sptest::MakeTuple(static_cast<TupleId>(v), {v}, v);
    const size_t s = ShardOf(t, by_col, 4);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, ShardOf(t, by_col, 4));  // stable
    EXPECT_LT(ShardOf(t, by_tid, 3), 3u);
  }
  // Equal key values land on the same shard regardless of other columns.
  const Tuple t1 = sptest::MakeTuple(1, {42, 7}, 10);
  const Tuple t2 = sptest::MakeTuple(99, {42, 123}, 500);
  EXPECT_EQ(ShardOf(t1, by_col, 8), ShardOf(t2, by_col, 8));
}

TEST(ShardedEngineTest, ExplainAnalyzeShowsPerShardRows) {
  EngineOptions opts;
  opts.num_shards = 4;
  SpStreamEngine engine(std::move(opts));
  engine.RegisterRole("R0");
  ASSERT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "A", {Field{"k", ValueType::kInt64},
                            Field{"v", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine.RegisterSubject("alice", {"R0"}).ok());
  auto q = engine.RegisterQuery("alice", "SELECT k, v FROM A");
  ASSERT_TRUE(q.ok());

  std::vector<StreamElement> elems;
  elems.emplace_back(sptest::MakeSp("A", {0}, 1));
  for (TupleId i = 0; i < 64; ++i) {
    elems.emplace_back(sptest::MakeTuple(i, {static_cast<int64_t>(i % 8), 1},
                                         static_cast<Timestamp>(2 + i)));
  }
  ASSERT_TRUE(engine.Push("A", std::move(elems)).ok());
  ASSERT_TRUE(engine.Run().ok());
  ASSERT_EQ(engine.Results(*q)->size(), 64u);

  auto explain = engine.ExplainQuery(*q, /*analyze=*/true);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("shards: 4"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("workers: "), std::string::npos) << *explain;
  EXPECT_NE(explain->find("shard 0:"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("shard 3:"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("policy_installs"), std::string::npos) << *explain;

  // Per-shard registry keys and engine gauges exist after a sharded run.
  const std::string metrics = engine.DumpMetrics(MetricsFormat::kJson);
  EXPECT_NE(metrics.find("q0.shard0"), std::string::npos);
  EXPECT_NE(metrics.find("engine.shard0.tuples_processed"),
            std::string::npos);
}

// engine.shard_workers is 0 when the engine was built on one CPU (the
// engine thread feeds every shard) and one per shard otherwise. Either way
// the query records one tuple-latency sample per tuple fed.
TEST(ShardedEngineTest, ShardWorkersFollowUsableCpusAndRecordTupleLatency) {
  auto workers_of = [](bool one_cpu) {
    std::optional<sptest::ScopedSingleCpu> pin;
    if (one_cpu) pin.emplace();
    EngineOptions opts;
    opts.num_shards = 3;
    SpStreamEngine engine(std::move(opts));
    engine.RegisterRole("R0");
    EXPECT_TRUE(engine
                    .RegisterStream(MakeSchema(
                        "A", {Field{"k", ValueType::kInt64}}))
                    .ok());
    EXPECT_TRUE(engine.RegisterSubject("alice", {"R0"}).ok());
    auto q = engine.RegisterQuery("alice", "SELECT k FROM A");
    EXPECT_TRUE(q.ok());
    if (!q.ok()) return int64_t{-1};
    std::vector<StreamElement> elems;
    elems.emplace_back(sptest::MakeSp("A", {0}, 1));
    for (TupleId i = 0; i < 150; ++i) {
      elems.emplace_back(sptest::MakeTuple(i, {static_cast<int64_t>(i)},
                                           static_cast<Timestamp>(2 + i)));
    }
    EXPECT_TRUE(engine.Push("A", std::move(elems)).ok());
    EXPECT_TRUE(engine.Run().ok());
    EXPECT_EQ(engine.Results(*q)->size(), 150u);
    const MetricsSnapshot snap = engine.SnapshotMetrics();
    const QueryMetricsSnapshot* qs = snap.FindQuery("q0");
    EXPECT_EQ(qs != nullptr ? qs->tuple_latency.count : -1, 150);
    auto explain = engine.ExplainQuery(*q, /*analyze=*/true);
    EXPECT_TRUE(explain.ok());
    if (!explain.ok()) return int64_t{-1};
    const int64_t gauge =
        engine.SnapshotMetrics().gauges.at("engine.shard_workers");
    EXPECT_NE(explain->find("workers: " + std::to_string(gauge)),
              std::string::npos)
        << *explain;
    return gauge;
  };
  EXPECT_EQ(workers_of(/*one_cpu=*/true), 0);
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(workers_of(/*one_cpu=*/false), CPU_COUNT(&set) >= 2 ? 3 : 0);
}

TEST(ShardedEngineTest, ShardedResultsSurviveRoleChurnRebuild) {
  EngineOptions opts;
  opts.num_shards = 2;
  SpStreamEngine engine(std::move(opts));
  engine.RegisterRole("R0");
  engine.RegisterRole("R1");
  ASSERT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "A", {Field{"k", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine.RegisterSubject("alice", {"R0"}).ok());
  auto q = engine.RegisterQuery("alice", "SELECT k FROM A");
  ASSERT_TRUE(q.ok());

  ASSERT_TRUE(engine
                  .Push("A", {StreamElement(sptest::MakeSp("A", {0}, 1)),
                              StreamElement(sptest::MakeTuple(0, {5}, 2))})
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.Results(*q)->size(), 1u);

  // Role churn rebuilds the shard pipelines; accumulated results persist
  // and the new shield takes over from the next epoch.
  ASSERT_TRUE(engine.UpdateSubjectRoles("alice", {"R1"}).ok());
  ASSERT_TRUE(engine
                  .Push("A", {StreamElement(sptest::MakeSp("A", {0}, 10)),
                              StreamElement(sptest::MakeTuple(1, {6}, 11))})
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  // The new role set (R1) is not granted by the sp (role 0): no new rows.
  EXPECT_EQ(engine.Results(*q)->size(), 1u);
}

}  // namespace
}  // namespace spstream

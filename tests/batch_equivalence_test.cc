// Differential-oracle suite for the micro-batched execution path.
//
// The invariant under test is stricter than the shard oracle's: for ANY
// batch size, the engine produces exactly the same result SEQUENCE — not
// just multiset — as a batch-size-1 (per-element) engine over the same
// input. Batching is transport-only: collect-mode Emit preserves per-edge
// element order, sp boundaries ride inline in batches, and the SS
// policy-match memo is invalidated by every arriving sp, so no batch size
// or sp interleaving may reorder, drop, or duplicate a single tuple.
// Workloads are seeded-random (replayable) and sweep select / project /
// join / group-by / distinct plans with interleaved positive and negative
// sps and runtime role churn, in both single-threaded and 4-shard
// configurations (the sharded merge is deterministic, so sequences must
// match there too).
//
// CI runs this suite under ASan at SPSTREAM_BATCH_SIZE ∈ {1, 64, 1024};
// the env var restricts the sweep to that one size.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "exec/plan_builder.h"
#include "exec/reorder.h"
#include "exec/sa_groupby.h"
#include "exec/sa_project.h"
#include "exec/sa_select.h"
#include "exec/ss_operator.h"
#include "test_util.h"

namespace spstream {
namespace {

constexpr size_t kRolePool = 6;

std::vector<size_t> BatchSizesUnderTest() {
  if (const char* env = std::getenv("SPSTREAM_BATCH_SIZE")) {
    const size_t size = static_cast<size_t>(std::strtoull(env, nullptr, 10));
    if (size > 0) return {size};
  }
  return {2, 7, 64, 1024};
}

// One randomly generated engine workload, fully determined by its seed:
// identical calls are replayed against the per-element oracle and the
// batched subject engine.
class BatchWorkloadDriver {
 public:
  /// `hardened` switches to the columnar-hostile workload: string-keyed
  /// streams C/D, null-heavy values, attribute-granular sps with SS
  /// masking enabled — the fields the SoA layer represents via validity
  /// bits and the string arena instead of inline Values.
  BatchWorkloadDriver(uint64_t seed, size_t batch_size, size_t num_shards,
                      bool hardened = false)
      : rng_(seed), hardened_(hardened) {
    oracle_ = MakeEngine(/*batch_size=*/1, num_shards);
    batched_ = MakeEngine(batch_size, num_shards);
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
    // Null-heavy / masking-heavy / string-keyed pool: string equijoins,
    // distinct over the string key, selections over nullable columns.
    static const char* kHardenedPool[] = {
        "SELECT sk, s, x FROM C",
        "SELECT x FROM C WHERE x > 40",
        "SELECT DISTINCT sk FROM C [RANGE 64]",
        "SELECT C.s FROM C [RANGE 80], D [RANGE 80] WHERE C.sk = D.sk",
        "SELECT C.sk, D.y FROM C [RANGE 64], D [RANGE 64] WHERE C.sk = D.sk",
        "SELECT y FROM D WHERE y > 10",
    };
    const size_t n = 1 + rng_.NextBounded(3);
    for (size_t i = 0; i < n; ++i) {
      const char* sql =
          hardened_
              ? kHardenedPool[rng_.NextBounded(std::size(kHardenedPool))]
              : kQueryPool[rng_.NextBounded(std::size(kQueryPool))];
      const std::string subject =
          subjects_[rng_.NextBounded(subjects_.size())];
      auto q1 = oracle_->RegisterQuery(subject, sql);
      auto q2 = batched_->RegisterQuery(subject, sql);
      ASSERT_TRUE(q1.ok()) << sql << ": " << q1.status().ToString();
      ASSERT_TRUE(q2.ok()) << sql << ": " << q2.status().ToString();
      ASSERT_EQ(*q1, *q2);
      query_ids_.push_back(*q1);
      query_sql_.push_back(sql);
    }
  }

  void RunEpochs() {
    const size_t epochs = 3 + rng_.NextBounded(3);
    for (size_t e = 0; e < epochs; ++e) {
      MaybeChurnRoles();
      if (hardened_) {
        PushStream("C", /*cols=*/3, 40 + rng_.NextBounded(120));
        PushStream("D", /*cols=*/2, 30 + rng_.NextBounded(80));
      } else {
        PushStream("A", /*cols=*/3, 40 + rng_.NextBounded(120));
        PushStream("B", /*cols=*/2, 30 + rng_.NextBounded(80));
      }
      ASSERT_TRUE(oracle_->Run().ok());
      ASSERT_TRUE(batched_->Run().ok());
      CompareResults(e);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

 private:
  std::unique_ptr<SpStreamEngine> MakeEngine(size_t batch_size,
                                             size_t num_shards) {
    EngineOptions opts;
    opts.batch_size = batch_size;
    opts.num_shards = num_shards;
    // The hardened workload ships attribute-granular sps: masking must be
    // on so they rewrite tuples (validity bits in the columnar form).
    opts.physical.ss_mask_attributes = hardened_;
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
    EXPECT_TRUE(engine
                    ->RegisterStream(MakeSchema(
                        "C", {Field{"sk", ValueType::kString},
                              Field{"s", ValueType::kString},
                              Field{"x", ValueType::kInt64}}))
                    .ok());
    EXPECT_TRUE(engine
                    ->RegisterStream(MakeSchema(
                        "D", {Field{"sk", ValueType::kString},
                              Field{"y", ValueType::kInt64}}))
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
    const Status s2 = batched_->UpdateSubjectRoles(subjects_[s], roles);
    ASSERT_EQ(s1.ok(), s2.ok());
  }

  /// Sp for one segment. Hardened mode makes a third of them
  /// attribute-granular (random field of `stream`), so with masking on,
  /// batches carry masked-null fields through every operator.
  SecurityPunctuation SegmentSp(const std::string& stream,
                                std::vector<RoleId> roles, Timestamp ts,
                                Sign sign) {
    if (!hardened_ || !rng_.NextBool(0.33)) {
      return sptest::MakeSp(stream, std::move(roles), ts, sign);
    }
    static const std::map<std::string, std::vector<std::string>> kFields = {
        {"C", {"sk", "s", "x"}}, {"D", {"sk", "y"}}};
    const std::vector<std::string>& fields = kFields.at(stream);
    SecurityPunctuation sp(
        Pattern::Literal(stream), Pattern::Any(),
        Pattern::Literal(fields[rng_.NextBounded(fields.size())]),
        Pattern::Any(), sign, /*immutable=*/false, ts);
    sp.SetResolvedRoles(RoleSet::FromIds(roles));
    return sp;
  }

  /// One random tuple value row for `stream`. The int-keyed streams (A/B)
  /// are all-int64; the hardened streams (C/D) draw string keys from a
  /// small pool (join/distinct collisions) and null out ~25% of non-key
  /// fields (plus the occasional null key).
  std::vector<Value> RandomRow(const std::string& stream, int cols) {
    std::vector<Value> vals;
    if (stream == "C" || stream == "D") {
      static const char* kKeys[] = {"ga", "ka", "na", "ra", "sa", "ta"};
      if (rng_.NextBool(0.05)) {
        vals.emplace_back();  // null join key
      } else {
        vals.emplace_back(std::string(kKeys[rng_.NextBounded(6)]));
      }
      if (stream == "C") {
        if (rng_.NextBool(0.25)) {
          vals.emplace_back();
        } else {
          vals.emplace_back("s" + std::to_string(rng_.NextBounded(12)));
        }
      }
      if (rng_.NextBool(0.25)) {
        vals.emplace_back();
      } else {
        vals.emplace_back(static_cast<int64_t>(rng_.NextBounded(100)));
      }
      return vals;
    }
    vals.emplace_back(static_cast<int64_t>(rng_.NextBounded(8)));  // key
    for (int c = 1; c < cols; ++c) {
      vals.emplace_back(static_cast<int64_t>(rng_.NextBounded(100)));
    }
    return vals;
  }

  // A punctuated random segment of `stream`: policy changes every few
  // tuples, so batches of any size straddle sp boundaries in every
  // workload; keys are drawn from a small range so joins/groups collide.
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
      elems.emplace_back(SegmentSp(stream, roles, ts,
                                   rng_.NextBool(0.15) ? Sign::kNegative
                                                       : Sign::kPositive));
      const size_t seg = 1 + rng_.NextBounded(8);
      for (size_t i = 0; i < seg && emitted < n; ++i, ++emitted) {
        elems.emplace_back(
            Tuple(0, tid++, RandomRow(stream, cols), ts));
        ts += 1 + rng_.NextBounded(3);
      }
    }
    std::vector<StreamElement> copy = elems;
    ASSERT_TRUE(oracle_->Push(stream, std::move(elems)).ok());
    ASSERT_TRUE(batched_->Push(stream, std::move(copy)).ok());
  }

  static std::vector<std::string> Sequence(const std::vector<Tuple>& ts) {
    std::vector<std::string> out;
    out.reserve(ts.size());
    for (const Tuple& t : ts) out.push_back(t.ToString());
    return out;
  }

  // Exact-sequence comparison: batching must not reorder a single tuple.
  void CompareResults(size_t epoch) {
    for (size_t i = 0; i < query_ids_.size(); ++i) {
      auto expect = oracle_->Results(query_ids_[i]);
      auto actual = batched_->Results(query_ids_[i]);
      ASSERT_TRUE(expect.ok() && actual.ok());
      ASSERT_EQ(Sequence(*expect), Sequence(*actual))
          << "epoch " << epoch << " query " << query_sql_[i] << " ("
          << expect->size() << " vs " << actual->size() << " tuples)";
    }
  }

  Rng rng_;
  bool hardened_ = false;
  std::vector<std::string> subjects_;
  std::vector<std::vector<std::string>> subject_roles_;
  std::unique_ptr<SpStreamEngine> oracle_;
  std::unique_ptr<SpStreamEngine> batched_;
  std::vector<QueryId> query_ids_;
  std::vector<std::string> query_sql_;
  std::map<std::string, Timestamp> stream_ts_;
  std::map<std::string, TupleId> stream_tid_;
};

class BatchEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchEquivalenceTest, SingleThreadedMatchesPerElementOracle) {
  const uint64_t seed = GetParam();
  for (size_t batch_size : BatchSizesUnderTest()) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    BatchWorkloadDriver driver(seed, batch_size, /*num_shards=*/1);
    driver.RegisterQueries();
    if (::testing::Test::HasFatalFailure()) return;
    driver.RunEpochs();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(BatchEquivalenceTest, ShardedMatchesPerElementShardedOracle) {
  const uint64_t seed = GetParam();
  for (size_t batch_size : BatchSizesUnderTest()) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    // 4-shard vs 4-shard: both merges are deterministic (shard id, then
    // per-shard arrival order), so sequences must still match exactly.
    BatchWorkloadDriver driver(seed, batch_size, /*num_shards=*/4);
    driver.RegisterQueries();
    if (::testing::Test::HasFatalFailure()) return;
    driver.RunEpochs();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Columnar-hostile variants: string join keys (arena-backed columns),
// null-heavy rows (validity bitmap), attribute-granular sps with SS
// masking on (SetNull write-back) — still sequence-exact at every size.
TEST_P(BatchEquivalenceTest, NullMaskStringWorkloadMatchesOracle) {
  const uint64_t seed = GetParam();
  for (size_t batch_size : BatchSizesUnderTest()) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    BatchWorkloadDriver driver(seed, batch_size, /*num_shards=*/1,
                               /*hardened=*/true);
    driver.RegisterQueries();
    if (::testing::Test::HasFatalFailure()) return;
    driver.RunEpochs();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(BatchEquivalenceTest, NullMaskStringWorkloadMatchesShardedOracle) {
  const uint64_t seed = GetParam();
  for (size_t batch_size : BatchSizesUnderTest()) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    BatchWorkloadDriver driver(seed, batch_size, /*num_shards=*/4,
                               /*hardened=*/true);
    driver.RegisterQueries();
    if (::testing::Test::HasFatalFailure()) return;
    driver.RunEpochs();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 13));

// -- Targeted (non-random) coverage -----------------------------------------

// An sp that revokes access mid-batch must take effect exactly at its
// position: tuples before it in the same micro-batch pass, tuples after it
// are dropped — the SS memo may never outlive an sp boundary.
TEST(BatchBoundaryTest, RevocationInsideOneBatchSplitsTheRun) {
  EngineOptions opts;
  opts.batch_size = 1024;  // whole input lands in a single batch
  SpStreamEngine engine(std::move(opts));
  engine.RegisterRole("R0");
  engine.RegisterRole("R1");
  ASSERT_TRUE(engine
                  .RegisterStream(
                      MakeSchema("A", {Field{"k", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine.RegisterSubject("alice", {"R0"}).ok());
  auto q = engine.RegisterQuery("alice", "SELECT k FROM A");
  ASSERT_TRUE(q.ok());

  std::vector<StreamElement> elems;
  elems.emplace_back(sptest::MakeSp("A", {0}, 1));  // grant R0
  for (TupleId i = 0; i < 5; ++i) {
    elems.emplace_back(
        sptest::MakeTuple(i, {static_cast<int64_t>(i)},
                          static_cast<Timestamp>(2 + i)));
  }
  // Re-punctuate for a role alice does not hold: everything after is denied.
  elems.emplace_back(sptest::MakeSp("A", {1}, 10));
  for (TupleId i = 5; i < 10; ++i) {
    elems.emplace_back(
        sptest::MakeTuple(i, {static_cast<int64_t>(i)},
                          static_cast<Timestamp>(11 + i)));
  }
  ASSERT_TRUE(engine.Push("A", std::move(elems)).ok());
  ASSERT_TRUE(engine.Run().ok());

  auto results = engine.Results(*q);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 5u);
  for (size_t i = 0; i < results->size(); ++i) {
    EXPECT_EQ((*results)[i].values[0].int64(), static_cast<int64_t>(i));
  }
}

TEST(BatchMetricsTest, ExplainAnalyzeReportsBatchCounters) {
  EngineOptions opts;
  opts.batch_size = 16;
  SpStreamEngine engine(std::move(opts));
  engine.RegisterRole("R0");
  ASSERT_TRUE(engine
                  .RegisterStream(
                      MakeSchema("A", {Field{"k", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine.RegisterSubject("alice", {"R0"}).ok());
  auto q = engine.RegisterQuery("alice", "SELECT k FROM A");
  ASSERT_TRUE(q.ok());

  std::vector<StreamElement> elems;
  elems.emplace_back(sptest::MakeSp("A", {0}, 1));
  for (TupleId i = 0; i < 40; ++i) {
    elems.emplace_back(sptest::MakeTuple(i, {static_cast<int64_t>(i)},
                                         static_cast<Timestamp>(2 + i)));
  }
  ASSERT_TRUE(engine.Push("A", std::move(elems)).ok());
  ASSERT_TRUE(engine.Run().ok());
  ASSERT_EQ(engine.Results(*q)->size(), 40u);

  auto explain = engine.ExplainQuery(*q, /*analyze=*/true);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("batches="), std::string::npos) << *explain;
  EXPECT_NE(explain->find("avg_batch="), std::string::npos) << *explain;

  const std::string metrics = engine.DumpMetrics(MetricsFormat::kJson);
  EXPECT_NE(metrics.find("\"batches_in\""), std::string::npos);
  EXPECT_NE(metrics.find("\"batch_elements_in\""), std::string::npos);
}

// Operator::PushBatch holds each operator's only timer and stops it before
// forwarding, so every operator (the sink included) reports its own time
// and the times add up to no more than the run's wall time.
TEST(BatchMetricsTest, OperatorTimesAreOwnTimeAndIncludeTheSink) {
  RoleCatalog roles;
  const std::vector<RoleId> ids = roles.RegisterSyntheticRoles(2);
  StreamCatalog streams;
  ExecContext ctx{&roles, &streams};
  const SchemaPtr schema = MakeSchema(
      "A", {Field{"k", ValueType::kInt64}, Field{"v", ValueType::kInt64}});
  std::vector<StreamElement> input;
  for (TupleId i = 0; i < 2000; ++i) {
    if (i % 100 == 0) {
      input.emplace_back(sptest::MakeSp("A", {ids[i % 200 == 0 ? 0 : 1]},
                                        static_cast<Timestamp>(1 + i)));
    }
    input.emplace_back(sptest::MakeTuple(
        i, {static_cast<int64_t>(i % 7), static_cast<int64_t>(i)},
        static_cast<Timestamp>(1 + i)));
  }
  for (size_t batch : {size_t{1}, size_t{7}, size_t{256}}) {
    SCOPED_TRACE("batch_size " + std::to_string(batch));
    Pipeline pipeline(&ctx);
    auto* src = pipeline.Add<PushSource>("src");
    SsOptions ss_opts;
    ss_opts.stream_name = "A";
    ss_opts.schema = schema;
    ss_opts.predicates = {RoleSet::FromIds({ids[0]})};
    std::vector<Operator*> ops = {
        pipeline.Add<SsOperator>(ss_opts),
        pipeline.Add<SaSelect>(Expr::Compare(
            Expr::CmpOp::kLt, Expr::Column(0), Expr::Literal(Value(5)))),
        pipeline.Add<SaProject>(std::vector<int>{1}, schema),
        pipeline.Add<CollectorSink>()};
    src->AddOutput(ops[0]);
    for (size_t i = 0; i + 1 < ops.size(); ++i) ops[i]->AddOutput(ops[i + 1]);

    // Copy the input before the timer and free it after, so the wall time
    // holds only the feed.
    std::vector<FiniteInput> fed;
    fed.push_back(FiniteInput{src, input});
    const int64_t t0 = NowNanos();
    FeedToEnd(std::move(fed), batch);
    const int64_t wall = NowNanos() - t0;

    int64_t sum = 0;
    for (Operator* op : ops) {
      EXPECT_GT(op->metrics().total_nanos, 0) << op->label();
      sum += op->metrics().total_nanos;
    }
    EXPECT_LE(sum, wall);
    EXPECT_GT(static_cast<CollectorSink*>(ops.back())->Tuples().size(), 0u);
    // FeedToEnd cuts ceil(n / batch) batches; the last one carries the EOS.
    EXPECT_EQ(src->metrics().batches_in,
              static_cast<int64_t>((input.size() + batch - 1) / batch));
    EXPECT_EQ(src->metrics().batch_elements_in,
              static_cast<int64_t>(input.size() + 1));
  }
}

// Test doubles that count what the end-of-stream hook emits.
class FinalSnapshotGroupBy : public SaGroupBy {
 public:
  using SaGroupBy::SaGroupBy;
  int64_t final_results = -1;

 protected:
  void OnAllFinished() override {
    const int64_t before = metrics().tuples_out;
    SaGroupBy::OnAllFinished();
    final_results = metrics().tuples_out - before;
  }
};

class FinalReleaseReorder : public ReorderOp {
 public:
  using ReorderOp::ReorderOp;
  int64_t final_release = -1;

 protected:
  void OnAllFinished() override {
    const int64_t before = metrics().tuples_out + metrics().sps_out;
    ReorderOp::OnAllFinished();
    final_release = metrics().tuples_out + metrics().sps_out - before;
  }
};

// FeedToEnd's contract at batch sizes 1, 7 and 256: each leaf gets
// ceil(n / batch) batches and a whole copy of its stream (a self-join reads
// one stream through two leaves), and EOS ends each leaf's last batch, so
// the reorder buffer's final release and the group-by's final snapshot see
// what they saw under the pull-mode source driver that FeedToEnd replaced.
// The expected counts were taken from that driver.
TEST(BatchBoundaryTest, FeedToEndFeedsEveryLeafItsWholeStreamThenEos) {
  RoleCatalog roles;
  roles.RegisterSyntheticRoles(4);
  StreamCatalog streams;
  ExecContext ctx{&roles, &streams};
  const SchemaPtr schema = MakeSchema(
      "A", {Field{"k", ValueType::kInt64}, Field{"v", ValueType::kInt64}});
  Rng rng(2008);
  const std::vector<StreamElement> input = sptest::RandomPunctuatedStream(
      &rng, "A", 300, 2, 5, 4, 6, 2);
  int64_t tuples = 0, sps = 0;
  for (const StreamElement& e : input) (e.is_tuple() ? tuples : sps) += 1;

  struct Expected {
    size_t batch;
    int64_t join_results, reorder_final, groupby_out, groupby_final;
  };
  for (const Expected& want : {Expected{1, 1830, 54, 305, 5},
                               Expected{7, 1830, 54, 305, 5},
                               Expected{256, 4599, 54, 305, 5}}) {
    SCOPED_TRACE("batch_size " + std::to_string(want.batch));
    const int64_t batches =
        static_cast<int64_t>((input.size() + want.batch - 1) / want.batch);

    Pipeline join_pipeline(&ctx);
    auto plan = BuildPhysicalPlan(
        &join_pipeline,
        {LogicalNode::Join(0, 0, /*window=*/20,
                           LogicalNode::Source("A", schema),
                           LogicalNode::Source("A", schema))});
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto fed = BindInputs(plan->sources, {{"A", input}});
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    FeedToEnd(std::move(*fed), want.batch);
    ASSERT_EQ(plan->sources.size(), 2u);
    for (const auto& [stream, leaf] : plan->sources) {
      EXPECT_EQ(leaf->metrics().batches_in, batches) << leaf->label();
      EXPECT_EQ(leaf->metrics().batch_elements_in,
                static_cast<int64_t>(input.size() + 1));
      EXPECT_EQ(leaf->metrics().tuples_out, tuples);
      EXPECT_EQ(leaf->metrics().sps_out, sps);
    }
    EXPECT_EQ(static_cast<int64_t>(plan->sinks[0]->Tuples().size()),
              want.join_results);

    Pipeline pipeline(&ctx);
    auto* src = pipeline.Add<PushSource>("src");
    auto* reorder = pipeline.Add<FinalReleaseReorder>(ReorderOptions{40});
    SaGroupByOptions gb_opts;
    gb_opts.window_size = 1000000;
    gb_opts.stream_name = "A";
    auto* groupby = pipeline.Add<FinalSnapshotGroupBy>(gb_opts);
    auto* sink = pipeline.Add<CollectorSink>();
    src->AddOutput(reorder);
    reorder->AddOutput(groupby);
    groupby->AddOutput(sink);
    FeedToEnd({{src, input}}, want.batch);
    EXPECT_EQ(src->metrics().batches_in, batches);
    EXPECT_EQ(reorder->final_release, want.reorder_final);
    EXPECT_EQ(groupby->metrics().tuples_out, want.groupby_out);
    EXPECT_EQ(groupby->final_results, want.groupby_final);
    EXPECT_EQ(static_cast<int64_t>(sink->Tuples().size()), want.groupby_out);
  }

  // An empty input is one EOS-only batch: every port still finishes once.
  Pipeline pipeline(&ctx);
  auto* src = pipeline.Add<PushSource>("src");
  auto* reorder = pipeline.Add<FinalReleaseReorder>(ReorderOptions{40});
  src->AddOutput(reorder);
  FeedToEnd({{src, {}}}, 7);
  EXPECT_EQ(src->metrics().batches_in, 1);
  EXPECT_EQ(reorder->final_release, 0);
}

}  // namespace
}  // namespace spstream

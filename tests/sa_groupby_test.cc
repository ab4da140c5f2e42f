#include "exec/sa_groupby.h"

#include <gtest/gtest.h>

#include <map>

#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;
using sptest::MakeTuple;
using sptest::RunUnary;

class SaGroupByTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = roles_.RegisterSyntheticRoles(8);
    ctx_ = ExecContext{&roles_, &streams_};
  }
  SaGroupByOptions Options(AggFn fn, Timestamp window = 1000) {
    SaGroupByOptions o;
    o.key_col = 0;
    o.agg_col = 1;
    o.agg_fn = fn;
    o.window_size = window;
    o.stream_name = "s";
    return o;
  }
  RoleCatalog roles_;
  StreamCatalog streams_;
  std::vector<RoleId> ids_;
  ExecContext ctx_;
};

TEST_F(SaGroupByTest, CountIncrements) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {5, 10}, 1));
  input.emplace_back(MakeTuple(2, {5, 20}, 2));
  input.emplace_back(MakeTuple(3, {6, 30}, 3));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaGroupBy>(Options(AggFn::kCount));
  });
  // One refreshed result per arrival + the final flush snapshot.
  ASSERT_GE(r.tuples.size(), 3u);
  EXPECT_EQ(r.tuples[0].values[0], Value(5));
  EXPECT_EQ(r.tuples[0].values[1], Value(int64_t{1}));
  EXPECT_EQ(r.tuples[1].values[1], Value(int64_t{2}));
  EXPECT_EQ(r.tuples[2].values[0], Value(6));
  EXPECT_EQ(r.tuples[2].values[1], Value(int64_t{1}));
}

TEST_F(SaGroupByTest, SumAvgMinMax) {
  auto run = [&](AggFn fn) {
    std::vector<StreamElement> input;
    input.emplace_back(MakeSp("s", {ids_[0]}, 1));
    input.emplace_back(MakeTuple(1, {5, 10}, 1));
    input.emplace_back(MakeTuple(2, {5, 30}, 2));
    input.emplace_back(MakeTuple(3, {5, 20}, 3));
    auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
      return p->Add<SaGroupBy>(Options(fn));
    });
    // The last pre-flush arrival result reflects all three values.
    return r.tuples[2].values[1];
  };
  EXPECT_DOUBLE_EQ(run(AggFn::kSum).AsDouble(), 60.0);
  EXPECT_DOUBLE_EQ(run(AggFn::kAvg).AsDouble(), 20.0);
  EXPECT_DOUBLE_EQ(run(AggFn::kMin).AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(run(AggFn::kMax).AsDouble(), 30.0);
}

TEST_F(SaGroupByTest, ExpiryUpdatesAggregate) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {5, 100}, 1));     // expires
  input.emplace_back(MakeTuple(2, {5, 10}, 2000));   // after window 1000
  input.emplace_back(MakeTuple(3, {5, 20}, 2001));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaGroupBy>(Options(AggFn::kMax));
  });
  // After expiry of 100, the max over the window is 20 (not 100).
  const Tuple& last = r.tuples[2];
  EXPECT_DOUBLE_EQ(last.values[1].AsDouble(), 20.0);
}

TEST_F(SaGroupByTest, AsgSplitByDisjointPolicies) {
  // Same key 5 under disjoint policies -> two subgroups, each with its own
  // aggregate and its own preceding sp.
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {5, 10}, 1));
  input.emplace_back(MakeSp("s", {ids_[1]}, 5));
  input.emplace_back(MakeTuple(2, {5, 99}, 5));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaGroupBy>(Options(AggFn::kCount));
  });
  ASSERT_GE(r.tuples.size(), 2u);
  // Each arrival reported count 1: separate ASGs, not a merged count of 2.
  EXPECT_EQ(r.tuples[0].values[1], Value(int64_t{1}));
  EXPECT_EQ(r.tuples[1].values[1], Value(int64_t{1}));
  ASSERT_GE(r.sps.size(), 2u);
  EXPECT_EQ(r.sps[0].roles(), RoleSet::Of(ids_[0]));
  EXPECT_EQ(r.sps[1].roles(), RoleSet::Of(ids_[1]));
}

TEST_F(SaGroupByTest, AsgMergeOnBridgingPolicy) {
  // Third tuple's policy intersects both subgroups: they merge and the
  // count covers all three tuples.
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {5, 10}, 1));
  input.emplace_back(MakeSp("s", {ids_[1]}, 5));
  input.emplace_back(MakeTuple(2, {5, 20}, 5));
  input.emplace_back(MakeSp("s", {ids_[0], ids_[1]}, 9));
  input.emplace_back(MakeTuple(3, {5, 30}, 9));
  Pipeline pipeline(&ctx_);
  auto* src = pipeline.Add<PushSource>("src");
  auto* gb = pipeline.Add<SaGroupBy>(Options(AggFn::kCount));
  auto* sink = pipeline.Add<CollectorSink>();
  src->AddOutput(gb);
  gb->AddOutput(sink);
  FeedToEnd({{src, std::move(input)}}, /*batch_size=*/1);
  EXPECT_EQ(gb->asg_count(), 1u);  // merged into one subgroup
  const auto tuples = sink->Tuples();
  ASSERT_GE(tuples.size(), 3u);
  EXPECT_EQ(tuples[2].values[1], Value(int64_t{3}));
}

TEST_F(SaGroupByTest, AsgPoliciesPairwiseDisjointInvariant) {
  // Fuzz: at any point, subgroup policies of one key never intersect.
  // We verify post-hoc via asg_count vs a reference partition refinement.
  Rng rng(777);
  for (int trial = 0; trial < 5; ++trial) {
    auto input = sptest::RandomPunctuatedStream(
        &rng, "s", 200, 2, 4, 8, 3, 2);
    Pipeline pipeline(&ctx_);
    auto* src = pipeline.Add<PushSource>("src");
    auto* gb = pipeline.Add<SaGroupBy>(
        Options(AggFn::kSum, /*window=*/1000000));
    auto* sink = pipeline.Add<CollectorSink>();
    src->AddOutput(gb);
    gb->AddOutput(sink);
    FeedToEnd({{src, input}}, /*batch_size=*/1);

    // Reference: union-find over (key, policy) arrivals.
    auto ref = sptest::ReferenceAnnotate(input, "s");
    std::map<int64_t, std::vector<RoleSet>> groups;
    for (const auto& rt : ref) {
      auto& asgs = groups[rt.tuple.values[0].int64()];
      RoleSet merged = rt.roles;
      std::vector<RoleSet> next;
      for (auto& existing : asgs) {
        if (existing.Intersects(rt.roles)) {
          merged.UnionWith(existing);
        } else {
          next.push_back(existing);
        }
      }
      next.push_back(merged);
      asgs = std::move(next);
    }
    size_t expected_asgs = 0;
    for (auto& [key, asgs] : groups) {
      (void)key;
      // Pairwise disjointness of the reference partition.
      for (size_t i = 0; i < asgs.size(); ++i) {
        for (size_t j = i + 1; j < asgs.size(); ++j) {
          EXPECT_FALSE(asgs[i].Intersects(asgs[j]));
        }
      }
      expected_asgs += asgs.size();
    }
    EXPECT_EQ(gb->asg_count(), expected_asgs) << "trial " << trial;
  }
}

TEST_F(SaGroupByTest, DenyAllSubgroupNeverEmitted) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeTuple(1, {5, 10}, 1));  // no sp: deny-by-default
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaGroupBy>(Options(AggFn::kCount));
  });
  EXPECT_TRUE(r.tuples.empty());
  EXPECT_TRUE(r.sps.empty());
}

TEST_F(SaGroupByTest, AggFnNames) {
  EXPECT_STREQ(AggFnToString(AggFn::kCount), "COUNT");
  EXPECT_STREQ(AggFnToString(AggFn::kAvg), "AVG");
}

}  // namespace
}  // namespace spstream

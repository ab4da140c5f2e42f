#include "exec/sa_distinct.h"

#include <gtest/gtest.h>

#include <map>

#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;
using sptest::MakeTuple;
using sptest::RunUnary;

class SaDistinctTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = roles_.RegisterSyntheticRoles(8);
    ctx_ = ExecContext{&roles_, &streams_};
  }
  SaDistinctOptions Options(Timestamp window = 1000) {
    SaDistinctOptions o;
    o.key_col = 0;
    o.window_size = window;
    o.stream_name = "s";
    return o;
  }
  RoleCatalog roles_;
  StreamCatalog streams_;
  std::vector<RoleId> ids_;
  ExecContext ctx_;
};

TEST_F(SaDistinctTest, EmitsEachDistinctValueOnce) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {7}, 1));
  input.emplace_back(MakeTuple(2, {7}, 2));  // duplicate
  input.emplace_back(MakeTuple(3, {8}, 3));  // new value
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaDistinct>(Options());
  });
  ASSERT_EQ(r.tuples.size(), 2u);
  EXPECT_EQ(r.tuples[0].values[0], Value(7));
  EXPECT_EQ(r.tuples[1].values[0], Value(8));
}

TEST_F(SaDistinctTest, Case1DisjointPoliciesReEmit) {
  // P_old ∩ P_new = ∅: the roles of the second segment never saw 7.
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {7}, 1));
  input.emplace_back(MakeSp("s", {ids_[1]}, 5));
  input.emplace_back(MakeTuple(2, {7}, 5));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaDistinct>(Options());
  });
  ASSERT_EQ(r.tuples.size(), 2u);
  ASSERT_EQ(r.sps.size(), 2u);
  EXPECT_EQ(r.sps[0].roles(), RoleSet::Of(ids_[0]));
  EXPECT_EQ(r.sps[1].roles(), RoleSet::Of(ids_[1]));
}

TEST_F(SaDistinctTest, Case2SubsetPolicySuppressed) {
  // P_old ∩ P_new = P_new: everyone who may see the new duplicate already
  // received the value.
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0], ids_[1]}, 1));
  input.emplace_back(MakeTuple(1, {7}, 1));
  input.emplace_back(MakeSp("s", {ids_[1]}, 5));
  input.emplace_back(MakeTuple(2, {7}, 5));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaDistinct>(Options());
  });
  EXPECT_EQ(r.tuples.size(), 1u);
  EXPECT_EQ(r.sps.size(), 1u);
}

TEST_F(SaDistinctTest, Case3PartialOverlapEmitsDifference) {
  // P_new − (P_old ∩ P_new): only the not-yet-served roles get the value.
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0], ids_[1]}, 1));
  input.emplace_back(MakeTuple(1, {7}, 1));
  input.emplace_back(MakeSp("s", {ids_[1], ids_[2]}, 5));
  input.emplace_back(MakeTuple(2, {7}, 5));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaDistinct>(Options());
  });
  ASSERT_EQ(r.tuples.size(), 2u);
  ASSERT_EQ(r.sps.size(), 2u);
  EXPECT_EQ(r.sps[1].roles(), RoleSet::Of(ids_[2]));  // the difference
}

TEST_F(SaDistinctTest, WindowExpiryForgetsValue) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {7}, 1));
  input.emplace_back(MakeTuple(2, {7}, 2000));  // ts 1 expired (window 1000)
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaDistinct>(Options(1000));
  });
  // Value re-emitted because the original left the window.
  EXPECT_EQ(r.tuples.size(), 2u);
}

TEST_F(SaDistinctTest, DenyAllSegmentProducesNothingButRemembers) {
  std::vector<StreamElement> input;
  // No sp: denial-by-default. The value is tracked but not emitted.
  input.emplace_back(MakeTuple(1, {7}, 1));
  input.emplace_back(MakeSp("s", {ids_[0]}, 5));
  input.emplace_back(MakeTuple(2, {7}, 5));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SaDistinct>(Options());
  });
  // The second arrival's roles never saw 7, so it is emitted for them.
  ASSERT_EQ(r.tuples.size(), 1u);
  EXPECT_EQ(r.tuples[0].tid, 2);
}

TEST_F(SaDistinctTest, PerRoleNoDuplicateAndNoMissInvariant) {
  // Fuzz: per (role, value, window-residency-epoch), the value must be
  // delivered exactly once to each authorized role.
  Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    auto input = sptest::RandomPunctuatedStream(
        &rng, "s", /*n=*/300, /*cols=*/1, /*value_range=*/6,
        /*role_pool=*/8, /*max_seg=*/4, /*roles_per_policy=*/2);
    // Large window: no expiry during the run — every (role, value) pair is
    // served at most once overall.
    auto r = RunUnary(&ctx_, input, [&](Pipeline* p) {
      return p->Add<SaDistinct>(Options(/*window=*/1000000));
    });
    // Replay the output: per role, count deliveries of each value.
    std::map<std::pair<RoleId, int64_t>, int> delivered;
    RoleSet current;
    for (const StreamElement& e : r.elements) {
      if (e.is_sp()) {
        current = e.sp().roles();
      } else if (e.is_tuple()) {
        current.ForEach([&](RoleId role) {
          ++delivered[{role, e.tuple().values[0].int64()}];
        });
      }
    }
    for (const auto& [key, count] : delivered) {
      EXPECT_EQ(count, 1) << "role " << key.first << " value " << key.second
                          << " delivered " << count << " times";
    }
    // No miss: every (role, value) authorized in the input appears.
    auto ref = sptest::ReferenceAnnotate(input, "s");
    std::map<std::pair<RoleId, int64_t>, bool> expected;
    for (const auto& rt : ref) {
      rt.roles.ForEach([&](RoleId role) {
        expected[{role, rt.tuple.values[0].int64()}] = true;
      });
    }
    for (const auto& [key, _] : expected) {
      EXPECT_TRUE(delivered.count(key))
          << "role " << key.first << " never received value " << key.second;
    }
  }
}

TEST_F(SaDistinctTest, StateSizeTracksDistinctValues) {
  Pipeline pipeline(&ctx_);
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  for (int i = 0; i < 20; ++i) {
    input.emplace_back(MakeTuple(i, {i % 4}, i + 1));
  }
  auto* src = pipeline.Add<PushSource>("src");
  auto* dist = pipeline.Add<SaDistinct>(Options());
  auto* sink = pipeline.Add<CollectorSink>();
  src->AddOutput(dist);
  dist->AddOutput(sink);
  FeedToEnd({{src, std::move(input)}}, /*batch_size=*/1);
  EXPECT_EQ(dist->output_state_size(), 4u);
  EXPECT_EQ(sink->Tuples().size(), 4u);
}

}  // namespace
}  // namespace spstream

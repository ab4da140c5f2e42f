// Tests for the §IX future-work extensions and the footnote-5 completions:
// incremental policy changes, out-of-order repair, and the security-aware
// set operations.
#include <gtest/gtest.h>

#include "exec/policy_tracker.h"
#include "exec/reorder.h"
#include "exec/sa_setops.h"
#include "query/parser.h"
#include "query/planner.h"
#include "security/sp_codec.h"
#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;
using sptest::MakeTuple;
using sptest::RunBinary;
using sptest::RunUnary;

// --------------------------------------------------- incremental policies

SecurityPunctuation DeltaSp(const std::string& stream,
                            std::vector<RoleId> roles, Timestamp ts,
                            Sign sign) {
  SecurityPunctuation sp = MakeSp(stream, std::move(roles), ts, sign);
  sp.set_incremental(true);
  return sp;
}

class IncrementalPolicyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = catalog_.RegisterSyntheticRoles(8);
    tracker_ = std::make_unique<PolicyTracker>(&catalog_, "s");
  }
  RoleCatalog catalog_;
  std::vector<RoleId> ids_;
  std::unique_ptr<PolicyTracker> tracker_;
};

TEST_F(IncrementalPolicyTest, PositiveDeltaAddsRole) {
  tracker_->OnSp(MakeSp("s", {ids_[0]}, 1));
  tracker_->PolicyFor(MakeTuple(1, {1}, 1));
  tracker_->OnSp(DeltaSp("s", {ids_[1]}, 5, Sign::kPositive));
  PolicyPtr p = tracker_->PolicyFor(MakeTuple(2, {1}, 5));
  // Both the original and the added role are authorized now.
  EXPECT_TRUE(p->Authorizes(RoleSet::Of(ids_[0])));
  EXPECT_TRUE(p->Authorizes(RoleSet::Of(ids_[1])));
}

TEST_F(IncrementalPolicyTest, NegativeDeltaRemovesRole) {
  tracker_->OnSp(MakeSp("s", {ids_[0], ids_[1]}, 1));
  tracker_->PolicyFor(MakeTuple(1, {1}, 1));
  tracker_->OnSp(DeltaSp("s", {ids_[1]}, 5, Sign::kNegative));
  PolicyPtr p = tracker_->PolicyFor(MakeTuple(2, {1}, 5));
  EXPECT_TRUE(p->Authorizes(RoleSet::Of(ids_[0])));
  EXPECT_FALSE(p->Authorizes(RoleSet::Of(ids_[1])));
}

TEST_F(IncrementalPolicyTest, AbsoluteBatchStillOverrides) {
  tracker_->OnSp(MakeSp("s", {ids_[0]}, 1));
  tracker_->PolicyFor(MakeTuple(1, {1}, 1));
  tracker_->OnSp(DeltaSp("s", {ids_[1]}, 5, Sign::kPositive));
  tracker_->PolicyFor(MakeTuple(2, {1}, 5));
  tracker_->OnSp(MakeSp("s", {ids_[2]}, 9));  // absolute
  PolicyPtr p = tracker_->PolicyFor(MakeTuple(3, {1}, 9));
  EXPECT_FALSE(p->Authorizes(RoleSet::Of(ids_[0])));
  EXPECT_FALSE(p->Authorizes(RoleSet::Of(ids_[1])));
  EXPECT_TRUE(p->Authorizes(RoleSet::Of(ids_[2])));
}

TEST_F(IncrementalPolicyTest, DeltaChainComposes) {
  tracker_->OnSp(MakeSp("s", {ids_[0]}, 1));
  tracker_->PolicyFor(MakeTuple(1, {1}, 1));
  for (int i = 1; i <= 4; ++i) {
    tracker_->OnSp(
        DeltaSp("s", {ids_[static_cast<size_t>(i)]}, i * 10,
                Sign::kPositive));
    tracker_->PolicyFor(MakeTuple(i + 1, {1}, i * 10));
  }
  tracker_->OnSp(DeltaSp("s", {ids_[0], ids_[2]}, 50, Sign::kNegative));
  PolicyPtr p = tracker_->PolicyFor(MakeTuple(9, {1}, 50));
  EXPECT_EQ(p->allowed(), RoleSet::FromIds({ids_[1], ids_[3], ids_[4]}));
}

TEST_F(IncrementalPolicyTest, UncoveredTupleKeepsPreviousPolicyUnderDelta) {
  // Absolute grant for every tuple, then an incremental removal scoped to
  // tuple ids [100-200]: tuples outside the range keep the old policy.
  tracker_->OnSp(MakeSp("s", {ids_[0], ids_[1]}, 1));
  tracker_->PolicyFor(MakeTuple(1, {1}, 1));
  SecurityPunctuation narrow_delta(
      Pattern::Literal("s"), Pattern::Range(100, 200), Pattern::Any(),
      Pattern::Any(), Sign::kNegative, false, 5);
  narrow_delta.SetResolvedRoles(RoleSet::Of(ids_[1]));
  narrow_delta.set_incremental(true);
  tracker_->OnSp(narrow_delta);
  PolicyPtr covered = tracker_->PolicyFor(MakeTuple(150, {1}, 5));
  EXPECT_EQ(covered->allowed(), RoleSet::Of(ids_[0]));
  PolicyPtr uncovered = tracker_->PolicyFor(MakeTuple(50, {1}, 6));
  EXPECT_EQ(uncovered->allowed(), RoleSet::FromIds({ids_[0], ids_[1]}));
}

TEST(IncrementalSyntaxTest, ParseInsertSpIncremental) {
  auto stmt = ParseInsertSp(
      "INSERT SP INTO STREAM s LET DDP = (*, *, *), SRP = r1, "
      "SIGN = negative, INCREMENTAL = true, TS = 9");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE(stmt->incremental);
  EXPECT_FALSE(stmt->positive);

  RoleCatalog roles;
  roles.RegisterRole("r1");
  StreamCatalog streams;
  Planner planner(&streams, &roles);
  auto sp = planner.BuildSp(*stmt, 1);
  ASSERT_TRUE(sp.ok());
  EXPECT_TRUE(sp->incremental());
}

TEST(IncrementalSyntaxTest, TextAndWireRoundTrip) {
  SecurityPunctuation sp = SecurityPunctuation::StreamLevel(
      Pattern::Literal("s"), Pattern::Literal("r1"), 7);
  sp.set_incremental(true);
  auto parsed = SecurityPunctuation::Parse(sp.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->incremental());
  EXPECT_EQ(*parsed, sp);

  std::string buf;
  EncodeSp(sp, &buf, /*prefer_bitmap=*/false);
  size_t off = 0;
  auto decoded = DecodeSp(buf, &off);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->incremental());
}

// --------------------------------------------------------- reorder buffer

class ReorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = roles_.RegisterSyntheticRoles(4);
    ctx_ = ExecContext{&roles_, &streams_};
  }
  RoleCatalog roles_;
  StreamCatalog streams_;
  std::vector<RoleId> ids_;
  ExecContext ctx_;
};

TEST_F(ReorderTest, RestoresTimestampOrder) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeTuple(3, {3}, 30));
  input.emplace_back(MakeTuple(1, {1}, 10));
  input.emplace_back(MakeTuple(2, {2}, 20));
  input.emplace_back(MakeTuple(4, {4}, 40));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<ReorderOp>(ReorderOptions{/*slack=*/100});
  });
  ASSERT_EQ(r.tuples.size(), 4u);
  for (size_t i = 1; i < r.tuples.size(); ++i) {
    EXPECT_LE(r.tuples[i - 1].ts, r.tuples[i].ts);
  }
}

TEST_F(ReorderTest, LateSpRepairedBeforeItsTuples) {
  // The sp arrives AFTER the tuple it governs but within slack: reorder
  // re-establishes sp-precedes-tuple.
  std::vector<StreamElement> input;
  input.emplace_back(MakeTuple(1, {1}, 10));
  input.emplace_back(MakeSp("s", {ids_[0]}, 9));
  input.emplace_back(MakeTuple(2, {2}, 200));  // pushes the watermark
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<ReorderOp>(ReorderOptions{/*slack=*/50});
  });
  ASSERT_EQ(r.elements.size(), 3u);
  EXPECT_TRUE(r.elements[0].is_sp());
  EXPECT_TRUE(r.elements[1].is_tuple());
  EXPECT_EQ(r.elements[1].tuple().tid, 1);
}

TEST_F(ReorderTest, SpBeforeTupleAtEqualTs) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeTuple(1, {1}, 10));
  input.emplace_back(MakeSp("s", {ids_[0]}, 10));
  input.emplace_back(MakeTuple(2, {2}, 300));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<ReorderOp>(ReorderOptions{/*slack=*/50});
  });
  EXPECT_TRUE(r.elements[0].is_sp());
}

TEST_F(ReorderTest, BeyondSlackDropped) {
  Pipeline pipeline(&ctx_);
  std::vector<StreamElement> input;
  input.emplace_back(MakeTuple(1, {1}, 100));
  input.emplace_back(MakeTuple(2, {2}, 300));  // watermark 290, releases 100
  input.emplace_back(MakeTuple(3, {3}, 50));   // hopelessly late
  auto* src = pipeline.Add<PushSource>("src");
  auto* reorder = pipeline.Add<ReorderOp>(ReorderOptions{/*slack=*/10});
  auto* sink = pipeline.Add<CollectorSink>();
  src->AddOutput(reorder);
  reorder->AddOutput(sink);
  FeedToEnd({{src, std::move(input)}}, /*batch_size=*/1);
  EXPECT_EQ(reorder->late_drops(), 1);
  EXPECT_EQ(sink->Tuples().size(), 2u);
}

TEST_F(ReorderTest, FlushOnEndOfStream) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeTuple(2, {2}, 20));
  input.emplace_back(MakeTuple(1, {1}, 10));
  // Nothing exceeds the slack before EOS; the flush must release all.
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<ReorderOp>(ReorderOptions{/*slack=*/1000});
  });
  ASSERT_EQ(r.tuples.size(), 2u);
  EXPECT_EQ(r.tuples[0].tid, 1);
  EXPECT_EQ(r.tuples[1].tid, 2);
}

// ---------------------------------------------------- set operations

class SaSetOpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = roles_.RegisterSyntheticRoles(8);
    ctx_ = ExecContext{&roles_, &streams_};
  }
  SaSetOpOptions Options(SaSetOpOptions::Kind kind) {
    SaSetOpOptions o;
    o.kind = kind;
    o.window_size = 1000;
    o.left_stream_name = "L";
    o.right_stream_name = "R";
    return o;
  }
  RoleCatalog roles_;
  StreamCatalog streams_;
  std::vector<RoleId> ids_;
  ExecContext ctx_;
};

TEST_F(SaSetOpTest, IntersectEmitsCompatibleMatches) {
  // (FeedToEnd feeds the sources round-robin; the left filler tuple lets
  // the right resident land in the window before the real probes arrive.)
  std::vector<StreamElement> left, right;
  right.emplace_back(MakeSp("R", {ids_[0]}, 1));
  right.emplace_back(MakeTuple(10, {7}, 1));
  left.emplace_back(MakeSp("L", {ids_[0]}, 1));
  left.emplace_back(MakeTuple(0, {99}, 1));  // filler, no match
  left.emplace_back(MakeTuple(1, {7}, 2));   // match
  left.emplace_back(MakeTuple(2, {8}, 3));   // no match
  auto r = RunBinary(&ctx_, left, right, [&](Pipeline* p) {
    return p->Add<SaSetOp>(Options(SaSetOpOptions::Kind::kIntersect));
  });
  ASSERT_EQ(r.tuples.size(), 1u);
  EXPECT_EQ(r.tuples[0].values[0], Value(7));
  ASSERT_EQ(r.sps.size(), 1u);
  EXPECT_EQ(r.sps[0].roles(), RoleSet::Of(ids_[0]));
}

TEST_F(SaSetOpTest, IntersectPolicyIncompatibleDiscards) {
  std::vector<StreamElement> left, right;
  right.emplace_back(MakeSp("R", {ids_[1]}, 1));
  right.emplace_back(MakeTuple(10, {7}, 1));
  left.emplace_back(MakeSp("L", {ids_[0]}, 1));
  left.emplace_back(MakeTuple(1, {7}, 2));
  auto r = RunBinary(&ctx_, left, right, [&](Pipeline* p) {
    return p->Add<SaSetOp>(Options(SaSetOpOptions::Kind::kIntersect));
  });
  EXPECT_TRUE(r.tuples.empty());
}

TEST_F(SaSetOpTest, ExceptRemovesVisibleMatches) {
  std::vector<StreamElement> left, right;
  right.emplace_back(MakeSp("R", {ids_[0]}, 1));
  right.emplace_back(MakeTuple(10, {7}, 1));
  left.emplace_back(MakeSp("L", {ids_[0]}, 1));
  left.emplace_back(MakeSp("L", {ids_[0]}, 1));  // pad the feed schedule
  left.emplace_back(MakeTuple(1, {7}, 2));  // excluded (match visible)
  left.emplace_back(MakeTuple(2, {8}, 3));  // survives
  auto r = RunBinary(&ctx_, left, right, [&](Pipeline* p) {
    return p->Add<SaSetOp>(Options(SaSetOpOptions::Kind::kExcept));
  });
  ASSERT_EQ(r.tuples.size(), 1u);
  EXPECT_EQ(r.tuples[0].values[0], Value(8));
}

TEST_F(SaSetOpTest, ExceptPerRoleSemantics) {
  // L tuple readable by {r0, r1}; a matching R tuple readable by {r1} only.
  // r1 sees the match, so only r0 receives the difference tuple.
  std::vector<StreamElement> left, right;
  right.emplace_back(MakeSp("R", {ids_[1]}, 1));
  right.emplace_back(MakeTuple(10, {7}, 1));
  left.emplace_back(MakeSp("L", {ids_[0], ids_[1]}, 1));
  left.emplace_back(MakeSp("L", {ids_[0], ids_[1]}, 1));  // pad schedule
  left.emplace_back(MakeTuple(1, {7}, 2));
  auto r = RunBinary(&ctx_, left, right, [&](Pipeline* p) {
    return p->Add<SaSetOp>(Options(SaSetOpOptions::Kind::kExcept));
  });
  ASSERT_EQ(r.tuples.size(), 1u);
  ASSERT_EQ(r.sps.size(), 1u);
  EXPECT_EQ(r.sps[0].roles(), RoleSet::Of(ids_[0]));
}

TEST_F(SaSetOpTest, WindowExpiryReinstatesExcept) {
  std::vector<StreamElement> left, right;
  right.emplace_back(MakeSp("R", {ids_[0]}, 1));
  right.emplace_back(MakeTuple(10, {7}, 1));
  left.emplace_back(MakeSp("L", {ids_[0]}, 1));
  left.emplace_back(MakeTuple(1, {7}, 5000));  // R resident expired
  auto r = RunBinary(&ctx_, left, right, [&](Pipeline* p) {
    return p->Add<SaSetOp>(Options(SaSetOpOptions::Kind::kExcept));
  });
  EXPECT_EQ(r.tuples.size(), 1u);
}

TEST_F(SaSetOpTest, DenyByDefaultLeftSide) {
  std::vector<StreamElement> left, right;
  left.emplace_back(MakeTuple(1, {7}, 1));  // no sp at all
  auto r = RunBinary(&ctx_, left, right, [&](Pipeline* p) {
    return p->Add<SaSetOp>(Options(SaSetOpOptions::Kind::kExcept));
  });
  EXPECT_TRUE(r.tuples.empty());
}

}  // namespace
}  // namespace spstream

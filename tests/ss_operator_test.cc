#include "exec/ss_operator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;
using sptest::MakeTuple;
using sptest::RunUnary;

class SsOperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = roles_.RegisterSyntheticRoles(16);
    ctx_ = ExecContext{&roles_, &streams_};
  }

  SsOptions Options(std::vector<RoleSet> predicates) {
    SsOptions o;
    o.predicates = std::move(predicates);
    o.stream_name = "s";
    o.schema = MakeSchema("s", {Field{"a", ValueType::kInt64},
                                Field{"b", ValueType::kInt64}});
    return o;
  }

  RoleCatalog roles_;
  StreamCatalog streams_;
  std::vector<RoleId> ids_;
  ExecContext ctx_;
};

TEST_F(SsOperatorTest, PassesAuthorizedSegment) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {1, 2}, 1));
  input.emplace_back(MakeTuple(2, {3, 4}, 2));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SsOperator>(Options({RoleSet::Of(ids_[0])}));
  });
  EXPECT_EQ(r.tuples.size(), 2u);
  ASSERT_EQ(r.sps.size(), 1u);
  // Sp precedes the tuples it governs in the output too.
  EXPECT_TRUE(r.elements[0].is_sp());
}

TEST_F(SsOperatorTest, DropsUnauthorizedSegmentWithItsSps) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[5]}, 1));
  input.emplace_back(MakeTuple(1, {1, 2}, 1));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SsOperator>(Options({RoleSet::Of(ids_[0])}));
  });
  EXPECT_TRUE(r.tuples.empty());
  EXPECT_TRUE(r.sps.empty());  // "the tuples and their sps are discarded"
}

TEST_F(SsOperatorTest, DenialByDefaultNoSp) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeTuple(1, {1, 2}, 1));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SsOperator>(Options({RoleSet::Of(ids_[0])}));
  });
  EXPECT_TRUE(r.tuples.empty());
}

TEST_F(SsOperatorTest, PolicySwitchMidStream) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {1, 1}, 1));
  input.emplace_back(MakeSp("s", {ids_[1]}, 5));  // override: now r2 only
  input.emplace_back(MakeTuple(2, {2, 2}, 5));
  input.emplace_back(MakeSp("s", {ids_[0]}, 9));  // back to r1
  input.emplace_back(MakeTuple(3, {3, 3}, 9));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SsOperator>(Options({RoleSet::Of(ids_[0])}));
  });
  ASSERT_EQ(r.tuples.size(), 2u);
  EXPECT_EQ(r.tuples[0].tid, 1);
  EXPECT_EQ(r.tuples[1].tid, 3);
  EXPECT_EQ(r.sps.size(), 2u);  // the ids_[1] segment's sp was discarded
}

TEST_F(SsOperatorTest, MultiplePredicatesAnyMatchPasses) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[2]}, 1));
  input.emplace_back(MakeTuple(1, {1, 1}, 1));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SsOperator>(
        Options({RoleSet::Of(ids_[0]), RoleSet::Of(ids_[2])}));
  });
  EXPECT_EQ(r.tuples.size(), 1u);
}

TEST_F(SsOperatorTest, IndexAndScanModesAgree) {
  Rng rng(99);
  auto elements = sptest::RandomPunctuatedStream(
      &rng, "s", /*n=*/300, /*cols=*/2, /*value_range=*/10,
      /*role_pool=*/16, /*max_seg=*/4);
  std::vector<RoleSet> preds = {RoleSet::FromIds({ids_[1], ids_[3]}),
                                RoleSet::Of(ids_[7])};
  SsOptions with_index = Options(preds);
  with_index.use_predicate_index = true;
  SsOptions no_index = Options(preds);
  no_index.use_predicate_index = false;

  auto a = RunUnary(&ctx_, elements, [&](Pipeline* p) {
    return p->Add<SsOperator>(with_index);
  });
  auto b = RunUnary(&ctx_, elements, [&](Pipeline* p) {
    return p->Add<SsOperator>(no_index);
  });
  ASSERT_EQ(a.tuples.size(), b.tuples.size());
  for (size_t i = 0; i < a.tuples.size(); ++i) {
    EXPECT_EQ(a.tuples[i], b.tuples[i]);
  }
  EXPECT_EQ(a.sps.size(), b.sps.size());
}

TEST_F(SsOperatorTest, SafetyInvariantOnRandomStreams) {
  // For every emitted tuple, the governing policy must intersect the SS
  // predicate union (no unauthorized tuple ever escapes).
  Rng rng(1234);
  for (int trial = 0; trial < 8; ++trial) {
    auto elements = sptest::RandomPunctuatedStream(
        &rng, "s", 250, 2, 10, 16, 5);
    auto ref = sptest::ReferenceAnnotate(elements, "s");
    std::map<TupleId, RoleSet> roles_by_tid;
    for (auto& rt : ref) roles_by_tid[rt.tuple.tid] = rt.roles;

    RoleSet predicate = RoleSet::FromIds(
        {ids_[rng.NextBounded(16)], ids_[rng.NextBounded(16)]});
    auto r = RunUnary(&ctx_, elements, [&](Pipeline* p) {
      return p->Add<SsOperator>(Options({predicate}));
    });
    size_t expected = 0;
    for (auto& rt : ref) {
      if (rt.roles.Intersects(predicate)) ++expected;
    }
    EXPECT_EQ(r.tuples.size(), expected);
    for (const Tuple& t : r.tuples) {
      EXPECT_TRUE(roles_by_tid[t.tid].Intersects(predicate))
          << "unauthorized tuple escaped: tid=" << t.tid;
    }
  }
}

TEST_F(SsOperatorTest, AttributeMaskingNullsDeniedColumns) {
  SsOptions opts = Options({RoleSet::Of(ids_[0])});
  opts.mask_attributes = true;

  // Batch: whole-tuple grant to r1 on column context, but column "b" is
  // attribute-denied for r1.
  SecurityPunctuation grant(Pattern::Literal("s"), Pattern::Any(),
                            Pattern::Any(), Pattern::Any(), Sign::kPositive,
                            false, 1);
  grant.SetResolvedRoles(RoleSet::Of(ids_[0]));
  SecurityPunctuation deny_b(Pattern::Literal("s"), Pattern::Any(),
                             Pattern::Literal("b"), Pattern::Any(),
                             Sign::kNegative, false, 1);
  deny_b.SetResolvedRoles(RoleSet::Of(ids_[0]));

  std::vector<StreamElement> input;
  input.emplace_back(std::move(grant));
  input.emplace_back(std::move(deny_b));
  input.emplace_back(MakeTuple(1, {7, 8}, 1));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SsOperator>(opts);
  });
  ASSERT_EQ(r.tuples.size(), 1u);
  EXPECT_EQ(r.tuples[0].values[0], Value(7));
  EXPECT_TRUE(r.tuples[0].values[1].is_null());  // masked
}

TEST_F(SsOperatorTest, AttributeOnlyGrantExposesJustThatColumn) {
  SsOptions opts = Options({RoleSet::Of(ids_[0])});
  opts.mask_attributes = true;
  SecurityPunctuation attr_grant(Pattern::Literal("s"), Pattern::Any(),
                                 Pattern::Literal("a"), Pattern::Any(),
                                 Sign::kPositive, false, 1);
  attr_grant.SetResolvedRoles(RoleSet::Of(ids_[0]));
  std::vector<StreamElement> input;
  input.emplace_back(std::move(attr_grant));
  input.emplace_back(MakeTuple(1, {7, 8}, 1));
  auto r = RunUnary(&ctx_, std::move(input), [&](Pipeline* p) {
    return p->Add<SsOperator>(opts);
  });
  ASSERT_EQ(r.tuples.size(), 1u);
  EXPECT_EQ(r.tuples[0].values[0], Value(7));
  EXPECT_TRUE(r.tuples[0].values[1].is_null());
}

TEST_F(SsOperatorTest, MetricsCountDrops) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[9]}, 1));
  input.emplace_back(MakeTuple(1, {1, 1}, 1));
  input.emplace_back(MakeTuple(2, {2, 2}, 2));
  Pipeline pipeline(&ctx_);
  auto* src = pipeline.Add<SourceOperator>("src", std::move(input));
  auto* ss = pipeline.Add<SsOperator>(Options({RoleSet::Of(ids_[0])}));
  auto* sink = pipeline.Add<CollectorSink>();
  src->AddOutput(ss);
  ss->AddOutput(sink);
  pipeline.Run();
  EXPECT_EQ(ss->metrics().tuples_in, 2);
  EXPECT_EQ(ss->metrics().tuples_dropped_security, 2);
  EXPECT_EQ(ss->metrics().sps_in, 1);
  EXPECT_EQ(ss->metrics().tuples_out, 0);
  EXPECT_GT(ss->metrics().peak_state_bytes, 0);
}

TEST_F(SsOperatorTest, MatchingPredicatesRouting) {
  SsOptions opts = Options({RoleSet::Of(ids_[0]),
                            RoleSet::FromIds({ids_[0], ids_[1]}),
                            RoleSet::Of(ids_[2])});
  SsState state(opts);
  Policy p(RoleSet::Of(ids_[0]), 1);
  auto matches = state.MatchingPredicates(p);
  EXPECT_EQ(matches, (std::vector<size_t>{0, 1}));
  Policy none(RoleSet::Of(ids_[9]), 1);
  EXPECT_TRUE(state.MatchingPredicates(none).empty());

  opts.use_predicate_index = false;
  SsState scan_state(opts);
  EXPECT_EQ(scan_state.MatchingPredicates(p), matches);
}

// The state gauge adds the SsState bytes, walked once at construction, to
// the tracker's and the held sps' bytes at every install. Replaying the sp
// sequence on a reference tracker and a mirror of the held-sp buffer gives
// the full walk; the gauge's peak must equal it.
TEST_F(SsOperatorTest, StateBytesGaugeEqualsFullWalk) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {1, 2}, 1));
  input.emplace_back(MakeSp("s", {ids_[1]}, 5));
  input.emplace_back(MakeSp("s", {ids_[2], ids_[3]}, 5));
  input.emplace_back(MakeTuple(2, {3, 4}, 5));
  input.emplace_back(MakeSp("s", {ids_[4]}, 9));
  input.emplace_back(MakeTuple(3, {5, 6}, 9));
  const SsOptions options =
      Options({RoleSet::FromIds({ids_[0], ids_[2]}),
               RoleSet::FromIds({ids_[5], ids_[9], ids_[12]})});

  const SsState state(options);
  PolicyTracker tracker(&roles_, "s");
  std::vector<SecurityPunctuation> held;
  std::optional<Timestamp> held_ts;
  auto walk = [&] {
    return static_cast<int64_t>(
        state.MemoryBytes() + tracker.MemoryBytes() +
        held.capacity() * sizeof(SecurityPunctuation));
  };
  int64_t peak = walk();
  for (const StreamElement& e : input) {
    if (e.is_tuple()) {
      tracker.PolicyFor(e.tuple());
      continue;
    }
    ASSERT_TRUE(tracker.OnSp(e.sp()));
    if (held_ts != e.sp().ts()) {
      held.clear();
      held_ts = e.sp().ts();
    }
    held.push_back(e.sp());
    peak = std::max(peak, walk());
  }

  Pipeline pipeline(&ctx_);
  auto* src = pipeline.Add<SourceOperator>("src", std::move(input));
  auto* ss = pipeline.Add<SsOperator>(options);
  src->AddOutput(ss);
  ss->AddOutput(pipeline.Add<CollectorSink>());
  pipeline.Run();
  EXPECT_EQ(ss->metrics().peak_state_bytes, peak);
}

}  // namespace
}  // namespace spstream

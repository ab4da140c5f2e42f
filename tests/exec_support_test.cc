// Coverage for the execution-layer support pieces: segmented windows,
// output-sp synthesis, union / sp-stripping operators, plan-builder edge
// cases, and operator metrics.
#include <gtest/gtest.h>

#include "exec/misc_ops.h"
#include "exec/plan_builder.h"
#include "exec/sp_synth.h"
#include "exec/window.h"
#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;
using sptest::MakeTuple;

// ----------------------------------------------------------- window

class SegmentedWindowTest : public ::testing::Test {
 protected:
  PolicyPtr P(std::vector<RoleId> ids, Timestamp ts) {
    return MakePolicy(RoleSet::FromIds(std::move(ids)), ts);
  }
};

TEST_F(SegmentedWindowTest, SamePolicyExtendsSegment) {
  SegmentedWindow w(100);
  PolicyPtr p = P({1}, 1);
  auto [seg1, created1] = w.InsertTuple(MakeTuple(1, {1}, 1), p, {});
  auto [seg2, created2] = w.InsertTuple(MakeTuple(2, {2}, 2), p, {});
  EXPECT_TRUE(created1);
  EXPECT_FALSE(created2);
  EXPECT_EQ(seg1, seg2);
  EXPECT_EQ(w.segment_count(), 1u);
  EXPECT_EQ(w.tuple_count(), 2u);
}

TEST_F(SegmentedWindowTest, EqualPolicyDifferentObjectAlsoExtends) {
  SegmentedWindow w(100);
  auto [s1, c1] = w.InsertTuple(MakeTuple(1, {1}, 1), P({1, 2}, 1), {});
  auto [s2, c2] = w.InsertTuple(MakeTuple(2, {2}, 2), P({1, 2}, 1), {});
  (void)c1;
  EXPECT_FALSE(c2);
  EXPECT_EQ(s1, s2);
}

TEST_F(SegmentedWindowTest, DifferentPolicyStartsSegment) {
  SegmentedWindow w(100);
  w.InsertTuple(MakeTuple(1, {1}, 1), P({1}, 1), {});
  auto [seg, created] = w.InsertTuple(MakeTuple(2, {2}, 2), P({2}, 2), {});
  (void)seg;
  EXPECT_TRUE(created);
  EXPECT_EQ(w.segment_count(), 2u);
}

TEST_F(SegmentedWindowTest, InvalidatePurgesDrainedSegmentsWithSps) {
  SegmentedWindow w(10);
  std::vector<SecurityPunctuation> sps1 = {MakeSp("s", {1}, 1)};
  w.InsertTuple(MakeTuple(1, {1}, 1), P({1}, 1), sps1);
  w.InsertTuple(MakeTuple(2, {2}, 2), P({1}, 1), sps1);
  std::vector<SecurityPunctuation> sps2 = {MakeSp("s", {2}, 55)};
  w.InsertTuple(MakeTuple(3, {3}, 55), P({2}, 55), sps2);

  std::vector<Segment*> purged;
  auto stats = w.Invalidate(60, [&](Segment* s) { purged.push_back(s); });
  EXPECT_EQ(stats.tuples_removed, 2u);
  EXPECT_EQ(stats.segments_purged, 1u);
  EXPECT_EQ(stats.sps_purged, 1u);
  EXPECT_EQ(purged.size(), 1u);
  EXPECT_EQ(w.segment_count(), 1u);
  EXPECT_EQ(w.tuple_count(), 1u);
}

TEST_F(SegmentedWindowTest, PartialDrainKeepsSegmentAndSp) {
  SegmentedWindow w(10);
  std::vector<SecurityPunctuation> sps = {MakeSp("s", {1}, 1)};
  w.InsertTuple(MakeTuple(1, {1}, 1), P({1}, 1), sps);
  w.InsertTuple(MakeTuple(2, {2}, 9), P({1}, 1), sps);
  auto stats = w.Invalidate(12);  // cutoff 2: expires ts<=2 only
  EXPECT_EQ(stats.tuples_removed, 1u);
  EXPECT_EQ(stats.segments_purged, 0u);
  EXPECT_EQ(w.segments().front().sps.size(), 1u);
}

TEST_F(SegmentedWindowTest, MemoryAccounting) {
  SegmentedWindow w(100);
  const size_t empty = w.MemoryBytes();
  w.InsertTuple(MakeTuple(1, {1, 2, 3}, 1), P({1}, 1),
                {MakeSp("s", {1}, 1)});
  EXPECT_GT(w.MemoryBytes(), empty);
}

// ----------------------------------------------------------- sp synthesis

TEST(SpSynthTest, SynthesizedSpIsResolvedAndScoped) {
  RoleCatalog catalog;
  RoleId a = catalog.RegisterRole("alpha");
  RoleId b = catalog.RegisterRole("beta");
  SecurityPunctuation sp =
      SynthesizeSp(RoleSet::FromIds({a, b}), 42, "join_out", catalog);
  EXPECT_TRUE(sp.roles_resolved());
  EXPECT_EQ(sp.roles(), RoleSet::FromIds({a, b}));
  EXPECT_TRUE(sp.AppliesToStream("join_out"));
  EXPECT_FALSE(sp.AppliesToStream("other"));
  EXPECT_EQ(sp.ts(), 42);
  // The pattern text round-trips through the catalog names, built as one
  // literal alternative per role without parsing the joined text.
  EXPECT_EQ(sp.role_pattern().text(), "alpha|beta");
  EXPECT_TRUE(sp.role_pattern().IsLiteralList());
}

TEST(SpSynthTest, EmptyRoleSetSynthesizesDenyAll) {
  RoleCatalog catalog;
  SecurityPunctuation sp = SynthesizeSp(RoleSet(), 1, "out", catalog);
  EXPECT_TRUE(sp.roles().Empty());
}

TEST(OutputPolicyEmitterTest, DedupsConsecutiveEqualPolicies) {
  OutputPolicyEmitter emitter;
  RoleSet a = RoleSet::FromIds({1, 2});
  RoleSet b = RoleSet::FromIds({3});
  EXPECT_TRUE(emitter.NeedsSp(a, 1));
  EXPECT_FALSE(emitter.NeedsSp(a, 2));   // same policy: shared sp
  EXPECT_TRUE(emitter.NeedsSp(b, 3));    // changed: new sp
  EXPECT_TRUE(emitter.NeedsSp(a, 4));    // changed back: new sp again
  EXPECT_EQ(emitter.current_roles(), a);
}

// ----------------------------------------------------------- misc ops

class MiscOpsTest : public ::testing::Test {
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

TEST_F(MiscOpsTest, UnionMergesBothInputs) {
  Pipeline pipeline(&ctx_);
  std::vector<StreamElement> a, b;
  a.emplace_back(MakeSp("s", {ids_[0]}, 1));
  a.emplace_back(MakeTuple(1, {1}, 1));
  b.emplace_back(MakeSp("s", {ids_[1]}, 1));
  b.emplace_back(MakeTuple(2, {2}, 2));
  auto* sa = pipeline.Add<PushSource>("a");
  auto* sb = pipeline.Add<PushSource>("b");
  auto* u = pipeline.Add<UnionOp>(2);
  auto* sink = pipeline.Add<CollectorSink>();
  sa->AddOutput(u, 0);
  sb->AddOutput(u, 1);
  u->AddOutput(sink);
  FeedToEnd({{sa, std::move(a)}, {sb, std::move(b)}}, /*batch_size=*/1);
  EXPECT_EQ(sink->Tuples().size(), 2u);
  EXPECT_EQ(sink->Sps().size(), 2u);
  EXPECT_EQ(u->metrics().tuples_in, 2);
  EXPECT_EQ(u->metrics().sps_in, 2);
}

TEST_F(MiscOpsTest, DropSpsStripsAndInjectsAllowAll) {
  Pipeline pipeline(&ctx_);
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {1}, 5));
  input.emplace_back(MakeSp("s", {ids_[1]}, 6));
  input.emplace_back(MakeTuple(2, {2}, 7));
  auto* src = pipeline.Add<PushSource>("src");
  auto* drop = pipeline.Add<DropSpsOp>();
  auto* sink = pipeline.Add<CollectorSink>();
  src->AddOutput(drop);
  drop->AddOutput(sink);
  FeedToEnd({{src, std::move(input)}}, /*batch_size=*/1);
  // All input sps swallowed; exactly one allow-all sp injected up front.
  ASSERT_EQ(sink->Sps().size(), 1u);
  EXPECT_EQ(sink->Sps()[0].roles(), RoleSet::AllOf(roles_));
  EXPECT_TRUE(sink->elements()[0].is_sp());
  EXPECT_EQ(sink->Tuples().size(), 2u);
  EXPECT_EQ(drop->metrics().sps_in, 2);
}

// ----------------------------------------------------------- plan builder

class PlanBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = roles_.RegisterSyntheticRoles(4);
    schema_ = MakeSchema("s", {Field{"a", ValueType::kInt64},
                               Field{"b", ValueType::kInt64}});
    ASSERT_TRUE(streams_.RegisterStream(schema_).ok());
    ctx_ = ExecContext{&roles_, &streams_};
  }
  RoleCatalog roles_;
  StreamCatalog streams_;
  std::vector<RoleId> ids_;
  SchemaPtr schema_;
  ExecContext ctx_;
};

TEST_F(PlanBuilderTest, MissingInputRejected) {
  Pipeline pipeline(&ctx_);
  auto plan = LogicalNode::Source("s", schema_);
  auto built = sptest::RunPlan(&pipeline, plan, {});
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kNotFound);
}

TEST_F(PlanBuilderTest, SourcePlanPassesEverythingThrough) {
  Pipeline pipeline(&ctx_);
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {1, 2}, 1));
  auto plan = LogicalNode::Source("s", schema_);
  auto built = sptest::RunPlan(&pipeline, plan, {{"s", input}});
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->sinks[0]->Tuples().size(), 1u);
  EXPECT_EQ(built->sinks[0]->Sps().size(), 1u);
  EXPECT_EQ(built->sources.size(), 1u);
}

TEST_F(PlanBuilderTest, MultiPredicateSsCompilesToCascade) {
  Pipeline pipeline(&ctx_);
  auto plan = LogicalNode::Ss(
      {RoleSet::Of(ids_[0]), RoleSet::Of(ids_[1])},
      LogicalNode::Source("s", schema_));
  std::vector<StreamElement> input;
  // Policy {r0}: passes shield r0 but not shield r1 -> conjunctive drop.
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {1, 2}, 1));
  // Policy {r0, r1}: passes both shields.
  input.emplace_back(MakeSp("s", {ids_[0], ids_[1]}, 5));
  input.emplace_back(MakeTuple(2, {3, 4}, 5));
  auto built = sptest::RunPlan(&pipeline, plan, {{"s", input}});
  ASSERT_TRUE(built.ok());
  ASSERT_EQ(built->sinks[0]->Tuples().size(), 1u);
  EXPECT_EQ(built->sinks[0]->Tuples()[0].tid, 2);
}

TEST_F(PlanBuilderTest, JoinImplToggleProducesSameResults) {
  SchemaPtr schema2 = MakeSchema("t", {Field{"a", ValueType::kInt64},
                                       Field{"b", ValueType::kInt64}});
  ASSERT_TRUE(streams_.RegisterStream(schema2).ok());
  std::vector<StreamElement> s_in, t_in;
  s_in.emplace_back(MakeSp("s", {ids_[0]}, 1));
  t_in.emplace_back(MakeSp("t", {ids_[0]}, 1));
  for (int i = 0; i < 20; ++i) {
    s_in.emplace_back(MakeTuple(i, {i % 5, i}, i + 1));
    t_in.emplace_back(MakeTuple(100 + i, {i % 5, i}, i + 1));
  }
  auto plan = LogicalNode::Join(0, 0, 1000, LogicalNode::Source("s", schema_),
                                LogicalNode::Source("t", schema2));
  std::unordered_map<std::string, std::vector<StreamElement>> inputs{
      {"s", s_in}, {"t", t_in}};

  auto run = [&](PhysicalPlanOptions::JoinImpl impl) {
    PhysicalPlanOptions popts;
    popts.join_impl = impl;
    Pipeline pipeline(&ctx_);
    auto built = sptest::RunPlan(&pipeline, plan, inputs, popts);
    EXPECT_TRUE(built.ok());
    return built->sinks[0]->Tuples().size();
  };
  const size_t nl = run(PhysicalPlanOptions::JoinImpl::kNestedLoop);
  const size_t idx = run(PhysicalPlanOptions::JoinImpl::kIndex);
  EXPECT_EQ(nl, idx);
  EXPECT_GT(nl, 0u);
}

TEST_F(PlanBuilderTest, UnionPlanCompiles) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  input.emplace_back(MakeTuple(1, {1, 2}, 1));
  auto plan = LogicalNode::Union({LogicalNode::Source("s", schema_),
                                  LogicalNode::Source("s", schema_)});
  Pipeline pipeline(&ctx_);
  auto built = sptest::RunPlan(&pipeline, plan, {{"s", input}});
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->sinks[0]->Tuples().size(), 2u);  // both branches replay s
  EXPECT_EQ(built->sources.size(), 2u);
}

// ----------------------------------------------------------- metrics

TEST(MetricsTest, MergeAndToString) {
  OperatorMetrics a, b;
  a.tuples_in = 5;
  a.total_nanos = 1000;
  a.NoteStateBytes(128);
  b.tuples_in = 7;
  b.sps_in = 2;
  b.NoteStateBytes(64);
  a.Merge(b);
  EXPECT_EQ(a.tuples_in, 12);
  EXPECT_EQ(a.sps_in, 2);
  // Peaks are high-water marks, not flows: merging takes the max.
  EXPECT_EQ(a.peak_state_bytes, 128);
  EXPECT_NE(a.ToString().find("in=12"), std::string::npos);
}

TEST(MetricsTest, PeakStateBytesHighWater) {
  OperatorMetrics m;
  m.NoteStateBytes(100);
  m.NoteStateBytes(50);
  EXPECT_EQ(m.state_bytes, 50);
  EXPECT_EQ(m.peak_state_bytes, 100);
}

}  // namespace
}  // namespace spstream

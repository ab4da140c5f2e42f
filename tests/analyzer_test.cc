#include "analyzer/sp_analyzer.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;
using sptest::MakeTuple;

class SpAnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = catalog_.RegisterSyntheticRoles(8);
    analyzer_ = std::make_unique<SpAnalyzer>(&catalog_, "s");
  }

  /// Feed a sequence and collect everything forwarded.
  std::vector<StreamElement> Feed(std::vector<StreamElement> elements) {
    std::vector<StreamElement> out;
    for (StreamElement& e : elements) {
      for (StreamElement& fwd : analyzer_->Process(std::move(e))) {
        out.push_back(std::move(fwd));
      }
    }
    for (StreamElement& fwd : analyzer_->Flush()) {
      out.push_back(std::move(fwd));
    }
    return out;
  }

  RoleCatalog catalog_;
  std::vector<RoleId> ids_;
  std::unique_ptr<SpAnalyzer> analyzer_;
};

TEST_F(SpAnalyzerTest, ResolvesRolePatterns) {
  SecurityPunctuation sp = SecurityPunctuation::StreamLevel(
      Pattern::Literal("s"), Pattern::Compile("r1|r2").value(), 1);
  auto out = Feed({StreamElement(sp), StreamElement(MakeTuple(1, {1}, 1))});
  ASSERT_EQ(out.size(), 2u);
  ASSERT_TRUE(out[0].is_sp());
  EXPECT_TRUE(out[0].sp().roles_resolved());
  EXPECT_EQ(out[0].sp().roles(), RoleSet::FromIds({ids_[0], ids_[1]}));
}

TEST_F(SpAnalyzerTest, SpsAlwaysPrecedeTheirTuples) {
  auto out = Feed({StreamElement(MakeSp("s", {ids_[0]}, 1)),
                   StreamElement(MakeSp("s", {ids_[1]}, 1)),
                   StreamElement(MakeTuple(1, {1}, 1)),
                   StreamElement(MakeTuple(2, {2}, 2))});
  ASSERT_EQ(out.size(), 3u);  // two same-shape sps combined into one
  EXPECT_TRUE(out[0].is_sp());
  EXPECT_TRUE(out[1].is_tuple());
  EXPECT_TRUE(out[2].is_tuple());
}

TEST_F(SpAnalyzerTest, CombinesSameShapeSpsInBatch) {
  // Two same-ts sps with identical DDP/sign merge into one with the union
  // of the role bitmaps (§II.B "combine the security punctuations").
  auto out = Feed({StreamElement(MakeSp("s", {ids_[0]}, 5)),
                   StreamElement(MakeSp("s", {ids_[1]}, 5)),
                   StreamElement(MakeTuple(1, {1}, 5))});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].sp().roles(), RoleSet::FromIds({ids_[0], ids_[1]}));
  EXPECT_EQ(analyzer_->stats().sps_combined, 1);
  EXPECT_EQ(analyzer_->stats().sps_in, 2);
  EXPECT_EQ(analyzer_->stats().sps_out, 1);
}

TEST_F(SpAnalyzerTest, DifferentDdpSpsNotCombined) {
  SecurityPunctuation a(Pattern::Literal("s"), Pattern::Range(1, 5),
                        Pattern::Any(), Pattern::Any(), Sign::kPositive,
                        false, 5);
  a.SetResolvedRoles(RoleSet::Of(ids_[0]));
  SecurityPunctuation b(Pattern::Literal("s"), Pattern::Range(6, 9),
                        Pattern::Any(), Pattern::Any(), Sign::kPositive,
                        false, 5);
  b.SetResolvedRoles(RoleSet::Of(ids_[1]));
  auto out = Feed({StreamElement(a), StreamElement(b),
                   StreamElement(MakeTuple(1, {1}, 5))});
  EXPECT_EQ(out.size(), 3u);  // both sps forwarded
  EXPECT_EQ(analyzer_->stats().sps_combined, 0);
}

TEST_F(SpAnalyzerTest, ServerPolicyIntersectsMutableSps) {
  // Server restricts stream s to roles {r1, r3}; a provider sp granting
  // {r1, r2} is refined to {r1}.
  SecurityPunctuation server = SecurityPunctuation::StreamLevel(
      Pattern::Literal("s"), Pattern::Compile("r1|r3").value(), 0);
  ASSERT_TRUE(analyzer_->AddServerPolicy(server).ok());
  auto out = Feed({StreamElement(MakeSp("s", {ids_[0], ids_[1]}, 5)),
                   StreamElement(MakeTuple(1, {1}, 5))});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].sp().roles(), RoleSet::Of(ids_[0]));
  EXPECT_EQ(analyzer_->stats().sps_refined_by_server, 1);
}

TEST_F(SpAnalyzerTest, ImmutableSpSkipsServerRefinement) {
  SecurityPunctuation server = SecurityPunctuation::StreamLevel(
      Pattern::Literal("s"), Pattern::Literal("r1"), 0);
  ASSERT_TRUE(analyzer_->AddServerPolicy(server).ok());
  SecurityPunctuation provider(Pattern::Literal("s"), Pattern::Any(),
                               Pattern::Any(), Pattern::Any(),
                               Sign::kPositive, /*immutable=*/true, 5);
  provider.SetResolvedRoles(RoleSet::FromIds({ids_[1], ids_[2]}));
  auto out = Feed({StreamElement(provider),
                   StreamElement(MakeTuple(1, {1}, 5))});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].sp().roles(), RoleSet::FromIds({ids_[1], ids_[2]}));
  EXPECT_EQ(analyzer_->stats().immutable_preserved, 1);
}

TEST_F(SpAnalyzerTest, ServerPolicyCannotWidenAccess) {
  // Server "grant" of extra roles must never ADD roles to a provider sp.
  SecurityPunctuation server = SecurityPunctuation::StreamLevel(
      Pattern::Literal("s"), Pattern::Compile("r1|r2|r3|r4").value(), 0);
  ASSERT_TRUE(analyzer_->AddServerPolicy(server).ok());
  auto out = Feed({StreamElement(MakeSp("s", {ids_[0]}, 5)),
                   StreamElement(MakeTuple(1, {1}, 5))});
  EXPECT_TRUE(out[0].sp().roles().IsSubsetOf(RoleSet::Of(ids_[0])));
}

TEST_F(SpAnalyzerTest, ServerPolicyValidation) {
  // Policy for a different stream is rejected at registration.
  SecurityPunctuation wrong_stream = SecurityPunctuation::StreamLevel(
      Pattern::Literal("other"), Pattern::Literal("r1"), 0);
  EXPECT_FALSE(analyzer_->AddServerPolicy(wrong_stream).ok());
  // Negative server policies are unsupported (must narrow positively).
  SecurityPunctuation negative = SecurityPunctuation::StreamLevel(
      Pattern::Literal("s"), Pattern::Literal("r1"), 0, Sign::kNegative);
  EXPECT_FALSE(analyzer_->AddServerPolicy(negative).ok());
}

TEST_F(SpAnalyzerTest, NegativeProviderSpsPassThroughUnrefined) {
  SecurityPunctuation server = SecurityPunctuation::StreamLevel(
      Pattern::Literal("s"), Pattern::Literal("r1"), 0);
  ASSERT_TRUE(analyzer_->AddServerPolicy(server).ok());
  auto out = Feed({StreamElement(MakeSp("s", {ids_[0]}, 5)),
                   StreamElement(MakeSp("s", {ids_[2]}, 5, Sign::kNegative)),
                   StreamElement(MakeTuple(1, {1}, 5))});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1].sp().sign(), Sign::kNegative);
  EXPECT_EQ(out[1].sp().roles(), RoleSet::Of(ids_[2]));
}

TEST_F(SpAnalyzerTest, ReAnnouncedPolicyKeepsPerTupleAnnotations) {
  // The same {r0} policy re-announced with every block, then a changed
  // one: every sp is forwarded ahead of its tuples.
  auto out = Feed({StreamElement(MakeSp("s", {ids_[0]}, 1)),
                   StreamElement(MakeTuple(1, {1}, 1)),
                   StreamElement(MakeSp("s", {ids_[0]}, 5)),
                   StreamElement(MakeTuple(2, {2}, 5)),
                   StreamElement(MakeSp("s", {ids_[0]}, 9)),
                   StreamElement(MakeTuple(3, {3}, 9)),
                   StreamElement(MakeSp("s", {ids_[1]}, 12)),
                   StreamElement(MakeTuple(4, {4}, 12))});
  EXPECT_EQ(analyzer_->stats().sps_out, 4);
  // Tuples 1..3 under {r0}, tuple 4 under {r1}.
  auto annotated = sptest::ReferenceAnnotate(out, "s");
  ASSERT_EQ(annotated.size(), 4u);
  EXPECT_EQ(annotated[0].roles, RoleSet::Of(ids_[0]));
  EXPECT_EQ(annotated[2].roles, RoleSet::Of(ids_[0]));
  EXPECT_EQ(annotated[3].roles, RoleSet::Of(ids_[1]));
}

TEST_F(SpAnalyzerTest, ForwardsRepeatedIncrementalBatches) {
  SecurityPunctuation delta = MakeSp("s", {ids_[0]}, 5);
  delta.set_incremental(true);
  SecurityPunctuation delta2 = MakeSp("s", {ids_[0]}, 9);
  delta2.set_incremental(true);
  std::vector<StreamElement> out;
  for (auto e : {StreamElement(delta), StreamElement(MakeTuple(1, {1}, 5)),
                 StreamElement(delta2),
                 StreamElement(MakeTuple(2, {2}, 9))}) {
    for (auto& fwd : analyzer_->Process(std::move(e))) {
      out.push_back(std::move(fwd));
    }
  }
  size_t sps = 0;
  for (auto& e : out) sps += e.is_sp();
  EXPECT_EQ(sps, 2u);  // both deltas kept
}

TEST_F(SpAnalyzerTest, FlushReleasesTrailingBatch) {
  std::vector<StreamElement> trailing;
  for (StreamElement& e :
       analyzer_->Process(StreamElement(MakeSp("s", {ids_[0]}, 5)))) {
    trailing.push_back(std::move(e));
  }
  EXPECT_TRUE(trailing.empty());  // buffered
  auto flushed = analyzer_->Flush();
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_TRUE(flushed[0].is_sp());
}

}  // namespace
}  // namespace spstream

// Well-formedness fuzz: random operator compositions over random punctuated
// streams must always produce *well-formed* punctuated output — every data
// tuple preceded by at least one sp whose policy authorizes someone, no
// crashes, and (for non-aggregating plans) the end-to-end safety invariant.
#include <gtest/gtest.h>

#include "exec/plan_builder.h"
#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;

/// Output stream well-formedness: a tuple never precedes its first sp,
/// every emitted sp authorizes at least one role (operators discard
/// nobody-can-read results instead of emitting deny-all sps), and the sp
/// stream is ts-monotone — an out-of-order punctuation would be dropped as
/// stale downstream, silently re-labelling the tuples that follow it with
/// the previous (possibly broader) policy.
void CheckWellFormed(const std::vector<StreamElement>& elements,
                     const std::string& context) {
  bool seen_sp = false;
  Timestamp last_sp_ts = kMinTimestamp;
  for (const StreamElement& e : elements) {
    if (e.is_sp()) {
      seen_sp = true;
      EXPECT_FALSE(e.sp().roles_resolved() && e.sp().roles().Empty())
          << context << ": deny-all sp emitted";
      EXPECT_GE(e.sp().ts(), last_sp_ts)
          << context << ": out-of-order sp in output stream";
      last_sp_ts = e.sp().ts();
    } else if (e.is_tuple()) {
      EXPECT_TRUE(seen_sp) << context << ": tuple before any sp";
    }
  }
}

class WellFormedFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WellFormedFuzz, RandomPlansProduceWellFormedStreams) {
  Rng rng(GetParam());
  RoleCatalog roles;
  StreamCatalog streams;
  auto ids = roles.RegisterSyntheticRoles(8);
  SchemaPtr schema_a = MakeSchema("A", {Field{"k", ValueType::kInt64},
                                        Field{"v", ValueType::kInt64}});
  SchemaPtr schema_b = MakeSchema("B", {Field{"k", ValueType::kInt64},
                                        Field{"v", ValueType::kInt64}});
  ASSERT_TRUE(streams.RegisterStream(schema_a).ok());
  ASSERT_TRUE(streams.RegisterStream(schema_b).ok());
  ExecContext ctx{&roles, &streams};

  for (int trial = 0; trial < 12; ++trial) {
    std::unordered_map<std::string, std::vector<StreamElement>> inputs{
        {"A", sptest::RandomPunctuatedStream(&rng, "A", 150, 2, 8, 8, 4)},
        {"B", sptest::RandomPunctuatedStream(&rng, "B", 150, 2, 8, 8, 4)}};

    // Random plan: optional join, then a random chain of unary operators,
    // with an SS at a random position.
    LogicalNodePtr plan = LogicalNode::Source("A", schema_a);
    const bool with_join = rng.NextBool(0.4);
    if (with_join) {
      plan = LogicalNode::Join(0, 0, /*window=*/40, plan,
                               LogicalNode::Source("B", schema_b));
    }
    bool has_aggregate = false;
    const size_t chain = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < chain; ++i) {
      switch (rng.NextBounded(4)) {
        case 0:
          plan = LogicalNode::Select(
              Expr::Compare(Expr::CmpOp::kLt, Expr::Column(0),
                            Expr::Literal(Value(static_cast<int64_t>(
                                rng.NextBounded(8))))),
              std::move(plan));
          break;
        case 1:
          plan = LogicalNode::Project({0, 1}, std::move(plan));
          break;
        case 2:
          plan = LogicalNode::Distinct(0, 100000, std::move(plan));
          break;
        case 3:
          plan = LogicalNode::GroupBy(0, AggFn::kCount, 1, 100000,
                                      std::move(plan));
          has_aggregate = true;
          break;
      }
    }
    RoleSet q = RoleSet::FromIds({ids[rng.NextBounded(8)],
                                  ids[rng.NextBounded(8)]});
    plan = LogicalNode::Ss({q}, std::move(plan));

    Pipeline pipeline(&ctx);
    auto built =
        sptest::RunPlan(&pipeline, plan, inputs, {}, 1 + rng.NextBounded(64));
    ASSERT_TRUE(built.ok()) << built.status().ToString() << "\n"
                            << plan->ToString();

    const std::string context =
        "seed " + std::to_string(GetParam()) + " trial " +
        std::to_string(trial) + "\n" + plan->ToString();
    CheckWellFormed(built->sinks[0]->elements(), context);

    if (!with_join && !has_aggregate) {
      // Safety: output tuples' source tids must have been authorized for q.
      auto ref = sptest::ReferenceAnnotate(inputs["A"], "A");
      std::map<TupleId, RoleSet> by_tid;
      for (auto& rt : ref) by_tid[rt.tuple.tid] = rt.roles;
      for (const Tuple& t : built->sinks[0]->Tuples()) {
        // Distinct may re-emit under narrowed policies; the governing
        // check is that SOMEONE in q could read the source tuple.
        auto it = by_tid.find(t.tid);
        if (it != by_tid.end()) {
          EXPECT_TRUE(it->second.Intersects(q)) << context;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WellFormedFuzz,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace spstream

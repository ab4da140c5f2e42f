// Denial runs at one Security Shield. A denial under the same policy
// object as the shield's open run extends it (one more bit of
// AuditEvent::tuple_offsets); the run closes at a passing tuple, a
// different policy object, an sp, any other event of the shield, a tuple
// id 64 or more above the run's first, and at the end of every batch, on
// the row path and the columnar kernel alike. Attribute masking keeps one
// event per denied tuple. Every case also checks that the log still counts
// one denied tuple per security drop.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/audit_log.h"
#include "exec/ss_operator.h"
#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;
using sptest::MakeTuple;

/// One event as the test reads it: kind, first tuple id and the run's ids.
struct Ev {
  AuditEventKind kind;
  std::vector<TupleId> tids;  // denials only
  bool operator==(const Ev&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Ev& e) {
  os << AuditEventKindName(e.kind);
  for (TupleId t : e.tids) os << " " << t;
  return os;
}

Ev Denied(std::vector<TupleId> tids) {
  return Ev{AuditEventKind::kDenial, std::move(tids)};
}
Ev Install() { return Ev{AuditEventKind::kPolicyInstall, {}}; }
Ev Expire() { return Ev{AuditEventKind::kPolicyExpire, {}}; }

/// `true`: each batch is fed columnar (the SS's columnar kernel);
/// `false`: as rows (Process).
class SsDenialRunTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    ids_ = roles_.RegisterSyntheticRoles(8);
    ctx_ = ExecContext{&roles_, &streams_};
    ctx_.audit = &log_;
  }

  SsOptions Options(bool mask = false) {
    SsOptions o;
    o.predicates = {RoleSet::Of(ids_[0])};
    o.stream_name = "s";
    o.schema = MakeSchema("s", {Field{"a", ValueType::kInt64},
                                Field{"b", ValueType::kInt64}});
    o.mask_attributes = mask;
    return o;
  }

  /// Feeds each inner vector as one batch through src -> SS -> sink and
  /// returns the log's events.
  std::vector<Ev> Run(std::vector<std::vector<StreamElement>> batches,
                      SsOptions options) {
    Pipeline pipeline(&ctx_);
    auto* src = pipeline.Add<PushSource>("src");
    auto* ss = pipeline.Add<SsOperator>(std::move(options));
    src->AddOutput(ss);
    ss->AddOutput(pipeline.Add<CollectorSink>());
    for (std::vector<StreamElement>& elems : batches) {
      ElementBatch batch =
          ElementBatch::ForFeed(GetParam() ? 64 : 1, elems.size());
      for (StreamElement& e : elems) batch.push_back(std::move(e));
      EXPECT_EQ(batch.is_columnar(), GetParam());
      src->FeedBatch(std::move(batch));
    }
    EXPECT_EQ(log_.CountOf(AuditEventKind::kDenial),
              ss->metrics().tuples_dropped_security);
    std::vector<Ev> out;
    for (const AuditEvent& e : log_.Events()) {
      out.push_back(Ev{e.kind, e.kind == AuditEventKind::kDenial
                                   ? e.TupleIds()
                                   : std::vector<TupleId>{}});
    }
    return out;
  }

  /// Tuple-range sp: tuples [lo, hi] of "s" readable by `role`.
  SecurityPunctuation RangeSp(int64_t lo, int64_t hi, RoleId role,
                              Timestamp ts) {
    SecurityPunctuation sp = SecurityPunctuation::TupleLevel(
        Pattern::Literal("s"), Pattern::Range(lo, hi), Pattern::Any(), ts);
    sp.SetResolvedRoles(RoleSet::Of(role));
    return sp;
  }

  void Tuples(std::vector<StreamElement>* out, TupleId lo, TupleId hi) {
    for (TupleId t = lo; t <= hi; ++t) {
      out->emplace_back(MakeTuple(t, {t, 0}, static_cast<Timestamp>(t)));
    }
  }

  RoleCatalog roles_;
  StreamCatalog streams_;
  std::vector<RoleId> ids_;
  ExecContext ctx_;
  AuditLog log_;
};

// A denial run under one stream-level policy, and gaps in the tuple ids
// (a select upstream) are kept exactly.
TEST_P(SsDenialRunTest, OnePolicyOneRunWithExactIds) {
  std::vector<StreamElement> b;
  b.emplace_back(MakeSp("s", {ids_[1]}, 1));
  for (TupleId t : {1, 2, 3, 5, 8, 9}) {
    b.emplace_back(MakeTuple(t, {t, 0}, 1));
  }
  EXPECT_EQ(Run({std::move(b)}, Options()),
            (std::vector<Ev>{Install(), Denied({1, 2, 3, 5, 8, 9})}));
}

// Tuples outside a tuple-range sp's DDP fall to the shared deny-all
// policy; a passing tuple between two of them closes the run, though the
// policy object is the same on both sides.
TEST_P(SsDenialRunTest, PassingTupleClosesTheRun) {
  std::vector<StreamElement> b;
  b.emplace_back(RangeSp(3, 3, ids_[0], 1));
  Tuples(&b, 1, 5);
  EXPECT_EQ(Run({std::move(b)}, Options()),
            (std::vector<Ev>{Install(), Denied({1, 2}), Denied({4, 5})}));
}

// A partially covering tuple-range batch: tuples 1-3 are denied under the
// batch's policy, 4-6 under deny-all. Two policy objects, two runs, no sp
// in between.
TEST_P(SsDenialRunTest, PolicyObjectChangeClosesTheRun) {
  std::vector<StreamElement> b;
  b.emplace_back(RangeSp(1, 3, ids_[1], 1));
  Tuples(&b, 1, 6);
  EXPECT_EQ(Run({std::move(b)}, Options()),
            (std::vector<Ev>{Install(), Denied({1, 2, 3}),
                             Denied({4, 5, 6})}));
}

// Deny-all before any sp and deny-all outside the new sp's DDP are the
// same policy object; the sp still closes the run before its install, so
// the log keeps the arrival order.
TEST_P(SsDenialRunTest, SpClosesTheRunBeforeItsInstall) {
  std::vector<StreamElement> b;
  Tuples(&b, 1, 2);
  b.emplace_back(RangeSp(100, 100, ids_[0], 1));
  Tuples(&b, 3, 4);
  b.emplace_back(MakeSp("s", {ids_[2]}, 5));
  Tuples(&b, 5, 6);
  EXPECT_EQ(Run({std::move(b)}, Options()),
            (std::vector<Ev>{Denied({1, 2}), Install(), Denied({3, 4}),
                             Expire(), Install(), Denied({5, 6})}));
}

// Every batch ends the run: batches of 1 give one event per tuple, and
// batches of 64 elements give one run per batch.
TEST_P(SsDenialRunTest, BatchEndClosesTheRun) {
  {
    std::vector<std::vector<StreamElement>> batches;
    batches.emplace_back();
    batches.back().emplace_back(MakeSp("s", {ids_[1]}, 1));
    for (TupleId t = 1; t <= 3; ++t) {
      batches.emplace_back();
      batches.back().emplace_back(MakeTuple(t, {t, 0}, 1));
    }
    EXPECT_EQ(Run(std::move(batches), Options()),
              (std::vector<Ev>{Install(), Denied({1}), Denied({2}),
                               Denied({3})}));
  }
  log_.Clear();
  {
    std::vector<std::vector<StreamElement>> batches(2);
    batches[0].emplace_back(MakeSp("s", {ids_[1]}, 1));
    Tuples(&batches[0], 1, 63);
    Tuples(&batches[1], 64, 100);
    std::vector<TupleId> first, second;
    for (TupleId t = 1; t <= 63; ++t) first.push_back(t);
    for (TupleId t = 64; t <= 100; ++t) second.push_back(t);
    EXPECT_EQ(Run(std::move(batches), Options()),
              (std::vector<Ev>{Install(), Denied(first), Denied(second)}));
  }
}

// A run spans fewer than 64 tuple ids: the id first + 64 opens a new run
// in the same batch.
TEST_P(SsDenialRunTest, SixtyFourIdSpanClosesTheRun) {
  std::vector<StreamElement> b;
  b.emplace_back(MakeSp("s", {ids_[1]}, 1));
  Tuples(&b, 10, 80);
  std::vector<TupleId> first, second;
  for (TupleId t = 10; t <= 73; ++t) first.push_back(t);
  for (TupleId t = 74; t <= 80; ++t) second.push_back(t);
  EXPECT_EQ(Run({std::move(b)}, Options()),
            (std::vector<Ev>{Install(), Denied(first), Denied(second)}));
}

// Under attribute masking each denied tuple keeps its own event: an
// attribute-only grant to a role outside the predicate hides every column.
TEST_P(SsDenialRunTest, MaskingStaysPerTuple) {
  std::vector<StreamElement> b;
  SecurityPunctuation attr(Pattern::Literal("s"), Pattern::Any(),
                           Pattern::Literal("a"), Pattern::Any(),
                           Sign::kPositive, false, 1);
  attr.SetResolvedRoles(RoleSet::Of(ids_[1]));
  b.emplace_back(std::move(attr));
  Tuples(&b, 1, 3);
  EXPECT_EQ(Run({std::move(b)}, Options(/*mask=*/true)),
            (std::vector<Ev>{Install(), Denied({1}), Denied({2}),
                             Denied({3})}));
}

INSTANTIATE_TEST_SUITE_P(Transports, SsDenialRunTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "columnar" : "rows";
                         });

}  // namespace
}  // namespace spstream

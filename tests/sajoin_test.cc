#include "exec/sajoin.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "test_util.h"
#include "workload/policy_gen.h"

namespace spstream {
namespace {

using sptest::MakeSp;
using sptest::MakeTuple;
using sptest::RunBinary;

class SaJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = roles_.RegisterSyntheticRoles(16);
    ctx_ = ExecContext{&roles_, &streams_};
  }

  SaJoinOptions Options(Timestamp window = 100) {
    SaJoinOptions o;
    o.window_size = window;
    o.left_key_col = 0;
    o.right_key_col = 0;
    o.left_stream_name = "s1";
    o.right_stream_name = "s2";
    return o;
  }

  /// Canonical multiset of join results: (l.tid, r.tid) sorted.
  static std::multiset<std::pair<TupleId, TupleId>> Canon(
      const std::vector<Tuple>& tuples) {
    std::multiset<std::pair<TupleId, TupleId>> out;
    for (const Tuple& t : tuples) {
      // payload columns carry the original tids (col 1 = left payload,
      // col 3 = right payload in our 2-col inputs).
      out.emplace(t.values[1].int64(), t.values[3].int64());
    }
    return out;
  }

  RoleCatalog roles_;
  StreamCatalog streams_;
  std::vector<RoleId> ids_;
  ExecContext ctx_;
};

// Build (key, tid) tuples: values = {key, tid}.
Tuple JoinTuple(TupleId tid, int64_t key, Timestamp ts) {
  return Tuple(0, tid, {Value(key), Value(static_cast<int64_t>(tid))}, ts);
}

TEST_F(SaJoinTest, BasicEquijoinCompatiblePolicies) {
  std::vector<StreamElement> left, right;
  left.emplace_back(MakeSp("s1", {ids_[0]}, 1));
  left.emplace_back(JoinTuple(1, 42, 1));
  right.emplace_back(MakeSp("s2", {ids_[0]}, 1));
  right.emplace_back(JoinTuple(100, 42, 2));
  auto r = RunBinary(&ctx_, left, right, [&](Pipeline* p) {
    return p->Add<SaJoinNl>(Options());
  });
  ASSERT_EQ(r.tuples.size(), 1u);
  EXPECT_EQ(r.tuples[0].values.size(), 4u);
  // Output preceded by an sp carrying the policy intersection.
  ASSERT_EQ(r.sps.size(), 1u);
  EXPECT_EQ(r.sps[0].roles(), RoleSet::Of(ids_[0]));
}

TEST_F(SaJoinTest, IncompatiblePoliciesDiscardResult) {
  std::vector<StreamElement> left, right;
  left.emplace_back(MakeSp("s1", {ids_[0]}, 1));
  left.emplace_back(JoinTuple(1, 42, 1));
  right.emplace_back(MakeSp("s2", {ids_[1]}, 1));
  right.emplace_back(JoinTuple(100, 42, 2));
  for (auto probe : {SaJoinOptions::ProbeMethod::kProbeAndFilter,
                     SaJoinOptions::ProbeMethod::kFilterAndProbe}) {
    SaJoinOptions o = Options();
    o.probe_method = probe;
    auto r = RunBinary(&ctx_, left, right, [&](Pipeline* p) {
      return p->Add<SaJoinNl>(o);
    });
    EXPECT_TRUE(r.tuples.empty());
    EXPECT_TRUE(r.sps.empty());
  }
}

TEST_F(SaJoinTest, KeyMismatchNoResult) {
  std::vector<StreamElement> left, right;
  left.emplace_back(MakeSp("s1", {ids_[0]}, 1));
  left.emplace_back(JoinTuple(1, 42, 1));
  right.emplace_back(MakeSp("s2", {ids_[0]}, 1));
  right.emplace_back(JoinTuple(100, 43, 2));
  auto r = RunBinary(&ctx_, left, right, [&](Pipeline* p) {
    return p->Add<SaJoinNl>(Options());
  });
  EXPECT_TRUE(r.tuples.empty());
}

TEST_F(SaJoinTest, PerSideWindowsExpireIndependently) {
  // Left window wide (1000), right narrow (10): an old LEFT tuple still
  // joins with a fresh right tuple, but an equally old RIGHT tuple has
  // already expired from its narrow window.
  SaJoinOptions o = Options();
  o.left_window_size = 1000;
  o.right_window_size = 10;
  std::vector<StreamElement> left, right;
  left.emplace_back(MakeSp("s1", {ids_[0]}, 1));
  left.emplace_back(JoinTuple(1, 42, 1));      // old left: survives (W=1000)
  right.emplace_back(MakeSp("s2", {ids_[0]}, 1));
  right.emplace_back(JoinTuple(100, 43, 1));   // old right: expires (W=10)
  right.emplace_back(JoinTuple(101, 42, 100)); // fresh right: joins old left
  left.emplace_back(JoinTuple(2, 43, 101));    // probes for expired right
  auto r = RunBinary(&ctx_, left, right, [&](Pipeline* p) {
    return p->Add<SaJoinNl>(o);
  });
  ASSERT_EQ(r.tuples.size(), 1u);
  EXPECT_EQ(r.tuples[0].values[1], Value(int64_t{1}));  // left tid 1 joined
}

TEST_F(SaJoinTest, WindowInvalidationExpiresOldTuples) {
  std::vector<StreamElement> left, right;
  left.emplace_back(MakeSp("s1", {ids_[0]}, 1));
  left.emplace_back(JoinTuple(1, 42, 1));      // will expire
  right.emplace_back(MakeSp("s2", {ids_[0]}, 1));
  right.emplace_back(JoinTuple(100, 42, 500)); // ts 500, window 100
  auto r = RunBinary(&ctx_, left, right, [&](Pipeline* p) {
    return p->Add<SaJoinNl>(Options(/*window=*/100));
  });
  EXPECT_TRUE(r.tuples.empty());
}

TEST_F(SaJoinTest, SegmentSpsPurgedWithLastTuple) {
  Pipeline pipeline(&ctx_);
  std::vector<StreamElement> left, right;
  left.emplace_back(MakeSp("s1", {ids_[0]}, 1));
  left.emplace_back(JoinTuple(1, 1, 1));
  left.emplace_back(MakeSp("s1", {ids_[1]}, 400));
  left.emplace_back(JoinTuple(2, 2, 400));
  right.emplace_back(MakeSp("s2", {ids_[0]}, 1));
  right.emplace_back(JoinTuple(100, 9, 450));  // invalidates left ts<=350

  auto* l = pipeline.Add<SourceOperator>("l", std::move(left));
  auto* rs = pipeline.Add<SourceOperator>("r", std::move(right));
  auto* join = pipeline.Add<SaJoinNl>(Options(/*window=*/100));
  auto* sink = pipeline.Add<CollectorSink>();
  l->AddOutput(join, 0);
  rs->AddOutput(join, 1);
  join->AddOutput(sink);
  pipeline.Run();
  // Left window: first segment fully expired (and its sp purged); only the
  // second remains.
  EXPECT_EQ(join->left_window().segment_count(), 1u);
  EXPECT_EQ(join->left_window().tuple_count(), 1u);
  ASSERT_EQ(join->left_window().segments().front().sps.size(), 1u);
  EXPECT_EQ(join->left_window().segments().front().sps[0].ts(), 400);
}

TEST_F(SaJoinTest, SharedPolicyExtendsSegmentNotNewOne) {
  Pipeline pipeline(&ctx_);
  std::vector<StreamElement> left;
  left.emplace_back(MakeSp("s1", {ids_[0]}, 1));
  for (int i = 0; i < 5; ++i) left.emplace_back(JoinTuple(i, i, i + 1));
  auto* l = pipeline.Add<SourceOperator>("l", std::move(left));
  auto* rs = pipeline.Add<SourceOperator>(
      "r", std::vector<StreamElement>{});
  auto* join = pipeline.Add<SaJoinNl>(Options());
  auto* sink = pipeline.Add<CollectorSink>();
  l->AddOutput(join, 0);
  rs->AddOutput(join, 1);
  join->AddOutput(sink);
  pipeline.Run();
  EXPECT_EQ(join->left_window().segment_count(), 1u);
  EXPECT_EQ(join->left_window().tuple_count(), 5u);
}

TEST_F(SaJoinTest, OutputSpSharedAcrossSamePolicyResults) {
  std::vector<StreamElement> left, right;
  left.emplace_back(MakeSp("s1", {ids_[0]}, 1));
  left.emplace_back(JoinTuple(1, 7, 1));
  left.emplace_back(JoinTuple(2, 7, 2));
  right.emplace_back(MakeSp("s2", {ids_[0]}, 1));
  right.emplace_back(JoinTuple(100, 7, 3));
  right.emplace_back(JoinTuple(101, 7, 4));
  auto r = RunBinary(&ctx_, left, right, [&](Pipeline* p) {
    return p->Add<SaJoinNl>(Options());
  });
  EXPECT_EQ(r.tuples.size(), 4u);
  EXPECT_EQ(r.sps.size(), 1u);  // one shared output sp for all 4 results
}

// ---- Equivalence properties across all four variants ---------------------

struct VariantParam {
  bool index;
  SaJoinOptions::ProbeMethod probe;
  bool skipping;
  const char* name;
};

class SaJoinEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SaJoinEquivalence, AllVariantsProduceIdenticalJoins) {
  RoleCatalog roles;
  StreamCatalog streams;
  ExecContext ctx{&roles, &streams};

  JoinWorkloadOptions wopts;
  wopts.tuples_per_stream = 400;
  wopts.tuples_per_sp = 7;
  wopts.sp_selectivity = 0.5;
  wopts.join_key_cardinality = 12;
  wopts.roles_per_policy = 3;
  wopts.seed = GetParam();
  JoinWorkload wl = GenerateJoinWorkload(&roles, wopts);

  auto run = [&](bool index, SaJoinOptions::ProbeMethod probe,
                 bool skipping) {
    SaJoinOptions o;
    o.window_size = 50;
    o.left_key_col = 0;
    o.right_key_col = 0;
    o.left_stream_name = wopts.left_stream;
    o.right_stream_name = wopts.right_stream;
    o.probe_method = probe;
    o.use_skipping_rule = skipping;
    Pipeline pipeline(&ctx);
    auto* l = pipeline.Add<SourceOperator>("l", wl.left);
    auto* r = pipeline.Add<SourceOperator>("r", wl.right);
    Operator* join;
    if (index) {
      join = pipeline.Add<SaJoinIndex>(o);
    } else {
      join = pipeline.Add<SaJoinNl>(o);
    }
    auto* sink = pipeline.Add<CollectorSink>();
    l->AddOutput(join, 0);
    r->AddOutput(join, 1);
    join->AddOutput(sink);
    pipeline.Run();
    std::multiset<std::pair<int64_t, int64_t>> canon;
    for (const Tuple& t : sink->Tuples()) {
      canon.emplace(t.values[1].int64(), t.values[3].int64());
    }
    return canon;
  };

  auto nl_pf = run(false, SaJoinOptions::ProbeMethod::kProbeAndFilter, true);
  auto nl_fp = run(false, SaJoinOptions::ProbeMethod::kFilterAndProbe, true);
  auto idx_skip =
      run(true, SaJoinOptions::ProbeMethod::kProbeAndFilter, true);
  auto idx_noskip =
      run(true, SaJoinOptions::ProbeMethod::kProbeAndFilter, false);

  EXPECT_FALSE(nl_pf.empty()) << "degenerate workload";
  EXPECT_EQ(nl_pf, nl_fp);
  EXPECT_EQ(nl_pf, idx_skip);
  EXPECT_EQ(nl_pf, idx_noskip);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaJoinEquivalence,
                         ::testing::Values(1, 7, 42, 1234, 9999));

TEST_F(SaJoinTest, SkippingRuleReducesScanWorkWithOverlappingRoles) {
  // Policies sharing several roles: without the skipping rule the probe
  // walks the same entries once per common role.
  std::vector<StreamElement> left, right;
  right.emplace_back(MakeSp("s2", {ids_[0], ids_[1], ids_[2]}, 1));
  for (int i = 0; i < 50; ++i) right.emplace_back(JoinTuple(i, i % 5, i + 1));
  left.emplace_back(MakeSp("s1", {ids_[0], ids_[1], ids_[2]}, 1));
  for (int i = 0; i < 50; ++i) {
    left.emplace_back(JoinTuple(100 + i, i % 5, i + 1));
  }

  auto run = [&](bool skipping) {
    SaJoinOptions o = Options(/*window=*/1000);
    o.use_skipping_rule = skipping;
    Pipeline pipeline(&ctx_);
    auto* l = pipeline.Add<SourceOperator>("l", left);
    auto* r = pipeline.Add<SourceOperator>("r", right);
    auto* join = pipeline.Add<SaJoinIndex>(o);
    auto* sink = pipeline.Add<CollectorSink>();
    l->AddOutput(join, 0);
    r->AddOutput(join, 1);
    join->AddOutput(sink);
    pipeline.Run();
    return std::make_pair(join->segments_processed(),
                          sink->Tuples().size());
  };
  auto [proc_skip, out_skip] = run(true);
  auto [proc_noskip, out_noskip] = run(false);
  EXPECT_EQ(out_skip, out_noskip);       // identical results
  // Policies share 3 roles, so the naive probe processes each compatible
  // segment three times; Lemma 5.1 processes it once.
  EXPECT_LT(proc_skip, proc_noskip);
  EXPECT_NEAR(static_cast<double>(proc_noskip) / proc_skip, 3.0, 0.2);
}

TEST_F(SaJoinTest, OutputPolicyIsIntersectionOfBasePolicies) {
  std::vector<StreamElement> left, right;
  left.emplace_back(MakeSp("s1", {ids_[0], ids_[1], ids_[2]}, 1));
  left.emplace_back(JoinTuple(1, 5, 1));
  right.emplace_back(MakeSp("s2", {ids_[1], ids_[2], ids_[3]}, 1));
  right.emplace_back(JoinTuple(2, 5, 2));
  auto r = RunBinary(&ctx_, left, right, [&](Pipeline* p) {
    return p->Add<SaJoinIndex>(Options());
  });
  ASSERT_EQ(r.tuples.size(), 1u);
  ASSERT_EQ(r.sps.size(), 1u);
  EXPECT_EQ(r.sps[0].roles(), RoleSet::FromIds({ids_[1], ids_[2]}));
}

TEST_F(SaJoinTest, MetricsBreakdownPopulated) {
  JoinWorkloadOptions wopts;
  wopts.tuples_per_stream = 200;
  wopts.seed = 5;
  RoleCatalog roles;
  StreamCatalog streams;
  ExecContext ctx{&roles, &streams};
  JoinWorkload wl = GenerateJoinWorkload(&roles, wopts);
  Pipeline pipeline(&ctx);
  auto* l = pipeline.Add<SourceOperator>("l", wl.left);
  auto* r = pipeline.Add<SourceOperator>("r", wl.right);
  SaJoinOptions o;
  o.window_size = 50;
  o.left_stream_name = "s1";
  o.right_stream_name = "s2";
  auto* join = pipeline.Add<SaJoinIndex>(o);
  auto* sink = pipeline.Add<CollectorSink>();
  l->AddOutput(join, 0);
  r->AddOutput(join, 1);
  join->AddOutput(sink);
  pipeline.Run();
  const OperatorMetrics& m = join->metrics();
  EXPECT_EQ(m.tuples_in, 400);
  EXPECT_GT(m.sps_in, 0);
  EXPECT_GT(m.total_nanos, 0);
  EXPECT_GT(m.join_nanos, 0);
  EXPECT_GT(m.tuple_maintenance_nanos, 0);
  EXPECT_GT(m.peak_state_bytes, 0);
}

// The join refreshes its state gauge per tuple, so the peak it reports is
// a property of the input sequence, not of how that sequence was batched.
// The input peaks mid-run: the right side's last tuple expires the whole
// left window, so a gauge sampled only at batch ends would miss the peak.
TEST_F(SaJoinTest, PeakStateIndependentOfBatchSize) {
  std::vector<std::pair<int, StreamElement>> input;
  for (int port = 0; port < 2; ++port) {
    input.emplace_back(port, MakeSp(port == 0 ? "s1" : "s2", {ids_[0]}, 1));
    for (TupleId i = 0; i < 40; ++i) {
      input.emplace_back(port, JoinTuple(port * 100 + i, i % 5,
                                         static_cast<Timestamp>(1 + i)));
    }
  }
  input.emplace_back(1, JoinTuple(999, 0, 1000));
  // Feed `input` in batches of up to `batch` elements, cut at port
  // switches, so every batch size sees the same element sequence.
  auto peak_at = [&](size_t batch) {
    Pipeline pipeline(&ctx_);
    auto* join = pipeline.Add<SaJoinIndex>(Options(/*window=*/100));
    auto* sink = pipeline.Add<CollectorSink>();
    join->AddOutput(sink);
    ElementBatch buf;
    int buf_port = 0;
    for (const auto& [port, elem] : input) {
      if (port != buf_port || buf.size() >= batch) {
        join->PushBatch(std::move(buf), buf_port);
        buf = ElementBatch();
        buf_port = port;
      }
      buf.push_back(elem);
    }
    join->PushBatch(std::move(buf), buf_port);
    EXPECT_GT(sink->Tuples().size(), 0u);
    return join->metrics().peak_state_bytes;
  };
  const int64_t peak1 = peak_at(1);
  EXPECT_GT(peak1, 0);
  EXPECT_EQ(peak_at(64), peak1);
}

}  // namespace
}  // namespace spstream

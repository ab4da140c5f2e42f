#include "exec/sajoin.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>

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

// ---- Key-hashed probe, state gauge and durable state -----------------------

// An interleaved two-port input: (port, element) in arrival order.
using PortedInput = std::vector<std::pair<int, StreamElement>>;

enum class Variant { kIndexSkip, kIndexNaive, kNlProbeFilter };

Operator* AddJoin(Pipeline* p, Variant v, SaJoinOptions o) {
  switch (v) {
    case Variant::kIndexSkip:
      o.use_skipping_rule = true;
      return p->Add<SaJoinIndex>(o);
    case Variant::kIndexNaive:
      o.use_skipping_rule = false;
      return p->Add<SaJoinIndex>(o);
    case Variant::kNlProbeFilter:
      o.probe_method = SaJoinOptions::ProbeMethod::kProbeAndFilter;
      return p->Add<SaJoinNl>(o);
  }
  return nullptr;
}

// Push `input[begin, end)` into `join` one element per batch.
void Feed(Operator* join, const PortedInput& input, size_t begin,
          size_t end) {
  for (size_t i = begin; i < end; ++i) {
    ElementBatch b;
    b.push_back(input[i].second);
    join->PushBatch(std::move(b), input[i].first);
  }
}

// Join results as (left tid, right tid, ts) in emission order.
std::vector<std::tuple<int64_t, int64_t, Timestamp>> Sequence(
    const std::vector<Tuple>& tuples) {
  std::vector<std::tuple<int64_t, int64_t, Timestamp>> out;
  for (const Tuple& t : tuples) {
    out.emplace_back(t.values[1].int64(), t.values[3].int64(), t.ts);
  }
  return out;
}

// Seeded input with a fresh random policy (1-2 of 4 roles) every few tuples
// per port, so windows hold several segments that share roles. `key` draws
// each tuple's join key.
template <typename KeyFn>
PortedInput RandomJoinInput(const std::vector<RoleId>& ids, uint64_t seed,
                            int tuples, KeyFn key) {
  Rng rng(seed);
  PortedInput input;
  Timestamp ts = 1;
  for (int i = 0; i < tuples; ++i) {
    const int port = static_cast<int>(rng.Next() % 2);
    if (rng.Next() % 6 == 0 || i < 2) {
      std::vector<RoleId> roles = {ids[rng.Next() % 4], ids[rng.Next() % 4]};
      input.emplace_back(port,
                         MakeSp(port == 0 ? "s1" : "s2", roles, ts));
    }
    ts += static_cast<Timestamp>(rng.Next() % 3);
    const TupleId tid = static_cast<TupleId>(port * 100000 + i);
    input.emplace_back(
        port, Tuple(0, tid, {key(rng), Value(static_cast<int64_t>(tid))}, ts));
  }
  return input;
}

// The gauge covers the index join's SPIndexes: on the same input its state
// bytes exceed the nested-loop join's, which holds the same windows and
// trackers and no index. The naive mode keeps no key maps, so its excess
// is the SPIndexes alone.
TEST_F(SaJoinTest, IndexJoinStateBytesCountTheSpIndex) {
  const PortedInput input = RandomJoinInput(ids_, 3, 300, [](Rng& r) {
    return Value(static_cast<int64_t>(r.Next() % 8));
  });
  auto peak = [&](Variant v) {
    Pipeline pipeline(&ctx_);
    Operator* join = AddJoin(&pipeline, v, Options(/*window=*/60));
    auto* sink = pipeline.Add<CollectorSink>();
    join->AddOutput(sink);
    Feed(join, input, 0, input.size());
    EXPECT_GT(sink->Tuples().size(), 0u);
    return join->metrics().peak_state_bytes;
  };
  const int64_t nl = peak(Variant::kNlProbeFilter);
  EXPECT_GT(peak(Variant::kIndexNaive), nl);
  EXPECT_GT(peak(Variant::kIndexSkip), peak(Variant::kIndexNaive));
}

// Checkpoint (full, then an incremental delta) mid-run, restore into a fresh
// operator, and continue: the output must be exactly the uncrashed run's.
// The continuation starts with fresh sps because restored trackers are
// fail-closed until one arrives.
TEST_F(SaJoinTest, DurableStateRoundTripMatchesUncrashedRun) {
  PortedInput input = RandomJoinInput(ids_, 11, 400, [](Rng& r) {
    return Value(static_cast<int64_t>(r.Next() % 6));
  });
  // Cut the full checkpoint where each port's last element is a tuple, and
  // let both ports' next tuples extend those tail segments: the delta then
  // carries tail appends as well as the new segments that follow.
  size_t full_at = input.size() * 2 / 5;
  auto last_is_tuple = [&](int port) {
    for (size_t i = full_at; i-- > 0;) {
      if (input[i].first == port) return input[i].second.is_tuple();
    }
    return false;
  };
  while (!last_is_tuple(0) || !last_is_tuple(1)) ++full_at;
  const Timestamp cut_ts = input[full_at - 1].second.ts();
  PortedInput appends;
  for (int i = 0; i < 6; ++i) {
    const TupleId tid = static_cast<TupleId>(900000 + i);
    appends.emplace_back(i % 2, JoinTuple(tid, i / 2, cut_ts));
  }
  input.insert(input.begin() + static_cast<std::ptrdiff_t>(full_at),
               appends.begin(), appends.end());
  const size_t delta_at = full_at + 40;
  // Newer than any sp so far: an sp tying an open (not yet applied) batch
  // would join that batch in the uncrashed run, while the restore drops it.
  const Timestamp resume_ts = input[delta_at - 1].second.ts() + 1;
  input.insert(
      input.begin() + static_cast<std::ptrdiff_t>(delta_at),
      {{0, StreamElement(MakeSp("s1", {ids_[0], ids_[1]}, resume_ts))},
       {1, StreamElement(MakeSp("s2", {ids_[1], ids_[2]}, resume_ts))}});

  for (Variant v :
       {Variant::kIndexSkip, Variant::kIndexNaive, Variant::kNlProbeFilter}) {
    SCOPED_TRACE(static_cast<int>(v));
    const SaJoinOptions o = Options(/*window=*/80);
    Pipeline oracle_pipeline(&ctx_);
    Operator* oracle = AddJoin(&oracle_pipeline, v, o);
    auto* oracle_sink = oracle_pipeline.Add<CollectorSink>();
    oracle->AddOutput(oracle_sink);
    Feed(oracle, input, 0, input.size());

    Pipeline crashed_pipeline(&ctx_);
    Operator* crashed = AddJoin(&crashed_pipeline, v, o);
    auto* crashed_sink = crashed_pipeline.Add<CollectorSink>();
    crashed->AddOutput(crashed_sink);
    Feed(crashed, input, 0, full_at);
    std::string full, delta;
    crashed->CheckpointState(&full, /*full=*/true);
    crashed->OnCheckpointDurable();
    Feed(crashed, input, full_at, delta_at);
    crashed->CheckpointState(&delta, /*full=*/false);
    crashed->OnCheckpointDurable();
    ASSERT_FALSE(delta.empty());

    Pipeline restored_pipeline(&ctx_);
    Operator* restored = AddJoin(&restored_pipeline, v, o);
    auto* restored_sink = restored_pipeline.Add<CollectorSink>();
    restored->AddOutput(restored_sink);
    ASSERT_TRUE(restored->RestoreState(full).ok());
    ASSERT_TRUE(restored->RestoreState(delta).ok());
    restored->OnRestoreComplete();
    Feed(restored, input, delta_at, input.size());

    auto expected = Sequence(oracle_sink->Tuples());
    auto got = Sequence(crashed_sink->Tuples());
    const size_t before_restore = got.size();
    for (const auto& r : Sequence(restored_sink->Tuples())) got.push_back(r);
    EXPECT_GT(before_restore, 0u);
    EXPECT_GT(got.size(), before_restore) << "nothing joined after restore";
    EXPECT_EQ(got, expected);
  }
}

// Key lookup answers exactly what the scan answers, for every key kind: an
// int64 key must still meet an equal double (cross-kind numeric equality),
// and strings and nulls go through the scan. The naive mode scans, and its
// segment visit order is the skipping rule's, so the two index modes must
// agree as exact sequences; the nested-loop join as a multiset.
TEST_F(SaJoinTest, KeyLookupMatchesScanAcrossKeyKinds) {
  for (uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    SCOPED_TRACE(seed);
    const PortedInput input =
        RandomJoinInput(ids_, seed, 600, [&](Rng& r) -> Value {
          const int64_t k = static_cast<int64_t>(r.Next() % 6);
          switch (r.Next() % 40) {
            case 0: return Value(static_cast<double>(k));
            case 1: return Value(std::to_string(k));
            case 2: return Value::Null();
            default: return Value(k);
          }
        });
    auto run = [&](Variant v) {
      Pipeline pipeline(&ctx_);
      Operator* join = AddJoin(&pipeline, v, Options(/*window=*/40));
      auto* sink = pipeline.Add<CollectorSink>();
      join->AddOutput(sink);
      Feed(join, input, 0, input.size());
      return Sequence(sink->Tuples());
    };
    const auto lookup = run(Variant::kIndexSkip);
    const auto scan = run(Variant::kIndexNaive);
    auto nl = run(Variant::kNlProbeFilter);
    EXPECT_FALSE(lookup.empty());
    EXPECT_EQ(lookup, scan);
    auto sorted = lookup;
    std::sort(sorted.begin(), sorted.end());
    std::sort(nl.begin(), nl.end());
    EXPECT_EQ(sorted, nl);
  }
}

// One policy per side for 20 windows: each side's window is one long-lived
// segment. Its key map must compact stale positions (memory O(resident)),
// and once both windows drain the state bytes equal those of an operator
// that only ever saw the draining tuples.
TEST_F(SaJoinTest, LongLivedSegmentKeyMapStaysBounded) {
  constexpr Timestamp kWindow = 50;
  constexpr size_t kSlack = 64;
  PortedInput head;
  head.emplace_back(0, MakeSp("s1", {ids_[0]}, 1));
  head.emplace_back(1, MakeSp("s2", {ids_[0]}, 1));
  PortedInput body;
  Rng rng(9);
  for (Timestamp ts = 1; ts <= 20 * kWindow; ++ts) {
    for (int port = 0; port < 2; ++port) {
      const TupleId tid = static_cast<TupleId>(port * 100000 + ts);
      body.emplace_back(
          port, JoinTuple(tid, static_cast<int64_t>(rng.Next() % 16), ts));
    }
  }
  // The first drains window 1, the second window 0.
  PortedInput drain;
  drain.emplace_back(0, JoinTuple(7, 0, 30 * kWindow));
  drain.emplace_back(1, JoinTuple(100007, 1, 40 * kWindow));

  Pipeline pipeline(&ctx_);
  auto* join = pipeline.Add<SaJoinIndex>(Options(kWindow));
  auto* sink = pipeline.Add<CollectorSink>();
  join->AddOutput(sink);
  Feed(join, head, 0, head.size());
  for (size_t i = 0; i < body.size(); ++i) {
    Feed(join, body, i, i + 1);
    for (const SegmentedWindow* w :
         {&join->left_window(), &join->right_window()}) {
      ASSERT_LE(w->segment_count(), 1u);
      for (const Segment& seg : w->segments()) {
        ASSERT_LE(seg.keys.stored_positions(), 2 * seg.tuples.size() + kSlack)
            << "at element " << i;
      }
    }
  }
  EXPECT_GT(sink->Tuples().size(), 0u);
  Feed(join, drain, 0, drain.size());
  EXPECT_EQ(join->left_window().MemoryBytes(),
            SegmentedWindow(kWindow).MemoryBytes());

  Pipeline fresh_pipeline(&ctx_);
  auto* fresh = fresh_pipeline.Add<SaJoinIndex>(Options(kWindow));
  fresh->AddOutput(fresh_pipeline.Add<CollectorSink>());
  Feed(fresh, head, 0, head.size());
  Feed(fresh, drain, 0, drain.size());
  EXPECT_EQ(join->metrics().state_bytes, fresh->metrics().state_bytes);
}

}  // namespace
}  // namespace spstream

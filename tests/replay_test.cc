#include "exec/replay.h"

#include <gtest/gtest.h>

#include "exec/sa_select.h"
#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;
using sptest::MakeTuple;

class ReplayTest : public ::testing::Test {
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

TEST_F(ReplayTest, CountsAndLatenciesRecorded) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  for (int i = 0; i < 100; ++i) {
    input.emplace_back(MakeTuple(i, {i}, i + 1));
  }
  Pipeline pipeline(&ctx_);
  auto* src = pipeline.Add<PushSource>("src");
  auto* sink = pipeline.Add<LatencySink>();
  src->AddOutput(sink);
  const double wall_ms = ReplayWithLatency({src, std::move(input)}, sink);
  EXPECT_EQ(sink->tuples(), 100);
  EXPECT_EQ(sink->latencies_nanos().size(), 100u);
  EXPECT_GT(wall_ms, 0.0);
  for (int64_t lat : sink->latencies_nanos()) {
    EXPECT_GE(lat, 0);
  }
}

TEST_F(ReplayTest, SummaryPercentilesOrdered) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  for (int i = 0; i < 500; ++i) {
    input.emplace_back(MakeTuple(i, {i}, i + 1));
  }
  Pipeline pipeline(&ctx_);
  auto* src = pipeline.Add<PushSource>("src");
  auto* sel = pipeline.Add<SaSelect>(Expr::Compare(
      Expr::CmpOp::kGe, Expr::Column(0), Expr::Literal(Value(0))));
  auto* sink = pipeline.Add<LatencySink>();
  src->AddOutput(sel);
  sel->AddOutput(sink);
  ReplayWithLatency({src, std::move(input)}, sink);
  LatencySummary s = sink->Summarize();
  EXPECT_EQ(s.count, 500u);
  EXPECT_LE(s.p50_us, s.p95_us);
  EXPECT_LE(s.p95_us, s.p99_us);
  EXPECT_LE(s.p99_us, s.max_us);
  EXPECT_GT(s.mean_us, 0.0);
  EXPECT_NE(s.ToString().find("n=500"), std::string::npos);
}

TEST_F(ReplayTest, EmptySummaryIsZeros) {
  Pipeline pipeline(&ctx_);
  auto* sink = pipeline.Add<LatencySink>();
  LatencySummary s = sink->Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max_us, 0.0);
}

TEST_F(ReplayTest, ArrivalRatePacesReplay) {
  std::vector<StreamElement> input;
  input.emplace_back(MakeSp("s", {ids_[0]}, 1));
  for (int i = 0; i < 200; ++i) {
    input.emplace_back(MakeTuple(i, {i}, i + 1));
  }
  Pipeline pipeline(&ctx_);
  auto* src = pipeline.Add<PushSource>("src");
  auto* sink = pipeline.Add<LatencySink>();
  src->AddOutput(sink);
  ReplayOptions opts;
  opts.arrival_rate_per_ms = 100;  // 201 elements at 100/ms => >= ~2 ms
  const double wall_ms = ReplayWithLatency({src, std::move(input)}, sink, opts);
  EXPECT_GE(wall_ms, 1.5);
}

}  // namespace
}  // namespace spstream

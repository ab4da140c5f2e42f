// Observability layer tests: histogram percentile math, registry
// aggregation semantics, audit-ring wraparound, exporter formats, and the
// end-to-end invariant that every security drop has a denial audit event.
#include <gtest/gtest.h>

#include "common/audit_log.h"
#include "common/fault.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "common/metrics_registry.h"
#include "engine/engine.h"
#include "workload/health_streams.h"

namespace spstream {
namespace {

// ---- Histogram -----------------------------------------------------------

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (int64_t v = 0; v < 16; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 16);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 15);
  // Values below kLinearBuckets land in exact unit buckets, so quantiles
  // carry no bucketing error at all.
  EXPECT_EQ(h.Percentile(1.0), 15);
  EXPECT_EQ(h.P50(), 7);
}

TEST(HistogramTest, BucketBoundsAreConsistent) {
  // Every value must fall into a bucket whose upper bound is >= the value,
  // and the previous bucket's bound must be < the value.
  for (int64_t v : std::vector<int64_t>{0, 1, 15, 16, 17, 100, 1023, 1024,
                                        999999, 123456789,
                                        int64_t{1} << 40}) {
    const int idx = Histogram::BucketIndex(v);
    EXPECT_GE(Histogram::BucketUpperBound(idx), v) << "value " << v;
    if (idx > 0) {
      EXPECT_LT(Histogram::BucketUpperBound(idx - 1), v) << "value " << v;
    }
  }
}

TEST(HistogramTest, PercentilesWithinLogBucketTolerance) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  // Log-linear buckets with 4 sub-buckets bound quantile error at 12.5%.
  EXPECT_NEAR(static_cast<double>(h.P50()), 500.0, 500.0 * 0.125);
  EXPECT_NEAR(static_cast<double>(h.P90()), 900.0, 900.0 * 0.125);
  EXPECT_NEAR(static_cast<double>(h.P99()), 990.0, 990.0 * 0.125);
  // Quantiles clamp to the observed range: never above the true max.
  EXPECT_LE(h.Percentile(1.0), 1000);
  EXPECT_GE(h.P50(), 1);
}

TEST(HistogramTest, MergeAndReset) {
  Histogram a, b;
  a.Record(10);
  a.Record(20);
  b.Record(5);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4);
  EXPECT_EQ(a.min(), 5);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_EQ(a.sum(), 1035);
  a.Reset();
  EXPECT_EQ(a.count(), 0);
  EXPECT_EQ(a.min(), 0);
  EXPECT_EQ(a.Percentile(0.5), 0);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-42);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

// ---- OperatorMetrics -----------------------------------------------------

TEST(OperatorMetricsTest, MergeTakesMaxOfPeaks) {
  // Regression: peaks are high-water marks, not flows — merging two
  // operators must not sum their peak footprints.
  OperatorMetrics a, b;
  a.state_bytes = 100;
  a.peak_state_bytes = 700;
  b.state_bytes = 50;
  b.peak_state_bytes = 300;
  a.Merge(b);
  EXPECT_EQ(a.state_bytes, 150);
  EXPECT_EQ(a.peak_state_bytes, 700);
}

// ---- MetricsRegistry -----------------------------------------------------

TEST(MetricsRegistryTest, CountersAndGauges) {
  MetricsRegistry reg;
  reg.AddCounter("runs");
  reg.AddCounter("runs", 2);
  reg.SetGauge("queries", 7);
  reg.SetGauge("queries", 5);  // gauges overwrite
  EXPECT_EQ(reg.CounterValue("runs"), 3);
  EXPECT_EQ(reg.GaugeValue("queries"), 5);
  EXPECT_EQ(reg.CounterValue("missing"), 0);
  auto snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("runs"), 3);
  EXPECT_EQ(snap.gauges.at("queries"), 5);
}

TEST(MetricsRegistryTest, LiveOperatorOverwritesNotAccumulates) {
  // Long-lived pipelines report cumulative values, so each harvest
  // *replaces* the live entry — otherwise totals would double-count.
  MetricsRegistry reg;
  OperatorMetrics m;
  m.tuples_in = 10;
  reg.UpdateLiveOperator("q0", "SS", m);
  m.tuples_in = 25;  // same pipeline, later epoch: cumulative value grew
  reg.UpdateLiveOperator("q0", "SS", m);
  auto snap = reg.Snapshot();
  const QueryMetricsSnapshot* q = snap.FindQuery("q0");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->totals.tuples_in, 25);
}

TEST(MetricsRegistryTest, RetireFoldsLiveIntoLifetimeTotals) {
  // A rebuilt pipeline starts its counters at zero; retiring the old
  // generation keeps the query's lifetime totals intact.
  MetricsRegistry reg;
  OperatorMetrics m;
  m.tuples_in = 25;
  m.peak_state_bytes = 400;
  reg.UpdateLiveOperator("q0", "SS", m);
  reg.RetireQuery("q0");
  OperatorMetrics fresh;  // new pipeline generation, counters restart
  fresh.tuples_in = 5;
  fresh.peak_state_bytes = 100;
  reg.UpdateLiveOperator("q0", "SS", fresh);
  auto snap = reg.Snapshot();
  const QueryMetricsSnapshot* q = snap.FindQuery("q0");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->totals.tuples_in, 30);          // 25 retired + 5 live
  EXPECT_EQ(q->totals.peak_state_bytes, 400);  // max across generations
}

TEST(MetricsRegistryTest, EpochAndTupleLatency) {
  MetricsRegistry reg;
  reg.RecordEpochLatency("q0", 1000);
  reg.RecordEpochLatency("q0", 3000);
  Histogram local;
  local.Record(50);
  local.Record(150);
  reg.MergeTupleLatency("q0", local);
  reg.MergeTupleLatency("q0", Histogram{});  // empty merge: no-op
  auto snap = reg.Snapshot();
  const QueryMetricsSnapshot* q = snap.FindQuery("q0");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->epochs, 2);
  EXPECT_EQ(q->epoch_latency.count, 2);
  EXPECT_EQ(q->tuple_latency.count, 2);
  EXPECT_EQ(q->tuple_latency.min, 50);
}

// ---- AuditLog ------------------------------------------------------------

AuditEvent MakeEvent(AuditEventKind kind, const std::string& scope) {
  AuditEvent e;
  e.kind = kind;
  e.scope = scope;
  return e;
}

TEST(AuditLogTest, RingWraparoundKeepsNewestAndAllTimeCounts) {
  AuditLog log(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    log.Append(MakeEvent(i % 2 == 0 ? AuditEventKind::kDenial
                                    : AuditEventKind::kPolicyInstall,
                         "q" + std::to_string(i)));
  }
  EXPECT_EQ(log.total(), 10);
  EXPECT_EQ(log.retained(), 4u);
  std::vector<AuditEvent> events = log.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and only the newest four survive.
  EXPECT_EQ(events.front().seq, 6);
  EXPECT_EQ(events.back().seq, 9);
  EXPECT_EQ(events.back().scope, "q9");
  // All-time per-kind counters survive eviction.
  EXPECT_EQ(log.CountOf(AuditEventKind::kDenial), 5);
  EXPECT_EQ(log.CountOf(AuditEventKind::kPolicyInstall), 5);
  EXPECT_EQ(log.CountOf(AuditEventKind::kPlanAdapt), 0);
}

TEST(AuditLogTest, TailReturnsNewestOldestFirst) {
  AuditLog log(8);
  for (int i = 0; i < 5; ++i) {
    log.Append(MakeEvent(AuditEventKind::kDenial, "q" + std::to_string(i)));
  }
  std::vector<AuditEvent> tail = log.Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 3);
  EXPECT_EQ(tail[1].seq, 4);
  EXPECT_EQ(log.Tail(100).size(), 5u);  // capped at retained
}

TEST(AuditLogTest, ClearDropsEventsButLogStaysUsable) {
  AuditLog log(4);
  log.Append(MakeEvent(AuditEventKind::kPolicyExpire, "q0"));
  log.Clear();
  EXPECT_EQ(log.retained(), 0u);
  log.Append(MakeEvent(AuditEventKind::kDenial, "q1"));
  EXPECT_EQ(log.retained(), 1u);
}

TEST(AuditLogTest, EventJsonHasKindAndScope) {
  AuditEvent e = MakeEvent(AuditEventKind::kDenial, "q0");
  e.stream = "HeartRate";
  e.tuple_id = 42;
  const std::string json = e.ToJson();
  EXPECT_NE(json.find("\"kind\":\"denial\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"scope\":\"q0\""), std::string::npos) << json;
  EXPECT_NE(json.find("42"), std::string::npos) << json;
}

// ---- exporter formats ----------------------------------------------------

/// Minimal structural JSON check: braces/brackets balance outside strings,
/// and quotes pair up. Catches truncated or mis-nested exporter output.
bool JsonBalanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;  // skip the escaped char
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(MetricsExportTest, JsonIsStructurallyValid) {
  MetricsRegistry reg;
  reg.AddCounter("engine.run_epochs", 3);
  reg.SetGauge("engine.queries", 2);
  reg.RecordLatency("engine.run", 12345);
  OperatorMetrics m;
  m.tuples_in = 9;
  reg.UpdateLiveOperator("q0", "SS", m);
  reg.RecordEpochLatency("q0", 777);
  const std::string json = reg.Snapshot().ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"engine.run_epochs\":3"), std::string::npos);
  EXPECT_NE(json.find("\"query\":\"q0\""), std::string::npos);
  EXPECT_NE(json.find("\"tuples_in\":9"), std::string::npos);
}

TEST(MetricsExportTest, PrometheusFormat) {
  MetricsRegistry reg;
  reg.AddCounter("engine.run_epochs", 3);
  reg.RecordLatency("engine.run", 500);
  OperatorMetrics m;
  m.tuples_dropped_security = 4;
  reg.UpdateLiveOperator("q0", "SS", m);
  const std::string prom = reg.Snapshot().ToPrometheus();
  // Dots sanitize to underscores; every series carries a # TYPE line.
  EXPECT_NE(prom.find("# TYPE spstream_engine_run_epochs counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("spstream_engine_run_epochs 3"), std::string::npos);
  EXPECT_NE(prom.find("spstream_engine_run_nanos{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(
      prom.find(
          "spstream_query_tuples_dropped_security{query=\"q0\"} 4"),
      std::string::npos)
      << prom;
  // Exactly one trailing newline per line; no unterminated last line.
  EXPECT_EQ(prom.back(), '\n');
}

// ---- end-to-end through the engine ---------------------------------------

class EngineObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<SpStreamEngine>();
    engine_->RegisterRole("GP");
    engine_->RegisterRole("ND");
    ASSERT_TRUE(engine_->RegisterStream(HeartRateSchema()).ok());
    ASSERT_TRUE(engine_->RegisterSubject("dr_house", {"GP"}).ok());
    ASSERT_TRUE(engine_->RegisterSubject("nurse_joy", {"ND"}).ok());
  }

  Tuple Beat(TupleId pid, int64_t bpm, Timestamp ts) {
    return Tuple(0, pid, {Value(static_cast<int64_t>(pid)), Value(bpm)}, ts);
  }

  Status GrantGp(Timestamp ts) {
    return engine_->ExecuteInsertSp(
        "INSERT SP INTO STREAM HeartRate "
        "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = " +
        std::to_string(ts));
  }

  std::unique_ptr<SpStreamEngine> engine_;
};

TEST_F(EngineObservabilityTest, SecurityDropsMatchDenialAuditEvents) {
  // Policy grants GP only; the ND query's tuples are all denied at its
  // shield. Every denial must surface both as a registry counter and as a
  // kDenial audit event — the two must agree exactly.
  auto gp_q = engine_->RegisterQuery("dr_house",
                                     "SELECT patient_id FROM HeartRate");
  auto nd_q = engine_->RegisterQuery("nurse_joy",
                                     "SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(gp_q.ok() && nd_q.ok());
  ASSERT_TRUE(GrantGp(1).ok());
  ASSERT_TRUE(engine_
                  ->Push("HeartRate", {StreamElement(Beat(120, 72, 1)),
                                       StreamElement(Beat(121, 88, 2)),
                                       StreamElement(Beat(122, 64, 3))})
                  .ok());
  ASSERT_TRUE(engine_->Run().ok());

  EXPECT_EQ(engine_->Results(*gp_q)->size(), 3u);
  EXPECT_TRUE(engine_->Results(*nd_q)->empty());

  auto snap = engine_->SnapshotMetrics();
  EXPECT_EQ(snap.engine_totals.tuples_dropped_security,
            engine_->audit()->CountOf(AuditEventKind::kDenial));
  EXPECT_EQ(engine_->audit()->CountOf(AuditEventKind::kDenial), 3);

  // The denied query's slice carries the drops.
  const QueryMetricsSnapshot* nd =
      snap.FindQuery("q" + std::to_string(*nd_q));
  ASSERT_NE(nd, nullptr);
  EXPECT_EQ(nd->totals.tuples_dropped_security, 3);
  // Denial events carry the responsible sp and the query's predicate.
  for (const AuditEvent& e : engine_->audit()->Events()) {
    if (e.kind != AuditEventKind::kDenial) continue;
    EXPECT_EQ(e.scope, "q" + std::to_string(*nd_q));
    EXPECT_EQ(e.stream, "HeartRate");
    EXPECT_EQ(e.sp_ts, 1);
    EXPECT_NE(e.roles.find("ND"), std::string::npos) << e.ToString();
  }
}

TEST_F(EngineObservabilityTest, PolicyInstallsAreAudited) {
  auto q = engine_->RegisterQuery("dr_house",
                                  "SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(GrantGp(1).ok());
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(120, 72, 1))}).ok());
  ASSERT_TRUE(engine_->Run().ok());
  EXPECT_GE(engine_->audit()->CountOf(AuditEventKind::kPolicyInstall), 1);
  bool saw_install = false;
  for (const AuditEvent& e : engine_->audit()->Events()) {
    if (e.kind != AuditEventKind::kPolicyInstall) continue;
    saw_install = true;
    EXPECT_EQ(e.sp_ts, 1);
    EXPECT_NE(e.roles.find("GP"), std::string::npos) << e.ToString();
  }
  EXPECT_TRUE(saw_install);
}

TEST_F(EngineObservabilityTest, LatenciesAndEpochsAreRecorded) {
  auto q = engine_->RegisterQuery("dr_house",
                                  "SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(GrantGp(1).ok());
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(120, 72, 1))}).ok());
  ASSERT_TRUE(engine_->Run().ok());
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(121, 90, 2))}).ok());
  ASSERT_TRUE(engine_->Run().ok());

  auto snap = engine_->SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("engine.run_epochs"), 2);
  ASSERT_EQ(snap.histograms.count("engine.run"), 1u);
  EXPECT_EQ(snap.histograms.at("engine.run").count, 2);
  const QueryMetricsSnapshot* qs = snap.FindQuery("q" + std::to_string(*q));
  ASSERT_NE(qs, nullptr);
  EXPECT_EQ(qs->epochs, 2);
  EXPECT_EQ(qs->epoch_latency.count, 2);
  // One tuple + one sp fed in epoch 1, one tuple in epoch 2: two tuple
  // latency samples (sps are not tuple deliveries).
  EXPECT_EQ(qs->tuple_latency.count, 2);
  EXPECT_GT(qs->tuple_latency.max, 0);
}

TEST_F(EngineObservabilityTest, MetricsSurviveDeregistration) {
  auto q = engine_->RegisterQuery("dr_house",
                                  "SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(GrantGp(1).ok());
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(120, 72, 1))}).ok());
  ASSERT_TRUE(engine_->Run().ok());
  ASSERT_TRUE(engine_->DeregisterQuery(*q).ok());
  // The pipeline is gone, but its lifetime totals were retired into the
  // registry, not lost.
  auto snap = engine_->SnapshotMetrics();
  const QueryMetricsSnapshot* qs = snap.FindQuery("q" + std::to_string(*q));
  ASSERT_NE(qs, nullptr);
  EXPECT_GT(qs->totals.tuples_in, 0);
}

TEST_F(EngineObservabilityTest, QuarantineGaugeTracksLifecycleExactly) {
  // Regression: `engine.queries_quarantined` is a live population gauge.
  // It must fall back to zero when a quarantined query is recovered AND
  // when one is deregistered — before this fix, deregistering a
  // quarantined query leaked the gauge high forever.
  EngineOptions opts;
  opts.num_shards = 2;
  SpStreamEngine engine(opts);
  engine.RegisterRole("GP");
  ASSERT_TRUE(engine.RegisterStream(HeartRateSchema()).ok());
  ASSERT_TRUE(engine.RegisterSubject("dr_house", {"GP"}).ok());
  auto q = engine.RegisterQuery("dr_house",
                                "SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine
                  .ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = 1")
                  .ok());

  auto quarantine_once = [&] {
    FaultSpec spec;
    spec.trigger_on_hit = 1;  // deterministic: first worker hit faults
    ScopedFault armed(fault::kOperatorProcess, spec);
    ASSERT_TRUE(
        engine.Push("HeartRate", {StreamElement(Beat(120, 72, 2))}).ok());
    ASSERT_TRUE(engine.Run().ok());
    ASSERT_TRUE(*engine.IsQuarantined(*q));
  };

  quarantine_once();
  EXPECT_EQ(engine.metrics()->GaugeValue("engine.queries_quarantined"), 1);

  // Manual recovery releases the gauge.
  ASSERT_TRUE(engine.RecoverQuery(*q).ok());
  EXPECT_FALSE(*engine.IsQuarantined(*q));
  EXPECT_EQ(engine.metrics()->GaugeValue("engine.queries_quarantined"), 0);

  // Deregistering while quarantined releases it too.
  quarantine_once();
  EXPECT_EQ(engine.metrics()->GaugeValue("engine.queries_quarantined"), 1);
  ASSERT_TRUE(engine.DeregisterQuery(*q).ok());
  EXPECT_EQ(engine.metrics()->GaugeValue("engine.queries_quarantined"), 0);
  EXPECT_EQ(engine.quarantined_count(), 0);
}

TEST_F(EngineObservabilityTest, ExplainAnalyzeAnnotatesPlan) {
  auto q = engine_->RegisterQuery("dr_house",
                                  "SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(q.ok());
  // Before the first Run there is no pipeline to read counters from.
  auto before = engine_->ExplainQuery(*q, /*analyze=*/true);
  ASSERT_TRUE(before.ok());
  EXPECT_NE(before->find("has not executed yet"), std::string::npos);

  ASSERT_TRUE(GrantGp(1).ok());
  ASSERT_TRUE(
      engine_->Push("HeartRate", {StreamElement(Beat(120, 72, 1))}).ok());
  ASSERT_TRUE(engine_->Run().ok());

  auto after = engine_->ExplainQuery(*q, /*analyze=*/true);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->find("[actual:"), std::string::npos) << *after;
  EXPECT_NE(after->find("tuples="), std::string::npos);
  // Plain EXPLAIN stays annotation-free.
  auto plain = engine_->ExplainQuery(*q);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->find("[actual:"), std::string::npos);
}

TEST_F(EngineObservabilityTest, AuditCanBeDisabled) {
  EngineOptions opts;
  opts.enable_audit = false;
  SpStreamEngine engine(opts);
  engine.RegisterRole("GP");
  engine.RegisterRole("ND");
  ASSERT_TRUE(engine.RegisterStream(HeartRateSchema()).ok());
  ASSERT_TRUE(engine.RegisterSubject("nurse_joy", {"ND"}).ok());
  auto q = engine.RegisterQuery("nurse_joy",
                                "SELECT patient_id FROM HeartRate");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine
                  .ExecuteInsertSp(
                      "INSERT SP INTO STREAM HeartRate "
                      "LET DDP = (HeartRate, *, *), SRP = (RBAC, GP), TS = 1")
                  .ok());
  ASSERT_TRUE(
      engine.Push("HeartRate", {StreamElement(Beat(120, 72, 1))}).ok());
  ASSERT_TRUE(engine.Run().ok());
  // The drop still counts; no audit events are rendered.
  EXPECT_EQ(engine.SnapshotMetrics().engine_totals.tuples_dropped_security,
            1);
  EXPECT_EQ(engine.audit()->total(), 0);
}

}  // namespace
}  // namespace spstream

// Fault-injection suite (docs/ROBUSTNESS.md): the engine's fail-closed
// guarantee under manufactured failures.
//
// The core invariant, checked as a differential oracle over 30 seeds: with
// ANY fault site armed — shard queue pushes dropped, worker processing
// blown up, sp-batch installation faulted — the sharded engine's delivered
// results per query are a MULTISET SUBSET of the fault-free 1-shard
// oracle's over the identical workload. Faults may cost results (dropped
// epochs, quarantined queries, deny-all segments); they may never add one:
// an extra tuple would be a tuple delivered past its policy.
//
// Targeted tests pin the individual mechanisms: deterministic FaultInjector
// replay, quarantine bookkeeping + audit, the fail-closed PolicyTracker and
// its re-convergence, and the barrier's liveness when every queue push
// fails.
#include "common/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "test_util.h"

namespace spstream {
namespace {

constexpr size_t kRolePool = 6;

/// A pre-generated randomized workload: every batch is materialized up
/// front from the seed, so the fault-free oracle run and the faulted run
/// replay byte-identical inputs no matter what the injector does to the
/// engine's own control flow.
struct Workload {
  std::vector<std::vector<std::string>> subject_roles;  // per subject
  std::vector<std::pair<size_t, std::string>> queries;  // (subject, sql)
  // epochs[e] = per-stream batches pushed before epoch e runs.
  std::vector<std::map<std::string, std::vector<StreamElement>>> epochs;
};

Workload GenerateWorkload(uint64_t seed) {
  static const char* kQueryPool[] = {
      "SELECT k, v FROM A",
      "SELECT k FROM A WHERE v > 40",
      "SELECT DISTINCT k FROM A [RANGE 64]",
      "SELECT k, COUNT(*) FROM A [RANGE 64] GROUP BY k",
      "SELECT k, SUM(v) FROM A [RANGE 48] GROUP BY k",
      "SELECT u FROM B WHERE u > 10",
  };
  Rng rng(seed);
  Workload w;
  w.subject_roles.resize(2);
  for (auto& roles : w.subject_roles) {
    const size_t n = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < n; ++i) {
      roles.push_back("R" + std::to_string(rng.NextBounded(kRolePool)));
    }
  }
  const size_t nqueries = 1 + rng.NextBounded(3);
  for (size_t i = 0; i < nqueries; ++i) {
    w.queries.emplace_back(
        rng.NextBounded(w.subject_roles.size()),
        kQueryPool[rng.NextBounded(std::size(kQueryPool))]);
  }
  std::map<std::string, Timestamp> ts;
  std::map<std::string, TupleId> tid;
  const size_t epochs = 3 + rng.NextBounded(3);
  w.epochs.resize(epochs);
  for (size_t e = 0; e < epochs; ++e) {
    for (const auto& [stream, cols] :
         std::map<std::string, int>{{"A", 3}, {"B", 2}}) {
      std::vector<StreamElement>& elems = w.epochs[e][stream];
      const size_t n = 30 + rng.NextBounded(90);
      size_t emitted = 0;
      while (emitted < n) {
        std::vector<RoleId> roles;
        const size_t nr = 1 + rng.NextBounded(2);
        for (size_t i = 0; i < nr; ++i) {
          roles.push_back(static_cast<RoleId>(rng.NextBounded(kRolePool)));
        }
        elems.emplace_back(sptest::MakeSp(stream, roles, ts[stream],
                                          rng.NextBool(0.15)
                                              ? Sign::kNegative
                                              : Sign::kPositive));
        const size_t seg = 1 + rng.NextBounded(8);
        for (size_t i = 0; i < seg && emitted < n; ++i, ++emitted) {
          std::vector<int64_t> vals;
          vals.push_back(static_cast<int64_t>(rng.NextBounded(8)));
          for (int c = 1; c < cols; ++c) {
            vals.push_back(static_cast<int64_t>(rng.NextBounded(100)));
          }
          elems.emplace_back(sptest::MakeTuple(tid[stream]++, vals,
                                               ts[stream]));
          ts[stream] += 1 + rng.NextBounded(3);
        }
      }
    }
  }
  return w;
}

std::unique_ptr<SpStreamEngine> BuildEngine(const Workload& w,
                                            size_t num_shards,
                                            std::vector<QueryId>* qids) {
  EngineOptions opts;
  opts.num_shards = num_shards;
  auto engine = std::make_unique<SpStreamEngine>(std::move(opts));
  for (size_t r = 0; r < kRolePool; ++r) {
    engine->RegisterRole("R" + std::to_string(r));
  }
  EXPECT_TRUE(engine
                  ->RegisterStream(MakeSchema(
                      "A", {Field{"k", ValueType::kInt64},
                            Field{"v", ValueType::kInt64},
                            Field{"w", ValueType::kInt64}}))
                  .ok());
  EXPECT_TRUE(engine
                  ->RegisterStream(MakeSchema(
                      "B", {Field{"k", ValueType::kInt64},
                            Field{"u", ValueType::kInt64}}))
                  .ok());
  const char* kSubjects[] = {"alice", "bob"};
  for (size_t s = 0; s < w.subject_roles.size(); ++s) {
    EXPECT_TRUE(
        engine->RegisterSubject(kSubjects[s], w.subject_roles[s]).ok());
  }
  for (const auto& [subject, sql] : w.queries) {
    auto q = engine->RegisterQuery(kSubjects[subject], sql);
    EXPECT_TRUE(q.ok()) << sql << ": " << q.status().ToString();
    if (q.ok()) qids->push_back(*q);
  }
  return engine;
}

Status RunWorkload(SpStreamEngine* engine, const Workload& w) {
  for (const auto& epoch : w.epochs) {
    for (const auto& [stream, elems] : epoch) {
      std::vector<StreamElement> copy = elems;
      SP_RETURN_NOT_OK(engine->Push(stream, std::move(copy)));
    }
    SP_RETURN_NOT_OK(engine->Run());
  }
  return Status::OK();
}

std::multiset<std::string> Multiset(const std::vector<Tuple>& ts) {
  std::multiset<std::string> out;
  for (const Tuple& t : ts) out.insert(t.ToString());
  return out;
}

/// True when every element of `sub` appears in `super` with at least the
/// same multiplicity.
bool IsMultisetSubset(const std::multiset<std::string>& sub,
                      const std::multiset<std::string>& super) {
  for (auto it = sub.begin(); it != sub.end();
       it = sub.upper_bound(*it)) {
    if (sub.count(*it) > super.count(*it)) return false;
  }
  return true;
}

class FaultInjectionTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Hygiene both ways: a crashed previous test must not leak armed faults
  // in, and this test must not leak them out.
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

// The differential oracle. Each seed rotates through the fault sites, so
// the 30-seed range covers every site with ten distinct workloads and the
// CI seed matrix (SPSTREAM_FAULT_SEED) re-randomizes the draw sequence on
// top.
TEST_P(FaultInjectionTest, FaultedOutputIsSubsetOfFaultFreeOracle) {
  const uint64_t seed = GetParam();
  const Workload w = GenerateWorkload(seed);

  // Fault-free 1-shard oracle.
  std::vector<QueryId> oracle_qids;
  auto oracle = BuildEngine(w, /*num_shards=*/1, &oracle_qids);
  ASSERT_FALSE(::testing::Test::HasFailure());
  Status st = RunWorkload(oracle.get(), w);
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Faulted sharded engine over the identical workload.
  std::vector<QueryId> qids;
  const size_t num_shards = 2 + seed % 3;
  auto faulted = BuildEngine(w, num_shards, &qids);
  ASSERT_EQ(qids.size(), oracle_qids.size());

  struct SiteConfig {
    const char* site;
    FaultSpec spec;
  };
  // Probabilities are tuned to the site's hit rate: operator_process is
  // hit per element, policy.install once per sp-batch.
  const SiteConfig kConfigs[] = {
      {fault::kOperatorProcess, {/*probability=*/0.01}},
      {fault::kShardQueuePush, {/*probability=*/0.05}},
      {fault::kPolicyInstall, {/*probability=*/0.25}},
  };
  const SiteConfig& cfg = kConfigs[seed % std::size(kConfigs)];
  FaultInjector::Global().Reseed(EnvFaultSeed(0) ^
                                 (seed * 0x9e3779b97f4a7c15ULL));
  {
    ScopedFault armed(cfg.site, cfg.spec);
    // Faults must degrade results, never the engine: Run() stays OK.
    Status run = RunWorkload(faulted.get(), w);
    ASSERT_TRUE(run.ok()) << cfg.site << ": " << run.ToString();
  }

  for (size_t i = 0; i < qids.size(); ++i) {
    auto expect = oracle->Results(oracle_qids[i]);
    auto actual = faulted->Results(qids[i]);
    ASSERT_TRUE(expect.ok() && actual.ok());
    const std::string& sql = w.queries[i].second;
    const bool value_derived = sql.find("GROUP BY") != std::string::npos ||
                               sql.find("DISTINCT") != std::string::npos;
    if (std::string(cfg.site) == fault::kPolicyInstall && value_derived) {
      // A policy.install fault denies a SEGMENT of the stream, and an
      // aggregate over fewer inputs computes different values (a smaller
      // SUM is not a tuple the oracle emitted) while DISTINCT may pick a
      // different representative tid. Tuple-level subset is not the
      // invariant there; the leak-free invariant that is: every group /
      // distinct key in the faulted output was derived from some
      // authorized tuple, i.e. appears among the oracle's keys.
      std::set<std::string> oracle_keys;
      for (const Tuple& t : *expect) oracle_keys.insert(t.value(0).ToString());
      for (const Tuple& t : *actual) {
        EXPECT_TRUE(oracle_keys.count(t.value(0).ToString()) > 0)
            << "seed " << seed << " query " << sql
            << ": faulted run emitted key " << t.value(0).ToString()
            << " that no authorized tuple produced";
      }
      continue;
    }
    const auto expect_ms = Multiset(*expect);
    const auto actual_ms = Multiset(*actual);
    // THE fail-closed check: nothing the fault-free run would not deliver.
    EXPECT_TRUE(IsMultisetSubset(actual_ms, expect_ms))
        << "seed " << seed << " site " << cfg.site << " query " << sql
        << ": faulted run delivered a tuple the "
        << "fault-free oracle did not (" << actual_ms.size() << " vs "
        << expect_ms.size() << ")";
    // Quarantines must leave an audit trail.
    auto quarantined = faulted->IsQuarantined(qids[i]);
    ASSERT_TRUE(quarantined.ok());
    if (*quarantined) {
      EXPECT_GE(faulted->audit()->CountOf(AuditEventKind::kQueryQuarantine),
                1);
    }
  }
  EXPECT_EQ(faulted->quarantined_count() > 0,
            faulted->audit()->CountOf(AuditEventKind::kQueryQuarantine) > 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultInjectionTest,
                         ::testing::Range<uint64_t>(1, 31));

// ---- FaultInjector unit behaviour -------------------------------------

class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

TEST_F(FaultInjectorTest, DisabledByDefaultAndZeroStats) {
  FaultInjector& inj = FaultInjector::Global();
  EXPECT_FALSE(inj.enabled());
  EXPECT_FALSE(SP_FAULT_FIRED(fault::kOperatorProcess));
  // An un-armed site consulted directly neither fails nor counts hits.
  EXPECT_EQ(inj.StatsFor(fault::kOperatorProcess).hits, 0);
  EXPECT_EQ(inj.StatsFor(fault::kOperatorProcess).failures, 0);
}

TEST_F(FaultInjectorTest, SeededReplayIsDeterministic) {
  FaultInjector& inj = FaultInjector::Global();
  auto draw_pattern = [&] {
    inj.Reseed(1234);
    inj.Arm(fault::kNetWrite, FaultSpec{/*probability=*/0.5});
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(SP_FAULT_FIRED(fault::kNetWrite));
    }
    inj.Disarm(fault::kNetWrite);
    return fired;
  };
  const std::vector<bool> first = draw_pattern();
  const std::vector<bool> second = draw_pattern();
  EXPECT_EQ(first, second);
  EXPECT_GT(std::count(first.begin(), first.end(), true), 0);
  EXPECT_LT(std::count(first.begin(), first.end(), true), 200);
}

TEST_F(FaultInjectorTest, TriggerOnHitFiresExactlyOnce) {
  FaultInjector& inj = FaultInjector::Global();
  FaultSpec spec;
  spec.trigger_on_hit = 3;
  ScopedFault armed(fault::kPolicyInstall, spec);
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(SP_FAULT_FIRED(fault::kPolicyInstall));
  }
  EXPECT_EQ(fired, std::vector<bool>({false, false, true, false, false,
                                      false}));
  EXPECT_EQ(inj.StatsFor(fault::kPolicyInstall).hits, 6);
  EXPECT_EQ(inj.StatsFor(fault::kPolicyInstall).failures, 1);
}

TEST_F(FaultInjectorTest, MaxFailuresCapsTheDamage) {
  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_failures = 2;
  ScopedFault armed(fault::kShardQueuePush, spec);
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    if (SP_FAULT_FIRED(fault::kShardQueuePush)) ++failures;
  }
  EXPECT_EQ(failures, 2);
}

TEST_F(FaultInjectorTest, ScopedFaultDisarmsOnExit) {
  {
    ScopedFault armed(fault::kNetWrite, FaultSpec{/*probability=*/1.0});
    EXPECT_TRUE(FaultInjector::Global().enabled());
  }
  EXPECT_FALSE(FaultInjector::Global().enabled());
}

// ---- Targeted fail-closed mechanisms ----------------------------------

std::unique_ptr<SpStreamEngine> SmallEngine(size_t num_shards,
                                            QueryId* qid) {
  EngineOptions opts;
  opts.num_shards = num_shards;
  auto engine = std::make_unique<SpStreamEngine>(std::move(opts));
  engine->RegisterRole("R0");
  EXPECT_TRUE(engine
                  ->RegisterStream(MakeSchema(
                      "A", {Field{"k", ValueType::kInt64}}))
                  .ok());
  EXPECT_TRUE(engine->RegisterSubject("alice", {"R0"}).ok());
  auto q = engine->RegisterQuery("alice", "SELECT k FROM A");
  EXPECT_TRUE(q.ok());
  *qid = q.ok() ? *q : 0;
  return engine;
}

std::vector<StreamElement> Segment(Timestamp sp_ts, TupleId first_tid,
                                   size_t n) {
  std::vector<StreamElement> elems;
  elems.emplace_back(sptest::MakeSp("A", {0}, sp_ts));
  for (size_t i = 0; i < n; ++i) {
    elems.emplace_back(sptest::MakeTuple(
        first_tid + static_cast<TupleId>(i),
        {static_cast<int64_t>(i)}, sp_ts + 1 + static_cast<Timestamp>(i)));
  }
  return elems;
}

TEST_F(FaultInjectorTest, PolicyInstallFaultFailsClosedThenReconverges) {
  QueryId qid;
  auto engine = SmallEngine(/*num_shards=*/1, &qid);
  {
    FaultSpec spec;
    spec.trigger_on_hit = 1;
    ScopedFault armed(fault::kPolicyInstall, spec);
    ASSERT_TRUE(engine->Push("A", Segment(1, 0, 8)).ok());
    ASSERT_TRUE(engine->Run().ok());
  }
  // The faulted batch never took effect: deny-all, zero results — even
  // though the sp authorized every tuple.
  EXPECT_EQ(engine->Results(qid)->size(), 0u);
  EXPECT_FALSE(*engine->IsQuarantined(qid));
  // The EXPLAIN ANALYZE plan surfaces the faulted install.
  auto explain = engine->ExplainQuery(qid, /*analyze=*/true);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("policy_install_faults="), std::string::npos)
      << *explain;

  // A fresh (newer-ts) sp-batch re-converges the stream: fail-closed is a
  // degradation, not a terminal state.
  ASSERT_TRUE(engine->Push("A", Segment(100, 100, 5)).ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_EQ(engine->Results(qid)->size(), 5u);
}

TEST_F(FaultInjectorTest, WorkerFaultQuarantinesQueryWithAuditTrail) {
  QueryId qid;
  auto engine = SmallEngine(/*num_shards=*/2, &qid);
  {
    FaultSpec spec;
    spec.trigger_on_hit = 1;
    ScopedFault armed(fault::kOperatorProcess, spec);
    ASSERT_TRUE(engine->Push("A", Segment(1, 0, 16)).ok());
    ASSERT_TRUE(engine->Run().ok());  // fault degrades, never errors
  }
  // Fail-closed: the faulted epoch's entire output is discarded (a shard
  // that dropped an sp could have filtered under a stale, wider policy).
  ASSERT_TRUE(*engine->IsQuarantined(qid));
  EXPECT_EQ(engine->Results(qid)->size(), 0u);
  EXPECT_EQ(engine->quarantined_count(), 1);
  EXPECT_EQ(engine->audit()->CountOf(AuditEventKind::kQueryQuarantine), 1);
  auto explain = engine->ExplainQuery(qid);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("QUARANTINED"), std::string::npos) << *explain;

  // Quarantine isolates: the query stays fenced off on later epochs (no
  // half-initialized pipeline ever runs again) and the engine stays OK.
  ASSERT_TRUE(engine->Push("A", Segment(100, 100, 4)).ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_EQ(engine->Results(qid)->size(), 0u);
}

// Under micro-batched hand-off (default batch_size=64), a worker fault in
// the middle of a batch discards the WHOLE batch — elements earlier in the
// same batch are never fed, so not even a prefix of a faulted batch can
// reach the pipeline, and the quarantine then discards the epoch's output
// from the other, healthy shard too.
TEST_F(FaultInjectorTest, MidBatchWorkerFaultDropsWholeBatchAndQuarantines) {
  QueryId qid;
  auto engine = SmallEngine(/*num_shards=*/2, &qid);
  {
    FaultSpec spec;
    spec.trigger_on_hit = 5;  // fires mid-batch, not on the first element
    ScopedFault armed(fault::kOperatorProcess, spec);
    ASSERT_TRUE(engine->Push("A", Segment(1, 0, 40)).ok());
    ASSERT_TRUE(engine->Run().ok());  // fault degrades, never errors
  }
  ASSERT_TRUE(*engine->IsQuarantined(qid));
  EXPECT_EQ(engine->Results(qid)->size(), 0u);
  EXPECT_EQ(engine->quarantined_count(), 1);
  EXPECT_EQ(engine->audit()->CountOf(AuditEventKind::kQueryQuarantine), 1);
}

TEST_F(FaultInjectorTest, QueuePushFaultsNeverHangTheEpochBarrier) {
  QueryId qid;
  auto engine = SmallEngine(/*num_shards=*/3, &qid);
  FaultSpec spec;
  spec.probability = 1.0;  // EVERY routed batch is dropped
  ScopedFault armed(fault::kShardQueuePush, spec);
  ASSERT_TRUE(engine->Push("A", Segment(1, 0, 32)).ok());
  // The real assertion is liveness: Run() completes (barrier markers never
  // pass the fault site, so only data batches are dropped) instead of
  // deadlocking.
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_TRUE(*engine->IsQuarantined(qid));
  EXPECT_EQ(engine->Results(qid)->size(), 0u);
}

// Without worker threads (one usable CPU) the engine thread feeds every
// shard, and both shard fault sites keep their fail-closed behaviour: the
// routing fault fires in RouteBatch, the operator fault inside the task.
void ExpectOneCpuFaultQuarantines(const char* site, FaultSpec spec) {
  QueryId qid;
  std::unique_ptr<SpStreamEngine> engine;
  {
    sptest::ScopedSingleCpu pin;
    ASSERT_TRUE(pin.pinned());
    engine = SmallEngine(/*num_shards=*/2, &qid);
  }
  EXPECT_EQ(engine->SnapshotMetrics().gauges.at("engine.shard_workers"), 0);
  {
    ScopedFault armed(site, spec);
    ASSERT_TRUE(engine->Push("A", Segment(1, 0, 40)).ok());
    ASSERT_TRUE(engine->Run().ok());  // fault degrades, never errors
  }
  EXPECT_TRUE(*engine->IsQuarantined(qid)) << site;
  EXPECT_EQ(engine->Results(qid)->size(), 0u) << site;
  EXPECT_EQ(engine->quarantined_count(), 1);
  EXPECT_EQ(engine->audit()->CountOf(AuditEventKind::kQueryQuarantine), 1);
}

TEST_F(FaultInjectorTest, QueuePushFaultQuarantinesOnOneCpu) {
  FaultSpec spec;
  spec.trigger_on_hit = 1;
  ExpectOneCpuFaultQuarantines(fault::kShardQueuePush, spec);
}

TEST_F(FaultInjectorTest, OperatorProcessFaultQuarantinesOnOneCpu) {
  FaultSpec spec;
  spec.trigger_on_hit = 5;  // mid-batch
  ExpectOneCpuFaultQuarantines(fault::kOperatorProcess, spec);
}

// A group with one clone (num_shards 1) is fed on the engine thread by the
// body that feeds a shard: one operator_process draw per element fed, in
// batches of batch_size elements, each batch's wall time recorded as its
// tuples' latency, and nothing handed through a shard queue.
TEST_F(FaultInjectorTest, OneCloneGroupDrawsOncePerElementAndNeverQueues) {
  QueryId qid;
  auto engine = SmallEngine(/*num_shards=*/1, &qid);
  {
    // Armed to count hits; probability 0 never fires.
    ScopedFault process(fault::kOperatorProcess, FaultSpec{});
    ScopedFault push(fault::kShardQueuePush, FaultSpec{});
    ASSERT_TRUE(engine->Push("A", Segment(1, 0, 199)).ok());  // 200 elements
    ASSERT_TRUE(engine->Run().ok());
    const FaultInjector& inj = FaultInjector::Global();
    EXPECT_EQ(inj.StatsFor(fault::kOperatorProcess).hits, 200);
    EXPECT_EQ(inj.StatsFor(fault::kShardQueuePush).hits, 0);
  }
  EXPECT_EQ(engine->Results(qid)->size(), 199u);
  const MetricsSnapshot snap = engine->SnapshotMetrics();
  const QueryMetricsSnapshot* q = snap.FindQuery("q0");
  ASSERT_NE(q, nullptr);
  const OperatorMetrics* src = q->FindOperator("push:A");
  ASSERT_NE(src, nullptr);
  EXPECT_EQ(src->batches_in, 4);  // 64 + 64 + 64 + 8 at the default size
  EXPECT_EQ(src->batch_elements_in, 200);
  EXPECT_EQ(q->tuple_latency.count, 199);
}

// The one-clone group fails closed like a shard: a fault in its second
// batch drops that batch and the rest of the epoch, quarantines the group,
// discards the first batch's output, and the quarantine names the site.
TEST_F(FaultInjectorTest, OneCloneGroupFaultQuarantinesAndNamesTheSite) {
  QueryId qid;
  auto engine = SmallEngine(/*num_shards=*/1, &qid);
  {
    FaultSpec spec;
    spec.trigger_on_hit = 70;  // the 6th element of the second batch
    ScopedFault armed(fault::kOperatorProcess, spec);
    ASSERT_TRUE(engine->Push("A", Segment(1, 0, 199)).ok());
    ASSERT_TRUE(engine->Run().ok());  // fault degrades, never errors
    // No draw after the fault: the rest of the epoch is dropped undrawn.
    EXPECT_EQ(FaultInjector::Global().StatsFor(fault::kOperatorProcess).hits,
              70);
  }
  ASSERT_TRUE(*engine->IsQuarantined(qid));
  EXPECT_EQ(engine->Results(qid)->size(), 0u);
  EXPECT_EQ(engine->quarantined_count(), 1);
  const std::vector<AuditEvent> events = engine->audit()->Events();
  const auto quarantine =
      std::find_if(events.begin(), events.end(), [](const AuditEvent& e) {
        return e.kind == AuditEventKind::kQueryQuarantine;
      });
  ASSERT_NE(quarantine, events.end());
  EXPECT_NE(quarantine->detail.str().find(fault::kOperatorProcess),
            std::string::npos)
      << quarantine->detail.str();
}

TEST_F(FaultInjectorTest, HealthyQueriesKeepRunningNextToAQuarantinedOne) {
  EngineOptions opts;
  opts.num_shards = 2;
  SpStreamEngine engine(std::move(opts));
  engine.RegisterRole("R0");
  ASSERT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "A", {Field{"k", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "B", {Field{"k", ValueType::kInt64},
                            Field{"u", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine.RegisterSubject("alice", {"R0"}).ok());
  auto qa = engine.RegisterQuery("alice", "SELECT k FROM A");
  auto qb = engine.RegisterQuery("alice", "SELECT u FROM B");
  ASSERT_TRUE(qa.ok() && qb.ok());

  // Epoch 1 with the first processed element faulted: exactly one query
  // trips (whichever ran first); the engine itself never errors.
  {
    FaultSpec spec;
    spec.trigger_on_hit = 1;
    ScopedFault armed(fault::kOperatorProcess, spec);
    ASSERT_TRUE(engine.Push("A", Segment(1, 0, 8)).ok());
    std::vector<StreamElement> b;
    b.emplace_back(sptest::MakeSp("B", {0}, 1));
    b.emplace_back(sptest::MakeTuple(0, {1, 50}, 2));
    ASSERT_TRUE(engine.Push("B", std::move(b)).ok());
    ASSERT_TRUE(engine.Run().ok());
  }
  const bool a_quarantined = *engine.IsQuarantined(*qa);
  const bool b_quarantined = *engine.IsQuarantined(*qb);
  EXPECT_NE(a_quarantined, b_quarantined)
      << "exactly one query should have absorbed the single fault";
  EXPECT_EQ(engine.quarantined_count(), 1);

  // Epoch 2, fault disarmed: the healthy query still delivers.
  const QueryId healthy = a_quarantined ? *qb : *qa;
  const QueryId sick = a_quarantined ? *qa : *qb;
  std::vector<StreamElement> b2;
  b2.emplace_back(sptest::MakeSp("B", {0}, 100));
  b2.emplace_back(sptest::MakeTuple(10, {2, 60}, 101));
  ASSERT_TRUE(engine.Push("A", Segment(100, 100, 3)).ok());
  ASSERT_TRUE(engine.Push("B", std::move(b2)).ok());
  const size_t healthy_before = (*engine.Results(healthy)).size();
  const size_t sick_before = (*engine.Results(sick)).size();
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_GT(engine.Results(healthy)->size(), healthy_before);
  EXPECT_EQ(engine.Results(sick)->size(), sick_before);
  // The quarantine gauge survives for dashboards.
  const std::string metrics = engine.DumpMetrics(MetricsFormat::kJson);
  EXPECT_NE(metrics.find("engine.queries_quarantined"), std::string::npos);
}

}  // namespace
}  // namespace spstream

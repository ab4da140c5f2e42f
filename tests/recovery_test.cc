// Crash-recovery suite (docs/DURABILITY.md): the durable state subsystem's
// suffix-exact continuation guarantee, checked as a differential oracle.
//
// The core invariant: crash a durable engine at a seeded fault site (WAL
// append, checkpoint write, shard queue push, worker processing), open a
// fresh engine over the same data dir with NO re-registration, resume the
// workload from the recovered epoch — and the crashed run's delivered
// output concatenated with the recovered run's delivered output must equal
// the uncrashed fault-free 1-shard oracle's output EXACTLY. Not a subset:
// delivered ≡ durable means a crash may delay results, never lose or
// duplicate one, and recovery may never add a tuple past its policy.
//
// Targeted tests pin the individual mechanisms: the recovery-replay fault
// failing safe (engine runs non-durably rather than trusting a half-read
// log), the fail-closed PolicyTracker posture after restore, and catalog
// identity across restarts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "test_util.h"

namespace spstream {
namespace {

constexpr size_t kRolePool = 6;

/// Unique per-test data dir under the gtest temp root, removed on scope
/// exit so repeated runs never recover a previous run's log.
class TempDataDir {
 public:
  explicit TempDataDir(const std::string& tag) {
    // Pid-qualified: the named ctest entries run this suite in several
    // concurrent processes, which must not share data dirs.
    path_ = ::testing::TempDir() + "spstream_recovery_" + tag + "_" +
            std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ~TempDataDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A pre-generated randomized workload (same shape as the fault-injection
/// suite's): every batch is materialized up front from the seed, so the
/// oracle run, the crashed run and the recovered run replay byte-identical
/// inputs. Each epoch's per-stream batch OPENS with an sp at a fresh
/// (strictly newer) timestamp, so the recovered engine's fail-closed policy
/// posture is superseded before the first post-recovery tuple — the
/// precondition for suffix-exactness (docs/DURABILITY.md).
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
                                            size_t batch_size,
                                            const std::string& data_dir,
                                            std::vector<QueryId>* qids) {
  EngineOptions opts;
  opts.num_shards = num_shards;
  opts.batch_size = batch_size;
  opts.data_dir = data_dir;
  auto engine = std::make_unique<SpStreamEngine>(std::move(opts));
  EXPECT_TRUE(engine->recovery_error().ok())
      << engine->recovery_error().ToString();
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

/// Push epoch `e`'s batches and run one epoch.
Status FeedEpoch(SpStreamEngine* engine, const Workload& w, size_t e) {
  for (const auto& [stream, elems] : w.epochs[e]) {
    std::vector<StreamElement> copy = elems;
    SP_RETURN_NOT_OK(engine->Push(stream, std::move(copy)));
  }
  return engine->Run();
}

std::multiset<std::string> Multiset(const std::vector<Tuple>& ts) {
  std::multiset<std::string> out;
  for (const Tuple& t : ts) out.insert(t.ToString());
  return out;
}

class RecoveryOracleTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

// The differential oracle. Each seed draws one fault site, a shard count
// from {1, 4} and a micro-batch size from {1, 64}; the 12-seed range covers
// every site under several workloads and configurations, and the CI seed
// matrix (SPSTREAM_FAULT_SEED) re-randomizes the injector's draw sequence
// on top.
TEST_P(RecoveryOracleTest, RecoveredOutputIsSuffixExactContinuation) {
  const uint64_t seed = GetParam();
  const Workload w = GenerateWorkload(seed);

  struct SiteConfig {
    const char* site;
    FaultSpec spec;
  };
  // trigger_on_hit is tuned to the site's hit rate so every seed actually
  // crashes: wal_append / checkpoint_write are hit a few times per commit,
  // operator_process once per element.
  SiteConfig configs[4];
  configs[0].site = fault::kStorageWalAppend;
  configs[0].spec.trigger_on_hit = 1 + seed % 3;
  configs[1].site = fault::kStorageCheckpointWrite;
  configs[1].spec.trigger_on_hit = 1 + seed % 2;
  configs[2].site = fault::kShardQueuePush;
  configs[2].spec.trigger_on_hit = 1 + seed % 4;
  configs[3].site = fault::kOperatorProcess;
  configs[3].spec.trigger_on_hit = 10 + seed % 40;
  const SiteConfig& cfg = configs[seed % 4];
  // shard.queue_push only exists on the sharded path.
  const size_t num_shards =
      (seed % 4 == 2) ? 4 : ((seed % 2 == 0) ? 4 : 1);
  const size_t batch_size = (seed % 3 == 0) ? 1 : 64;

  // Fault-free 1-shard oracle, no durability.
  std::vector<QueryId> oracle_qids;
  auto oracle = BuildEngine(w, /*num_shards=*/1, /*batch_size=*/64,
                            /*data_dir=*/"", &oracle_qids);
  ASSERT_FALSE(::testing::Test::HasFailure());
  for (size_t e = 0; e < w.epochs.size(); ++e) {
    ASSERT_TRUE(FeedEpoch(oracle.get(), w, e).ok());
  }

  // Durable engine A, fed epoch by epoch until the armed fault crashes an
  // epoch. Two crash shapes exist since quarantine poisoning was narrowed:
  // storage faults stall the engine-wide commit (durable_epochs does not
  // advance — NOTHING of the epoch was delivered), while an execution fault
  // quarantines one query — that query's epoch output is discarded
  // fail-closed but every other query's epoch commits and delivers.
  TempDataDir dir("oracle_" + std::to_string(seed));
  std::vector<QueryId> qids;
  auto a = BuildEngine(w, num_shards, batch_size, dir.path(), &qids);
  ASSERT_EQ(qids.size(), oracle_qids.size());
  ASSERT_NE(a->durability(), nullptr);

  size_t crash_epoch = w.epochs.size();
  bool quarantine_crash = false;
  FaultInjector::Global().Reseed(EnvFaultSeed(0) ^
                                 (seed * 0x9e3779b97f4a7c15ULL));
  {
    ScopedFault armed(cfg.site, cfg.spec);
    for (size_t e = 0; e < w.epochs.size(); ++e) {
      const int64_t before = a->durable_epochs();
      // Faults must degrade durability, never the engine: Run() stays OK.
      Status run = FeedEpoch(a.get(), w, e);
      ASSERT_TRUE(run.ok()) << cfg.site << ": " << run.ToString();
      bool any_quarantined = false;
      for (QueryId q : qids) any_quarantined |= *a->IsQuarantined(q);
      if (a->durable_epochs() == before || any_quarantined) {
        crash_epoch = e;
        quarantine_crash = any_quarantined && a->durable_epochs() != before;
        break;
      }
    }
  }
  ASSERT_LT(crash_epoch, w.epochs.size())
      << "seed " << seed << " site " << cfg.site
      << ": fault never crashed an epoch — trigger tuning is off";

  // Snapshot what A delivered and who was quarantined, then "crash" it
  // (abandon + destroy).
  std::vector<std::multiset<std::string>> a_delivered;
  std::vector<std::vector<std::string>> a_ordered;
  std::vector<bool> a_quarantined;
  for (QueryId q : qids) {
    auto r = a->Results(q);
    ASSERT_TRUE(r.ok());
    a_delivered.push_back(Multiset(*r));
    std::vector<std::string> ordered;
    for (const Tuple& t : *r) ordered.push_back(t.ToString());
    a_ordered.push_back(std::move(ordered));
    a_quarantined.push_back(*a->IsQuarantined(q));
  }
  a.reset();
  FaultInjector::Global().DisarmAll();

  // Engine B over the same data dir: NO re-registration — roles, streams,
  // subjects and queries replay from the WAL with identical dense ids.
  EngineOptions bopts;
  bopts.num_shards = num_shards;
  bopts.batch_size = batch_size;
  bopts.data_dir = dir.path();
  auto b = std::make_unique<SpStreamEngine>(std::move(bopts));
  ASSERT_TRUE(b->recovery_error().ok()) << b->recovery_error().ToString();
  // A stall-crash left epoch crash_epoch uncommitted; a quarantine-crash
  // committed it for every healthy query (the faulted query's share was
  // discarded fail-closed).
  const size_t resume_epoch = crash_epoch + (quarantine_crash ? 1 : 0);
  ASSERT_EQ(b->durable_epochs(), static_cast<int64_t>(resume_epoch));

  // Resume the workload from the first non-durable epoch.
  for (size_t e = resume_epoch; e < w.epochs.size(); ++e) {
    const int64_t before = b->durable_epochs();
    Status run = FeedEpoch(b.get(), w, e);
    ASSERT_TRUE(run.ok()) << run.ToString();
    ASSERT_EQ(b->durable_epochs(), before + 1);
  }

  for (size_t i = 0; i < qids.size(); ++i) {
    auto expect = oracle->Results(oracle_qids[i]);
    auto resumed = b->Results(qids[i]);
    ASSERT_TRUE(expect.ok() && resumed.ok());
    const std::string& sql = w.queries[i].second;
    // Quarantine is a per-process posture, not a durable one: the restart
    // heals it (the query re-runs from checkpointed state).
    EXPECT_FALSE(*b->IsQuarantined(qids[i]));
    std::multiset<std::string> combined = a_delivered[i];
    for (const Tuple& t : *resumed) combined.insert(t.ToString());
    if (!a_quarantined[i]) {
      // THE suffix-exact check: crashed delivery + recovered delivery ==
      // oracle delivery, as multisets — no loss, no duplicate, no leak.
      // Since quarantine poisoning was narrowed, this holds for every
      // HEALTHY query even when a sibling quarantined mid-run.
      EXPECT_EQ(combined, Multiset(*expect))
          << "seed " << seed << " site " << cfg.site << " shards "
          << num_shards << " batch " << batch_size << " crash_epoch "
          << crash_epoch << " query " << sql;
      if (num_shards == 1) {
        // Solo delivery order is deterministic, so the continuation is
        // suffix-exact in the strongest sense: ordered concatenation.
        std::vector<std::string> concat = a_ordered[i];
        for (const Tuple& t : *resumed) concat.push_back(t.ToString());
        std::vector<std::string> want;
        for (const Tuple& t : *expect) want.push_back(t.ToString());
        EXPECT_EQ(concat, want) << "seed " << seed << " query " << sql;
      }
    } else {
      // The quarantined query lost its faulted epoch fail-closed: its input
      // for that epoch was consumed engine-wide and its output discarded —
      // shed, never leaked. Windowed aggregates over the thinner input
      // legitimately produce different values than the lossless oracle (the
      // same semantics as admission shedding), so the full-multiset oracle
      // does not apply. The no-leak oracle does: the query must never emit
      // a group/key the fault-free run was not authorized to emit.
      // (Pre-crash delivery needs no separate check: epochs before the
      // crash committed normally, so it is a deterministic prefix of the
      // oracle's delivery.)
      std::set<std::string> allowed;
      for (const Tuple& t : *expect) {
        if (!t.values.empty()) allowed.insert(t.value(0).ToString());
      }
      for (const Tuple& t : *resumed) {
        if (!t.values.empty()) {
          EXPECT_TRUE(allowed.count(t.value(0).ToString()))
              << "seed " << seed << " site " << cfg.site << " query " << sql
              << ": quarantined query leaked key " << t.ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryOracleTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---- Targeted recovery mechanisms -------------------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

std::unique_ptr<SpStreamEngine> SmallDurableEngine(const std::string& dir,
                                                   QueryId* qid) {
  EngineOptions opts;
  opts.data_dir = dir;
  auto engine = std::make_unique<SpStreamEngine>(std::move(opts));
  EXPECT_TRUE(engine->recovery_error().ok())
      << engine->recovery_error().ToString();
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

std::vector<StreamElement> TuplesOnly(Timestamp first_ts, TupleId first_tid,
                                      size_t n) {
  std::vector<StreamElement> elems;
  for (size_t i = 0; i < n; ++i) {
    elems.emplace_back(sptest::MakeTuple(
        first_tid + static_cast<TupleId>(i),
        {static_cast<int64_t>(i)}, first_ts + static_cast<Timestamp>(i)));
  }
  return elems;
}

// A fault during recovery replay must fail SAFE: the engine comes up
// running (availability) but WITHOUT durability (it will not write over a
// log it could not read), and reports the error. A clean reopen recovers.
TEST_F(RecoveryTest, RecoveryReplayFaultFailsSafeAndCleanReopenRecovers) {
  TempDataDir dir("replay_fault");
  QueryId qid;
  {
    auto a = SmallDurableEngine(dir.path(), &qid);
    ASSERT_TRUE(a->Push("A", Segment(1, 0, 8)).ok());
    ASSERT_TRUE(a->Run().ok());
    EXPECT_EQ(a->Results(qid)->size(), 8u);
    EXPECT_EQ(a->durable_epochs(), 1);
  }
  {
    FaultSpec spec;
    spec.trigger_on_hit = 1;
    ScopedFault armed(fault::kStorageRecoveryReplay, spec);
    EngineOptions opts;
    opts.data_dir = dir.path();
    SpStreamEngine broken(std::move(opts));
    EXPECT_FALSE(broken.recovery_error().ok());
    EXPECT_EQ(broken.durability(), nullptr);
    // Degraded but alive: the engine still serves (non-durably). The
    // catalog did NOT replay, so this is a blank engine.
    broken.RegisterRole("R0");
    ASSERT_TRUE(broken
                    .RegisterStream(MakeSchema(
                        "A", {Field{"k", ValueType::kInt64}}))
                    .ok());
    ASSERT_TRUE(broken.RegisterSubject("alice", {"R0"}).ok());
    ASSERT_TRUE(broken.RegisterQuery("alice", "SELECT k FROM A").ok());
    ASSERT_TRUE(broken.Push("A", Segment(100, 100, 3)).ok());
    ASSERT_TRUE(broken.Run().ok());
  }
  FaultInjector::Global().DisarmAll();
  // The failed recovery wrote nothing: a clean reopen still sees epoch 1.
  EngineOptions opts;
  opts.data_dir = dir.path();
  SpStreamEngine b(std::move(opts));
  ASSERT_TRUE(b.recovery_error().ok()) << b.recovery_error().ToString();
  EXPECT_EQ(b.durable_epochs(), 1);
  ASSERT_NE(b.durability(), nullptr);
}

// The recovered policy posture is DENY-ALL at the checkpointed sp-batch
// timestamp: tuples pushed after restart leak nothing until a fresh
// (newer-ts) sp-batch re-converges the stream.
TEST_F(RecoveryTest, RecoveredStreamFailsClosedUntilFreshSpBatch) {
  TempDataDir dir("failclosed");
  QueryId qid;
  {
    auto a = SmallDurableEngine(dir.path(), &qid);
    ASSERT_TRUE(a->Push("A", Segment(1, 0, 8)).ok());
    ASSERT_TRUE(a->Run().ok());
    EXPECT_EQ(a->Results(qid)->size(), 8u);
  }
  EngineOptions opts;
  opts.data_dir = dir.path();
  SpStreamEngine b(std::move(opts));
  ASSERT_TRUE(b.recovery_error().ok()) << b.recovery_error().ToString();
  // Tuples under the pre-crash sp's authorization, but with no fresh sp:
  // the tracker restored fail-closed, so NOTHING may be delivered — even
  // though the pre-crash policy (ts=1, R0) nominally covered them.
  ASSERT_TRUE(b.Push("A", TuplesOnly(50, 100, 6)).ok());
  ASSERT_TRUE(b.Run().ok());
  EXPECT_EQ(b.Results(qid)->size(), 0u)
      << "recovered stream delivered under a resurrected pre-crash policy";
  // A fresh sp-batch re-converges: fail-closed is a posture, not a grave.
  ASSERT_TRUE(b.Push("A", Segment(100, 200, 5)).ok());
  ASSERT_TRUE(b.Run().ok());
  EXPECT_EQ(b.Results(qid)->size(), 5u);
}

// The catalog survives the restart with identical identities: re-creating
// a recovered object collides, and new registrations extend the recovered
// id space instead of reusing it.
TEST_F(RecoveryTest, CatalogIdentityIsStableAcrossRestart) {
  TempDataDir dir("catalog");
  QueryId qid;
  {
    auto a = SmallDurableEngine(dir.path(), &qid);
    ASSERT_TRUE(a->Push("A", Segment(1, 0, 4)).ok());
    ASSERT_TRUE(a->Run().ok());
  }
  EngineOptions opts;
  opts.data_dir = dir.path();
  SpStreamEngine b(std::move(opts));
  ASSERT_TRUE(b.recovery_error().ok()) << b.recovery_error().ToString();
  EXPECT_FALSE(b.RegisterStream(MakeSchema(
                                    "A", {Field{"k", ValueType::kInt64}}))
                   .ok());
  EXPECT_FALSE(b.RegisterSubject("alice", {"R0"}).ok());
  // The recovered subject works; the new query gets the next dense id.
  auto q2 = b.RegisterQuery("alice", "SELECT k FROM A WHERE k > 2");
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(*q2, qid + 1);
  ASSERT_TRUE(b.Push("A", Segment(100, 100, 6)).ok());
  ASSERT_TRUE(b.Run().ok());
  EXPECT_EQ(b.Results(qid)->size(), 6u);
  EXPECT_EQ(b.Results(*q2)->size(), 3u);  // k in {3,4,5}
}

// Deregistration is durable too: a query dropped before the crash must not
// resurrect on recovery.
TEST_F(RecoveryTest, DeregisteredQueryStaysGoneAfterRecovery) {
  TempDataDir dir("dereg");
  QueryId qid;
  {
    auto a = SmallDurableEngine(dir.path(), &qid);
    ASSERT_TRUE(a->Push("A", Segment(1, 0, 4)).ok());
    ASSERT_TRUE(a->Run().ok());
    ASSERT_TRUE(a->DeregisterQuery(qid).ok());
    // One more durable epoch so the checkpoint chain post-dates the drop.
    ASSERT_TRUE(a->Push("A", Segment(50, 50, 2)).ok());
    ASSERT_TRUE(a->Run().ok());
    EXPECT_EQ(a->durable_epochs(), 2);
  }
  EngineOptions opts;
  opts.data_dir = dir.path();
  SpStreamEngine b(std::move(opts));
  ASSERT_TRUE(b.recovery_error().ok()) << b.recovery_error().ToString();
  // The drop replayed: deregistering again is an error, and the dead query
  // delivers nothing when the stream flows.
  EXPECT_FALSE(b.DeregisterQuery(qid).ok())
      << "deregistered query resurrected by recovery";
  ASSERT_TRUE(b.Push("A", Segment(100, 100, 3)).ok());
  ASSERT_TRUE(b.Run().ok());
  EXPECT_EQ(b.Results(qid)->size(), 0u);
}

// Narrowed quarantine poisoning: with share_plans OFF, one query's
// quarantine discards ONLY that query's epoch share — the sibling query's
// output for the very same epoch still commits durably and delivers.
TEST_F(RecoveryTest, SoloQuarantineDoesNotPoisonSiblingEpochs) {
  TempDataDir dir("narrow_poison");
  EngineOptions opts;
  opts.data_dir = dir.path();
  SpStreamEngine engine(std::move(opts));
  ASSERT_TRUE(engine.recovery_error().ok());
  engine.RegisterRole("R0");
  ASSERT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "A", {Field{"k", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine.RegisterSubject("alice", {"R0"}).ok());
  auto q0 = engine.RegisterQuery("alice", "SELECT k FROM A");
  auto q1 = engine.RegisterQuery("alice", "SELECT k FROM A WHERE k > 1");
  ASSERT_TRUE(q0.ok() && q1.ok());

  // Epoch 1: clean. k in 0..7 → q0 delivers 8, q1 delivers 6.
  ASSERT_TRUE(engine.Push("A", Segment(1, 0, 8)).ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.durable_epochs(), 1);

  // Epoch 2: the operator fault fires once, during q0's solo run (queries
  // execute in registration order). q0 quarantines; q1 must not care.
  {
    FaultSpec spec;
    spec.trigger_on_hit = 1;
    ScopedFault armed(fault::kOperatorProcess, spec);
    ASSERT_TRUE(engine.Push("A", Segment(100, 100, 8)).ok());
    ASSERT_TRUE(engine.Run().ok());
  }
  EXPECT_TRUE(*engine.IsQuarantined(*q0));
  EXPECT_FALSE(*engine.IsQuarantined(*q1));
  // The epoch COMMITTED (narrowed poison) and q1's share delivered.
  EXPECT_EQ(engine.durable_epochs(), 2);
  EXPECT_EQ(engine.Results(*q0)->size(), 8u);   // epoch 2's share discarded
  EXPECT_EQ(engine.Results(*q1)->size(), 12u);  // 6 + 6, nothing lost
  EXPECT_GE(engine.audit()->CountOf(AuditEventKind::kQueryQuarantine), 1);
}

// ...and with share_plans ON a quarantine is scoped to the faulted query
// GROUP: both members of the shared group are fenced together and lose the
// epoch's output, while a solo query in the same epoch commits and delivers.
TEST_F(RecoveryTest, SharedGroupQuarantineIsGroupScoped) {
  TempDataDir dir("shared_poison");
  EngineOptions opts;
  opts.data_dir = dir.path();
  opts.share_plans = true;
  SpStreamEngine engine(std::move(opts));
  ASSERT_TRUE(engine.recovery_error().ok());
  engine.RegisterRole("R0");
  ASSERT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "A", {Field{"k", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine.RegisterSubject("alice", {"R0"}).ok());
  ASSERT_TRUE(engine.RegisterSubject("bob", {"R0"}).ok());
  // q0 + q1 share one plan (group led by q0, which runs first); q2 is solo.
  auto q0 = engine.RegisterQuery("alice", "SELECT k FROM A");
  auto q1 = engine.RegisterQuery("bob", "SELECT k FROM A");
  auto q2 = engine.RegisterQuery("alice", "SELECT k FROM A WHERE k > 1");
  ASSERT_TRUE(q0.ok() && q1.ok() && q2.ok());

  ASSERT_TRUE(engine.Push("A", Segment(1, 0, 8)).ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.durable_epochs(), 1);

  {
    FaultSpec spec;
    spec.trigger_on_hit = 1;
    ScopedFault armed(fault::kOperatorProcess, spec);
    ASSERT_TRUE(engine.Push("A", Segment(100, 100, 8)).ok());
    ASSERT_TRUE(engine.Run().ok());
  }
  EXPECT_TRUE(*engine.IsQuarantined(*q0));
  EXPECT_TRUE(*engine.IsQuarantined(*q1));
  EXPECT_FALSE(*engine.IsQuarantined(*q2));
  EXPECT_EQ(engine.quarantined_count(), 2);
  // The epoch committed; the group's share of it was discarded, the solo
  // query's delivered.
  EXPECT_EQ(engine.durable_epochs(), 2);
  EXPECT_EQ(engine.Results(*q0)->size(), 8u);
  EXPECT_EQ(engine.Results(*q1)->size(), 8u);
  EXPECT_EQ(engine.Results(*q2)->size(), 12u);  // 6 + 6
  EXPECT_EQ(engine.audit()->CountOf(AuditEventKind::kQueryQuarantine), 2);
}

// Window-state fixtures for the shared-group cases: a share_plans engine
// with roles R0/R1, stream A(k) and subjects alice {R0} and bob {R0, R1},
// both running the same DISTINCT-over-RANGE query.
constexpr const char* kDistinctSql = "SELECT DISTINCT k FROM A [RANGE 40]";

std::unique_ptr<SpStreamEngine> SharingEngine(const std::string& data_dir) {
  EngineOptions opts;
  opts.data_dir = data_dir;
  opts.share_plans = true;
  auto engine = std::make_unique<SpStreamEngine>(std::move(opts));
  EXPECT_TRUE(engine->recovery_error().ok())
      << engine->recovery_error().ToString();
  engine->RegisterRole("R0");
  engine->RegisterRole("R1");
  EXPECT_TRUE(engine
                  ->RegisterStream(MakeSchema(
                      "A", {Field{"k", ValueType::kInt64}}))
                  .ok());
  EXPECT_TRUE(engine->RegisterSubject("alice", {"R0"}).ok());
  EXPECT_TRUE(engine->RegisterSubject("bob", {"R0", "R1"}).ok());
  return engine;
}

void RegisterDistinct(SpStreamEngine* engine, const char* who,
                      std::vector<QueryId>* qids) {
  auto q = engine->RegisterQuery(who, kDistinctSql);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (q.ok()) qids->push_back(*q);
}

// Each epoch opens with a fresh sp (so a recovered fail-closed posture is
// superseded), then keys repeat across epochs inside the window: losing the
// window would re-emit keys DISTINCT already delivered.
std::vector<StreamElement> DistinctEpoch(size_t e) {
  const Timestamp ts = 1 + static_cast<Timestamp>(e) * 10;
  std::vector<StreamElement> elems;
  elems.emplace_back(sptest::MakeSp("A", {0}, ts));
  for (int64_t i = 0; i < 6; ++i) {
    elems.emplace_back(sptest::MakeTuple(
        static_cast<TupleId>(e * 6 + static_cast<size_t>(i)),
        {(static_cast<int64_t>(e) + i) % 5}, ts + 1 + i));
  }
  return elems;
}

std::vector<std::vector<std::string>> Delivered(
    SpStreamEngine* engine, const std::vector<QueryId>& qids) {
  std::vector<std::vector<std::string>> out;
  for (QueryId id : qids) {
    auto results = engine->Results(id);
    std::vector<std::string> rows;
    for (const Tuple& t : *results) rows.push_back(t.ToString());
    out.push_back(std::move(rows));
  }
  return out;
}

// A shared group with window state (DISTINCT over RANGE) checkpoints like
// any other query: a crash-and-recover run delivers exactly what an
// uncrashed run delivers, and RecoverQuery on one member brings the whole
// group back from its checkpoint.
TEST_F(RecoveryTest, SharedGroupWindowStateSurvivesCrashAndQuarantine) {
  auto build = [](const std::string& data_dir, std::vector<QueryId>* qids) {
    auto engine = SharingEngine(data_dir);
    for (const char* who : {"alice", "bob"}) {
      RegisterDistinct(engine.get(), who, qids);
    }
    return engine;
  };
  constexpr size_t kEpochs = 5;

  // Uncrashed reference.
  std::vector<QueryId> ref_q;
  auto ref = build("", &ref_q);
  for (size_t e = 0; e < kEpochs; ++e) {
    ASSERT_TRUE(ref->Push("A", DistinctEpoch(e)).ok());
    ASSERT_TRUE(ref->Run().ok());
  }
  const auto expect = Delivered(ref.get(), ref_q);
  ASSERT_FALSE(expect[0].empty());

  // Crash after epoch 2 commits, recover, finish.
  TempDataDir dir("shared_window");
  std::vector<QueryId> qids;
  auto a = build(dir.path(), &qids);
  for (size_t e = 0; e < 2; ++e) {
    ASSERT_TRUE(a->Push("A", DistinctEpoch(e)).ok());
    ASSERT_TRUE(a->Run().ok());
  }
  auto combined = Delivered(a.get(), qids);
  a.reset();
  EngineOptions bopts;
  bopts.data_dir = dir.path();
  bopts.share_plans = true;
  SpStreamEngine b(std::move(bopts));
  ASSERT_TRUE(b.recovery_error().ok()) << b.recovery_error().ToString();
  ASSERT_EQ(b.durable_epochs(), 2);
  for (size_t e = 2; e < kEpochs; ++e) {
    ASSERT_TRUE(b.Push("A", DistinctEpoch(e)).ok());
    ASSERT_TRUE(b.Run().ok());
  }
  auto resumed = Delivered(&b, qids);
  for (size_t i = 0; i < qids.size(); ++i) {
    combined[i].insert(combined[i].end(), resumed[i].begin(),
                       resumed[i].end());
    EXPECT_EQ(combined[i], expect[i]) << "query " << i;
  }

  // In-process: a fault in epoch 2 fences the group; recovering the
  // NON-leader member restores the whole group from the epoch-1
  // checkpoint. The result equals a run that never saw epoch 2.
  std::vector<QueryId> skip_q;
  auto skip = build("", &skip_q);
  for (size_t e : {0, 1, 3, 4}) {
    ASSERT_TRUE(skip->Push("A", DistinctEpoch(e)).ok());
    ASSERT_TRUE(skip->Run().ok());
  }
  TempDataDir dir2("shared_window_heal");
  std::vector<QueryId> heal_q;
  auto heal = build(dir2.path(), &heal_q);
  for (size_t e = 0; e < kEpochs; ++e) {
    if (e == 2) {
      FaultSpec spec;
      spec.trigger_on_hit = 1;
      ScopedFault armed(fault::kOperatorProcess, spec);
      ASSERT_TRUE(heal->Push("A", DistinctEpoch(e)).ok());
      ASSERT_TRUE(heal->Run().ok());
      ASSERT_TRUE(*heal->IsQuarantined(heal_q[0]));
      ASSERT_TRUE(*heal->IsQuarantined(heal_q[1]));
      ASSERT_TRUE(heal->RecoverQuery(heal_q[1]).ok());
      EXPECT_FALSE(*heal->IsQuarantined(heal_q[0]));
      EXPECT_FALSE(*heal->IsQuarantined(heal_q[1]));
      continue;
    }
    ASSERT_TRUE(heal->Push("A", DistinctEpoch(e)).ok());
    ASSERT_TRUE(heal->Run().ok());
  }
  EXPECT_EQ(Delivered(heal.get(), heal_q), Delivered(skip.get(), skip_q));
}

// A query joining or leaving a shared group mid-stream reshapes the group's
// DAG and resets its state. Checkpoint entries cut from the old DAG must
// never reach the new one: a crash right after the reshape, or one commit
// later, recovers to exactly what the uncrashed run delivers.
TEST_F(RecoveryTest, GroupReshapeBeforeCrashRecoversLikeUncrashedRun) {
  constexpr size_t kEpochs = 5;
  constexpr size_t kReshapeAt = 2;  // the reshape lands before this epoch
  for (bool join : {true, false}) {
    SCOPED_TRACE(join ? "bob joins alice's group" : "bob leaves the group");
    auto start = [&](const std::string& data_dir, std::vector<QueryId>* qids) {
      auto engine = SharingEngine(data_dir);
      RegisterDistinct(engine.get(), "alice", qids);
      if (!join) RegisterDistinct(engine.get(), "bob", qids);
      return engine;
    };
    auto reshape = [&](SpStreamEngine* engine, std::vector<QueryId>* qids) {
      if (join) {
        RegisterDistinct(engine, "bob", qids);
      } else {
        EXPECT_TRUE(engine->DeregisterQuery((*qids)[1]).ok());
      }
    };
    // Epochs [from, to); the reshape runs before epoch kReshapeAt, or at
    // the end when the run stops right there.
    auto run = [&](SpStreamEngine* engine, std::vector<QueryId>* qids,
                   size_t from, size_t to, bool with_reshape) {
      for (size_t e = from; e < to; ++e) {
        if (with_reshape && e == kReshapeAt) reshape(engine, qids);
        EXPECT_TRUE(engine->Push("A", DistinctEpoch(e)).ok());
        EXPECT_TRUE(engine->Run().ok());
      }
      if (with_reshape && to == kReshapeAt) reshape(engine, qids);
    };

    std::vector<QueryId> ref_q;
    auto ref = start("", &ref_q);
    run(ref.get(), &ref_q, 0, kEpochs, /*with_reshape=*/true);
    const auto expect = Delivered(ref.get(), ref_q);
    ASSERT_FALSE(expect[1].empty());

    for (size_t crash_after : {kReshapeAt, kReshapeAt + 1}) {
      SCOPED_TRACE("crash after epoch " + std::to_string(crash_after));
      TempDataDir dir("group_reshape_" + std::to_string(join) + "_" +
                      std::to_string(crash_after));
      std::vector<QueryId> qids;
      auto a = start(dir.path(), &qids);
      run(a.get(), &qids, 0, crash_after, /*with_reshape=*/true);
      auto combined = Delivered(a.get(), qids);
      a.reset();

      EngineOptions bopts;
      bopts.data_dir = dir.path();
      bopts.share_plans = true;
      SpStreamEngine b(std::move(bopts));
      ASSERT_TRUE(b.recovery_error().ok()) << b.recovery_error().ToString();
      ASSERT_EQ(b.durable_epochs(), static_cast<int64_t>(crash_after));
      run(&b, &qids, crash_after, kEpochs, /*with_reshape=*/false);
      const auto resumed = Delivered(&b, qids);
      for (size_t i = 0; i < qids.size(); ++i) {
        combined[i].insert(combined[i].end(), resumed[i].begin(),
                           resumed[i].end());
        EXPECT_EQ(combined[i], expect[i]) << "query " << i;
      }
    }
  }
}

// The quarantined-queries gauge tracks live quarantines: deregistering a
// quarantined query releases its slot (regression: the gauge used to only
// ever go up).
TEST_F(RecoveryTest, DeregisteringQuarantinedQueryReleasesGauge) {
  TempDataDir dir("gauge");
  QueryId qid;
  auto engine = SmallDurableEngine(dir.path(), &qid);
  {
    FaultSpec spec;
    spec.trigger_on_hit = 1;
    ScopedFault armed(fault::kOperatorProcess, spec);
    ASSERT_TRUE(engine->Push("A", Segment(1, 0, 4)).ok());
    ASSERT_TRUE(engine->Run().ok());
  }
  ASSERT_TRUE(*engine->IsQuarantined(qid));
  EXPECT_EQ(engine->quarantined_count(), 1);
  ASSERT_TRUE(engine->DeregisterQuery(qid).ok());
  EXPECT_EQ(engine->quarantined_count(), 0);
  EXPECT_EQ(engine->metrics()->GaugeValue("engine.queries_quarantined"), 0);
}

// In-process self-healing (docs/ROBUSTNESS.md): a quarantined query is
// retried at the next Run() safe point once its backoff elapses, restoring
// operator state from the last durable checkpoint — no restart required —
// and resumes suffix-exact delivery for everything fed after recovery.
TEST_F(RecoveryTest, QuarantinedQuerySelfHealsAndResumesFromCheckpoint) {
  TempDataDir dir("selfheal");
  EngineOptions opts;
  opts.data_dir = dir.path();
  opts.overload.max_recovery_attempts = 3;
  opts.overload.recovery_backoff_base_ms = 0;  // retry at the next Run()
  SpStreamEngine engine(std::move(opts));
  ASSERT_TRUE(engine.recovery_error().ok());
  engine.RegisterRole("R0");
  ASSERT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "A", {Field{"k", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine.RegisterSubject("alice", {"R0"}).ok());
  auto q = engine.RegisterQuery("alice", "SELECT k FROM A");
  ASSERT_TRUE(q.ok());

  ASSERT_TRUE(engine.Push("A", Segment(1, 0, 5)).ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.Results(*q)->size(), 5u);

  {
    FaultSpec spec;
    spec.trigger_on_hit = 1;
    ScopedFault armed(fault::kOperatorProcess, spec);
    ASSERT_TRUE(engine.Push("A", Segment(50, 50, 4)).ok());
    ASSERT_TRUE(engine.Run().ok());
  }
  ASSERT_TRUE(*engine.IsQuarantined(*q));

  // Next epoch: the engine recovers the query at the top of Run(), restores
  // its checkpoint, and the fresh sp-batch re-authorizes delivery.
  ASSERT_TRUE(engine.Push("A", Segment(100, 100, 6)).ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_FALSE(*engine.IsQuarantined(*q));
  // 5 from epoch 1 + 6 from epoch 3; epoch 2 was shed fail-closed.
  EXPECT_EQ(engine.Results(*q)->size(), 11u);
  EXPECT_EQ(engine.quarantined_count(), 0);
  EXPECT_EQ(engine.metrics()->CounterValue("engine.query_recoveries"), 1);
  EXPECT_GE(engine.audit()->CountOf(AuditEventKind::kRecovery), 1);
}

}  // namespace
}  // namespace spstream

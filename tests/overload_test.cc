// Overload-resilience suite (docs/ROBUSTNESS.md, "Overload and
// self-healing"): tiered degradation with the invariant *shed data, never
// shed security*.
//
// The core property, checked as a differential oracle: with admission
// shedding FORCED (tiny watermarks, chunked pushes that build real
// backlog), the shedding engine's delivered results per query are a
// MULTISET SUBSET of an identical engine's without shedding — overload may
// cost data tuples, never add one past its policy — while the two engines
// install byte-identical policy sequences (equal kPolicyInstall audit
// counts), because sps and control boundaries are admitted losslessly no
// matter the tier.
//
// Targeted tests pin the rest: epoch-deadline pressure driving the
// controller into kShed, priority-policy stream protection, the
// watchdog-era self-healing round trip (seeded exec.operator_process fault
// -> quarantine -> automatic backoff recovery from the durable checkpoint
// -> suffix delivery) at 1 and 4 shards, and permanent quarantine once the
// attempt budget is spent (with manual \recover as the only resurrection).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "test_util.h"

namespace spstream {
namespace {

constexpr size_t kRolePool = 4;

class TempDataDir {
 public:
  explicit TempDataDir(const std::string& tag) {
    path_ = ::testing::TempDir() + "spstream_overload_" + tag + "_" +
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

/// Stream A (k, v) with subjects alice{R0,R1} and bob{R2} and two
/// STATELESS queries — per-tuple maps, so shedding input tuples can only
/// remove output tuples, never change surviving ones (the precondition for
/// the subset oracle; windowed aggregates would legitimately produce
/// different values over thinner input).
std::unique_ptr<SpStreamEngine> BuildEngine(EngineOptions opts,
                                            std::vector<QueryId>* qids) {
  auto engine = std::make_unique<SpStreamEngine>(std::move(opts));
  EXPECT_TRUE(engine->recovery_error().ok())
      << engine->recovery_error().ToString();
  for (size_t r = 0; r < kRolePool; ++r) {
    engine->RegisterRole("R" + std::to_string(r));
  }
  EXPECT_TRUE(engine
                  ->RegisterStream(MakeSchema(
                      "A", {Field{"k", ValueType::kInt64},
                            Field{"v", ValueType::kInt64}}))
                  .ok());
  EXPECT_TRUE(engine->RegisterSubject("alice", {"R0", "R1"}).ok());
  EXPECT_TRUE(engine->RegisterSubject("bob", {"R2"}).ok());
  for (const auto& [subject, sql] :
       std::vector<std::pair<std::string, std::string>>{
           {"alice", "SELECT k, v FROM A"},
           {"bob", "SELECT k FROM A WHERE v > 40"}}) {
    auto q = engine->RegisterQuery(subject, sql);
    EXPECT_TRUE(q.ok()) << sql << ": " << q.status().ToString();
    if (q.ok()) qids->push_back(*q);
  }
  return engine;
}

std::multiset<std::string> Multiset(const std::vector<Tuple>& ts) {
  std::multiset<std::string> out;
  for (const Tuple& t : ts) out.insert(t.ToString());
  return out;
}

/// `sub` is a multiset subset of `super`.
bool IsSubset(const std::multiset<std::string>& sub,
              std::multiset<std::string> super) {
  for (const std::string& s : sub) {
    auto it = super.find(s);
    if (it == super.end()) return false;
    super.erase(it);
  }
  return true;
}

class OverloadTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

// ---- sp-losslessness differential oracle -----------------------------------

TEST_F(OverloadTest, ForcedSheddingDeliversSubsetAndNeverShedsSecurity) {
  Rng rng(0x10adull);
  // One punctuated workload, pushed in small chunks so the shedding
  // engine's per-stream backlog genuinely crosses its (tiny) watermarks
  // mid-epoch. Both engines replay byte-identical chunk sequences.
  const size_t kEpochs = 5;
  std::vector<std::vector<std::vector<StreamElement>>> chunks(kEpochs);
  Timestamp ts = 1;
  TupleId tid = 0;
  for (size_t e = 0; e < kEpochs; ++e) {
    std::vector<StreamElement> elems;
    size_t emitted = 0;
    while (emitted < 240) {
      std::vector<RoleId> roles;
      const size_t nr = 1 + rng.NextBounded(2);
      for (size_t i = 0; i < nr; ++i) {
        roles.push_back(static_cast<RoleId>(rng.NextBounded(kRolePool)));
      }
      elems.emplace_back(sptest::MakeSp("A", roles, ts,
                                        rng.NextBool(0.15) ? Sign::kNegative
                                                           : Sign::kPositive));
      const size_t seg = 1 + rng.NextBounded(6);
      for (size_t i = 0; i < seg && emitted < 240; ++i, ++emitted) {
        elems.emplace_back(sptest::MakeTuple(
            tid++,
            {static_cast<int64_t>(rng.NextBounded(8)),
             static_cast<int64_t>(rng.NextBounded(100))},
            ts));
        ts += 1 + rng.NextBounded(2);
      }
    }
    for (size_t off = 0; off < elems.size(); off += 48) {
      chunks[e].emplace_back(
          elems.begin() + static_cast<long>(off),
          elems.begin() +
              static_cast<long>(std::min(off + 48, elems.size())));
    }
  }

  auto feed = [&](SpStreamEngine* engine) {
    for (size_t e = 0; e < kEpochs; ++e) {
      for (const std::vector<StreamElement>& chunk : chunks[e]) {
        std::vector<StreamElement> copy = chunk;
        ASSERT_TRUE(engine->Push("A", std::move(copy)).ok());
      }
      ASSERT_TRUE(engine->Run().ok());
    }
  };

  std::vector<QueryId> oracle_qids;
  auto oracle = BuildEngine(EngineOptions{}, &oracle_qids);
  ASSERT_FALSE(::testing::Test::HasFailure());
  feed(oracle.get());

  EngineOptions shed_opts;
  shed_opts.overload.enable_shedding = true;
  shed_opts.overload.pending_high_watermark = 64;
  shed_opts.overload.pending_low_watermark = 32;
  shed_opts.overload.shed_fraction = 0.5;
  std::vector<QueryId> qids;
  auto shedding = BuildEngine(shed_opts, &qids);
  ASSERT_FALSE(::testing::Test::HasFailure());
  feed(shedding.get());

  // Shedding actually engaged — the oracle would be vacuous otherwise.
  const int64_t shed =
      shedding->metrics()->CounterValue("engine.tuples_shed");
  ASSERT_GT(shed, 0);
  EXPECT_EQ(shedding->overload().tuples_shed(), shed);
  EXPECT_GT(shedding->metrics()->CounterValue("engine.overload_transitions"),
            0);
  // Sheds are audited as kShed — never confusable with policy denials.
  EXPECT_GE(shedding->audit()->CountOf(AuditEventKind::kShed), 1);

  // Subset per query: overload may remove results, never add one (an extra
  // tuple would be a tuple delivered past its policy).
  for (size_t i = 0; i < qids.size(); ++i) {
    auto got = shedding->Results(qids[i]);
    auto want = oracle->Results(oracle_qids[i]);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_TRUE(IsSubset(Multiset(*got), Multiset(*want)))
        << "query " << i << " delivered a tuple the no-shed oracle did not";
  }

  // Sp-losslessness: every security punctuation was admitted and installed
  // on both engines identically — equal policy-install sequences mean every
  // denial/allow TRANSITION matches the oracle exactly, even though the
  // shedding engine saw fewer data tuples.
  EXPECT_EQ(shedding->audit()->CountOf(AuditEventKind::kPolicyInstall),
            oracle->audit()->CountOf(AuditEventKind::kPolicyInstall));
}

// ---- epoch deadline --------------------------------------------------------

TEST_F(OverloadTest, EpochDeadlineMissDrivesShedding) {
  EngineOptions opts;
  opts.epoch_deadline_ms = 1;  // any real epoch over this workload misses
  opts.overload.enable_shedding = true;
  opts.overload.shed_fraction = 1.0;  // deterministic: shed every data tuple
  std::vector<QueryId> qids;
  auto engine = BuildEngine(opts, &qids);
  ASSERT_FALSE(::testing::Test::HasFailure());

  // Epoch 1: a workload heavy enough to blow the 1 ms deadline. Pushed in
  // ONE call, so admission sees an empty backlog and nothing is shed yet.
  std::vector<StreamElement> big;
  big.emplace_back(sptest::MakeSp("A", {0, 2}, 1));
  for (TupleId t = 0; t < 120000; ++t) {
    big.emplace_back(sptest::MakeTuple(t, {static_cast<int64_t>(t % 8), 50},
                                       1));
  }
  ASSERT_TRUE(engine->Push("A", std::move(big)).ok());
  ASSERT_TRUE(engine->Run().ok());
  const size_t delivered = engine->Results(qids[0])->size();
  EXPECT_EQ(delivered, 120000u);  // nothing shed before the miss

  EXPECT_GE(engine->metrics()->CounterValue("engine.epoch_deadline_misses"),
            1);
  // The post-epoch pressure sample saw epoch_nanos >> deadline: saturated.
  EXPECT_EQ(engine->overload_state(), OverloadState::kShed);

  // Epoch 2: under deadline-driven kShed, data tuples are shed at admission
  // (fraction 1.0 -> all of them) while the sp passes losslessly and still
  // installs.
  const int64_t installs_before =
      engine->audit()->CountOf(AuditEventKind::kPolicyInstall);
  std::vector<StreamElement> small;
  small.emplace_back(sptest::MakeSp("A", {1, 2}, 1000000));
  for (TupleId t = 0; t < 10; ++t) {
    small.emplace_back(
        sptest::MakeTuple(200000 + t, {1, 50}, 1000000));
  }
  ASSERT_TRUE(engine->Push("A", std::move(small)).ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_EQ(engine->metrics()->CounterValue("engine.tuples_shed"), 10);
  EXPECT_EQ(engine->Results(qids[0])->size(), delivered);  // no new tuples
  EXPECT_GT(engine->audit()->CountOf(AuditEventKind::kPolicyInstall),
            installs_before)
      << "the sp pushed during kShed must still install";
  EXPECT_GE(engine->audit()->CountOf(AuditEventKind::kShed), 1);
}

// ---- environment overrides -------------------------------------------------

// The four SPSTREAM_* overrides CI's overload-chaos leg forces. Each is set,
// checked to land in its field, and restored (unset when it was unset)
// before the test returns, so later tests see the caller's environment.
TEST_F(OverloadTest, FromEnvAppliesEachOverride) {
  const std::map<std::string, std::string> env = {
      {"SPSTREAM_OVERLOAD_SHED", "1"},
      {"SPSTREAM_PENDING_HIGH", "64"},
      {"SPSTREAM_PENDING_LOW", "16"},
      {"SPSTREAM_SHED_FRACTION", "0.25"},
  };
  std::map<std::string, std::optional<std::string>> saved;
  for (const auto& [name, value] : env) {
    const char* old = std::getenv(name.c_str());
    saved[name] = old ? std::optional<std::string>(old) : std::nullopt;
    ASSERT_EQ(setenv(name.c_str(), value.c_str(), /*overwrite=*/1), 0);
  }
  const OverloadOptions base;
  const OverloadOptions got = OverloadOptions::FromEnv(base);
  for (const auto& [name, old] : saved) {
    if (old) {
      setenv(name.c_str(), old->c_str(), 1);
    } else {
      unsetenv(name.c_str());
    }
  }
  EXPECT_FALSE(base.enable_shedding);
  EXPECT_TRUE(got.enable_shedding);
  EXPECT_EQ(got.pending_high_watermark, 64u);
  EXPECT_EQ(got.pending_low_watermark, 16u);
  EXPECT_DOUBLE_EQ(got.shed_fraction, 0.25);
  // Fields without an override keep the caller's value.
  EXPECT_EQ(got.shed_policy, base.shed_policy);
  EXPECT_EQ(got.max_recovery_attempts, base.max_recovery_attempts);
  EXPECT_EQ(got.watchdog, base.watchdog);
}

// ---- fixed controller settings ---------------------------------------------

// The controller's fixed settings, pinned on the controller alone: a shard
// queue 3/4 full is full pressure (kShed), the pending low/high ratio is
// the throttle rung on every signal, and a throttled poll is a quarter of
// the base batch, never below one element.
TEST_F(OverloadTest, ControllerConstantsSetTheLadder) {
  const EngineOptions engine_defaults;
  const OverloadOptions defaults;
  OverloadController ctl(defaults, engine_defaults.shard_queue_capacity);
  const size_t full = engine_defaults.shard_queue_capacity * 3 / 4;
  EXPECT_EQ(ctl.queue_high_watermark(), 3072u);
  EXPECT_EQ(ctl.queue_high_watermark(), full);

  EXPECT_EQ(ctl.Observe(0, 0, 0, 0), OverloadState::kNormal);
  EXPECT_EQ(ctl.EffectiveBatchSize(64), 64u);
  EXPECT_EQ(ctl.Observe(0, full, 0, 0), OverloadState::kShed);
  EXPECT_EQ(ctl.Observe(0, full - 1, 0, 0), OverloadState::kThrottle);

  // Throttle rung: pending_low / pending_high, on the queue signal too.
  const size_t throttle_depth =
      full * defaults.pending_low_watermark / defaults.pending_high_watermark;
  EXPECT_EQ(ctl.Observe(0, throttle_depth - 1, 0, 0), OverloadState::kNormal);
  EXPECT_EQ(ctl.Observe(defaults.pending_low_watermark - 1, 0, 0, 0),
            OverloadState::kNormal);
  EXPECT_EQ(ctl.Observe(defaults.pending_low_watermark, 0, 0, 0),
            OverloadState::kThrottle);
  EXPECT_EQ(ctl.Observe(0, throttle_depth, 0, 0), OverloadState::kThrottle);
  EXPECT_EQ(ctl.EffectiveBatchSize(64), 64u / kThrottleDivisor);
  EXPECT_EQ(ctl.EffectiveBatchSize(64), 16u);
  EXPECT_EQ(ctl.EffectiveBatchSize(1), 1u);
}

// ---- priority shed policy --------------------------------------------------

TEST_F(OverloadTest, PriorityPolicyProtectsTopPriorityStreams) {
  EngineOptions opts;
  opts.overload.enable_shedding = true;
  opts.overload.pending_high_watermark = 2;
  opts.overload.pending_low_watermark = 1;
  opts.overload.shed_policy = ShedPolicy::kPriority;
  opts.overload.shed_fraction = 1.0;  // deterministic for unprotected streams
  auto engine = std::make_unique<SpStreamEngine>(std::move(opts));
  engine->RegisterRole("R0");
  ASSERT_TRUE(engine
                  ->RegisterStream(MakeSchema(
                      "A", {Field{"k", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine
                  ->RegisterStream(MakeSchema(
                      "B", {Field{"k", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine->RegisterSubject("alice", {"R0"}).ok());
  auto qa = engine->RegisterQuery("alice", "SELECT k FROM A");
  auto qb = engine->RegisterQuery("alice", "SELECT k FROM B");
  ASSERT_TRUE(qa.ok() && qb.ok());
  ASSERT_TRUE(engine->SetQueryPriority(*qa, 5).ok());  // A outranks B

  // Pressure samples the PUSHED stream's backlog, so each stream needs its
  // own filler push (which itself sees an empty backlog and sheds nothing)
  // before its test push observes kShed.
  auto filler = [&](const std::string& stream) {
    std::vector<StreamElement> elems;
    elems.emplace_back(sptest::MakeSp(stream, {0}, 1));
    elems.emplace_back(sptest::MakeTuple(0, {7}, 1));
    elems.emplace_back(sptest::MakeTuple(1, {7}, 1));
    ASSERT_TRUE(engine->Push(stream, std::move(elems)).ok());
  };
  filler("A");
  filler("B");

  // Stream A feeds the top-priority query: protected, nothing shed.
  std::vector<StreamElement> to_a;
  for (TupleId t = 2; t < 10; ++t) {
    to_a.emplace_back(sptest::MakeTuple(t, {7}, 1));
  }
  ASSERT_TRUE(engine->Push("A", std::move(to_a)).ok());
  EXPECT_EQ(engine->metrics()->CounterValue("engine.tuples_shed"), 0);

  // Stream B feeds only the lower-priority query: shed (fraction 1.0).
  std::vector<StreamElement> to_b;
  for (TupleId t = 2; t < 8; ++t) {
    to_b.emplace_back(sptest::MakeTuple(t, {9}, 1));
  }
  ASSERT_TRUE(engine->Push("B", std::move(to_b)).ok());
  EXPECT_EQ(engine->metrics()->CounterValue("engine.tuples_shed"), 6);

  ASSERT_TRUE(engine->Run().ok());
  EXPECT_EQ(engine->Results(*qa)->size(), 10u);  // all of A delivered
  EXPECT_EQ(engine->Results(*qb)->size(), 2u);   // B kept only its filler
}

// ---- watchdog-era self-healing round trip ----------------------------------

class SelfHealTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

TEST_P(SelfHealTest, SeededFaultQuarantinesThenRecoversFromCheckpoint) {
  const size_t num_shards = GetParam();
  TempDataDir dir("selfheal_" + std::to_string(num_shards));
  EngineOptions opts;
  opts.num_shards = num_shards;
  opts.data_dir = dir.path();
  opts.overload.max_recovery_attempts = 3;
  opts.overload.recovery_backoff_base_ms = 0;  // first retry is due at once
  opts.overload.watchdog = true;
  opts.overload.watchdog_poll_ms = 5;
  std::vector<QueryId> qids;
  auto engine = BuildEngine(std::move(opts), &qids);
  ASSERT_FALSE(::testing::Test::HasFailure());
  if (num_shards > 1) {
    // The observer thread only has shards to watch on the sharded path.
    EXPECT_EQ(engine->SnapshotMetrics().gauges.at("engine.watchdog_running"),
              1);
  }

  auto feed = [&](Timestamp ts, TupleId base, size_t n) {
    std::vector<StreamElement> elems;
    elems.emplace_back(sptest::MakeSp("A", {0, 2}, ts));
    for (size_t i = 0; i < n; ++i) {
      elems.emplace_back(sptest::MakeTuple(
          base + static_cast<TupleId>(i),
          {static_cast<int64_t>(i % 4), 50}, ts));
    }
    ASSERT_TRUE(engine->Push("A", std::move(elems)).ok());
    ASSERT_TRUE(engine->Run().ok());
  };

  // Epoch 1: clean; both queries deliver and the epoch commits durably.
  feed(1, 0, 8);
  EXPECT_EQ(engine->Results(qids[0])->size(), 8u);

  // Epoch 2: seeded worker fault -> quarantine, fail closed (that epoch's
  // output for the faulted query is discarded, not delivered).
  {
    FaultSpec spec;
    spec.trigger_on_hit = 1;
    ScopedFault armed(fault::kOperatorProcess, spec);
    feed(100, 100, 8);
  }
  const bool q0 = *engine->IsQuarantined(qids[0]);
  const bool q1 = *engine->IsQuarantined(qids[1]);
  ASSERT_TRUE(q0 || q1);
  EXPECT_EQ(engine->quarantined_count(), 1);

  // Epoch 3: the backoff (base 0) has elapsed, so Run()'s safe point
  // retries — pipelines rebuild, operator state restores from the durable
  // checkpoint, trackers re-arm fail closed, and the fresh sp in this
  // epoch's batch re-converges policy so the epoch delivers.
  feed(200, 200, 8);
  EXPECT_FALSE(*engine->IsQuarantined(qids[0]));
  EXPECT_FALSE(*engine->IsQuarantined(qids[1]));
  EXPECT_EQ(engine->quarantined_count(), 0);
  EXPECT_EQ(engine->metrics()->CounterValue("engine.query_recoveries"), 1);
  EXPECT_EQ(engine->metrics()->GaugeValue("engine.queries_quarantined"), 0);
  EXPECT_GE(engine->audit()->CountOf(AuditEventKind::kRecovery), 1);
  // Epoch 1 (8 tuples) + epoch 3 (8 tuples); the faulted epoch 2 was shed
  // fail-closed for the quarantined query.
  const QueryId healed = q0 ? qids[0] : qids[1];
  if (healed == qids[0]) {
    EXPECT_EQ(engine->Results(qids[0])->size(), 16u);
  }
  // EXPLAIN surfaces the recovery outcome for operators.
  auto explain = engine->ExplainQuery(healed);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("recovery:"), std::string::npos) << *explain;
}

INSTANTIATE_TEST_SUITE_P(Shards, SelfHealTest, ::testing::Values(1, 4));

// ---- permanent quarantine --------------------------------------------------

TEST_F(OverloadTest, ExhaustedAttemptsQuarantinePermanentlyUntilManualRecover) {
  EngineOptions opts;
  opts.num_shards = 2;
  opts.overload.max_recovery_attempts = 1;
  opts.overload.recovery_backoff_base_ms = 0;
  std::vector<QueryId> qids;
  auto engine = BuildEngine(std::move(opts), &qids);
  ASSERT_FALSE(::testing::Test::HasFailure());

  auto feed = [&](Timestamp ts, TupleId base) {
    std::vector<StreamElement> elems;
    elems.emplace_back(sptest::MakeSp("A", {0, 2}, ts));
    for (size_t i = 0; i < 8; ++i) {
      elems.emplace_back(sptest::MakeTuple(
          base + static_cast<TupleId>(i),
          {static_cast<int64_t>(i % 4), 50}, ts));
    }
    ASSERT_TRUE(engine->Push("A", std::move(elems)).ok());
    ASSERT_TRUE(engine->Run().ok());
  };

  {
    // A PERSISTENT fault: every epoch's processing blows up, so each
    // recovery succeeds only to re-quarantine in the same epoch — burning
    // one attempt per cycle until the budget (1) is spent.
    FaultSpec spec;
    spec.probability = 1.0;
    ScopedFault armed(fault::kOperatorProcess, spec);
    feed(1, 0);    // quarantine #1 (attempts=0, retry scheduled)
    feed(100, 100);  // auto-recovery (attempt 1) then re-quarantine: permanent
    feed(200, 200);  // permanent: MaybeRecoverQuarantined must skip it
  }
  const bool q0 = *engine->IsQuarantined(qids[0]);
  const bool q1 = *engine->IsQuarantined(qids[1]);
  ASSERT_TRUE(q0 || q1);
  EXPECT_GE(engine->metrics()->CounterValue("engine.permanent_quarantines"),
            1);
  const QueryId sick = q0 ? qids[0] : qids[1];
  auto explain = engine->ExplainQuery(sick);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("PERMANENT"), std::string::npos) << *explain;

  // Fault gone: automatic recovery stays off (permanent), but the manual
  // operator override resurrects the query and it serves again.
  feed(300, 300);
  ASSERT_TRUE(*engine->IsQuarantined(sick));
  ASSERT_TRUE(engine->RecoverQuery(sick).ok());
  EXPECT_FALSE(*engine->IsQuarantined(sick));
  const size_t before = engine->Results(sick)->size();
  feed(400, 400);
  EXPECT_GT(engine->Results(sick)->size(), before);
}

}  // namespace
}  // namespace spstream

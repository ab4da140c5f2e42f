// Audit parity. The Security Shield renders its predicate once, each
// denying policy's roles once and each sp's install/expire text once per
// plan; SAJoin renders each denying policy pair once; events share that
// text by reference count. A shield audits a run of denials under one
// policy object as one event listing the run's tuple ids. Expanding every
// run into one event per tuple must give back the log the engine wrote
// when every denial was its own event and every event rendered its own
// text: same events, same order, same ToString()/ToJson(), same per-kind
// counts, one denied tuple per security drop, and intact after the engine
// is gone.
//
// The moving-objects input alternates tuple-range sps (the policy is
// re-derived per tuple: the slow path) with stream-level ones (the policy
// is uniform, so the memo decides the run), and runs at batch size 1 (row
// memo), 64 and 1024 (columnar memo at every shield of the shared plan;
// at 1024 an epoch is one batch).
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/audit_log.h"
#include "engine/engine.h"
#include "test_util.h"
#include "workload/moving_objects.h"
#include "workload/road_network.h"

namespace spstream {
namespace {

using sptest::MakeSp;

constexpr size_t kEpochs = 3;
constexpr size_t kTuplesPerEpoch = 100;
const char kRegionQuery[] =
    "SELECT object_id, x, y FROM Location "
    "WHERE DISTANCE(x, y, 950, 950) <= 700";
const char* const kSubjectRoles[][2] = {
    {"r1", "r2"}, {"r3", "r7"}, {"r5", "r11"}, {"r2", "r9"}};

/// One epoch of the moving-objects stream; every other sp is rewritten to
/// a stream-level DDP with the same roles and timestamp.
std::vector<StreamElement> EpochElements(const RoleCatalog* roles,
                                         size_t epoch) {
  MovingObjectsOptions mo;
  mo.num_objects = kTuplesPerEpoch;
  mo.num_updates = kTuplesPerEpoch;
  mo.tuples_per_sp = 10;
  mo.roles_per_policy = 2;
  mo.role_pool = 12;
  mo.seed = 31 + epoch;
  mo.start_ts = 1 + static_cast<Timestamp>(epoch * kTuplesPerEpoch);
  std::vector<StreamElement> out =
      MovingObjectsGenerator(roles, RoadNetwork::Grid({}), mo).Generate();
  bool stream_level = false;
  for (StreamElement& e : out) {
    if (!e.is_sp()) continue;
    if (stream_level) {
      SecurityPunctuation sp = SecurityPunctuation::StreamLevel(
          Pattern::Literal("Location"), Pattern::Any(), e.sp().ts());
      sp.SetResolvedRoles(e.sp().roles());
      e = StreamElement(std::move(sp));
    }
    stream_level = !stream_level;
  }
  return out;
}

/// One event per denied tuple, seq renumbered: the log as it read before
/// denial runs.
std::vector<AuditEvent> ExpandRuns(const std::vector<AuditEvent>& events) {
  std::vector<AuditEvent> out;
  for (const AuditEvent& e : events) {
    for (TupleId tid : e.TupleIds()) {
      out.push_back(e);
      out.back().tuple_id = tid;
      out.back().tuple_offsets = 1;
    }
  }
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].seq = static_cast<int64_t>(i);
  }
  return out;
}

/// FNV-1a over the events' JSON with trace ids cleared (tracing is
/// process-global, so another test may have left it on).
uint64_t Digest(const std::vector<AuditEvent>& events) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (AuditEvent e : events) {
    e.trace_id = 0;
    for (unsigned char c : e.ToJson()) {
      h = (h ^ c) * 0x100000001b3ull;
    }
  }
  return h;
}

struct ParityRun {
  std::unique_ptr<SpStreamEngine> engine;
  std::vector<AuditEvent> events;  // every event of the run, in order
  // What the old per-event rendering produced, from the input alone.
  std::map<std::string, std::string> predicate_text;  // by scope
  std::map<Timestamp, std::string> policy_text;       // by sp ts
  std::map<Timestamp, std::set<TupleId>> block_tids;  // tuples after the sp
};

ParityRun RunSharedPlan(size_t num_shards, size_t batch_size) {
  ParityRun run;
  EngineOptions opts;
  opts.share_plans = true;
  opts.num_shards = num_shards;
  opts.batch_size = batch_size;
  run.engine = std::make_unique<SpStreamEngine>(opts);
  SpStreamEngine& engine = *run.engine;
  MovingObjectsGenerator::SeedRoles(engine.roles(), 12);
  EXPECT_TRUE(
      engine.RegisterStream(MovingObjectsGenerator::LocationSchema("Location"))
          .ok());
  const RoleCatalog& catalog = *engine.roles();
  RoleSet all;
  for (size_t s = 0; s < std::size(kSubjectRoles); ++s) {
    const std::string subject = "subject" + std::to_string(s);
    EXPECT_TRUE(engine
                    .RegisterSubject(subject, {kSubjectRoles[s][0],
                                               kSubjectRoles[s][1]})
                    .ok());
    auto q = engine.RegisterQuery(subject, kRegionQuery);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    RoleSet roles;
    for (const char* name : kSubjectRoles[s]) {
      roles.Insert(*catalog.Lookup(name));
    }
    run.predicate_text["q" + std::to_string(*q)] = roles.ToString(catalog);
    all.UnionWith(roles);
  }
  run.predicate_text["shared:q0"] = all.ToString(catalog);

  int64_t next_seq = 0;
  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    std::vector<StreamElement> input = EpochElements(&catalog, epoch);
    Timestamp block = 0;
    for (const StreamElement& e : input) {
      if (e.is_sp()) {
        block = e.sp().ts();
        run.policy_text[block] = e.sp().roles().ToString(catalog);
      } else {
        run.block_tids[block].insert(e.tuple().tid);
      }
    }
    EXPECT_TRUE(engine.Push("Location", std::move(input)).ok());
    EXPECT_TRUE(engine.Run().ok());
    // Collect the epoch's events before the ring can wrap.
    for (const AuditEvent& e : engine.audit()->Events()) {
      if (e.seq < next_seq) continue;
      EXPECT_EQ(e.seq, next_seq) << "events lost to ring eviction";
      next_seq = e.seq + 1;
      run.events.push_back(e);
    }
  }
  return run;
}

/// Every event's text against what per-event rendering produced.
void ExpectOldText(const ParityRun& run) {
  int64_t denials = 0;
  for (const AuditEvent& e : run.events) {
    SCOPED_TRACE(e.ToString());
    EXPECT_EQ(e.stream, "Location");
    switch (e.kind) {
      case AuditEventKind::kDenial: {
        denials += e.count();
        ASSERT_EQ(run.predicate_text.count(e.scope), 1u);
        EXPECT_EQ(e.roles, run.predicate_text.at(e.scope));
        ASSERT_EQ(run.policy_text.count(e.sp_ts), 1u);
        EXPECT_EQ(e.detail, "policy allows " + run.policy_text.at(e.sp_ts));
        // Each denied tuple follows the sp whose policy the detail names:
        // a detail left over from the previous policy would fail here.
        for (TupleId tid : e.TupleIds()) {
          EXPECT_EQ(run.block_tids.at(e.sp_ts).count(tid), 1u) << tid;
        }
        break;
      }
      case AuditEventKind::kPolicyInstall:
        ASSERT_EQ(run.policy_text.count(e.sp_ts), 1u);
        EXPECT_EQ(e.roles, run.policy_text.at(e.sp_ts));
        EXPECT_EQ(e.detail, "+");
        break;
      case AuditEventKind::kPolicyExpire: {
        const std::string prefix = "policy overridden by newer sp-batch ts=";
        const std::string& detail = e.detail;
        ASSERT_EQ(detail.rfind(prefix, 0), 0u);
        const Timestamp newer = std::stoll(detail.substr(prefix.size()));
        EXPECT_EQ(detail, prefix + std::to_string(newer));
        EXPECT_GT(newer, e.sp_ts);
        EXPECT_EQ(run.policy_text.count(newer), 1u);
        EXPECT_TRUE(e.roles.empty());
        break;
      }
      default:
        ADD_FAILURE() << "unexpected event kind";
    }
  }
  const AuditLog& log = *run.engine->audit();
  EXPECT_EQ(log.CountOf(AuditEventKind::kDenial), denials);
  EXPECT_EQ(
      log.CountOf(AuditEventKind::kDenial),
      run.engine->SnapshotMetrics().engine_totals.tuples_dropped_security);
  EXPECT_GT(denials, 0);
  EXPECT_EQ(log.total(), static_cast<int64_t>(run.events.size()));
}

class AuditParityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AuditParityTest, SharedPlanEventsReadAsPerEventRendering) {
  const ParityRun run = RunSharedPlan(/*num_shards=*/1, GetParam());
  ExpectOldText(run);
}

/// {digest of the expanded log, digest of the log itself} per batch size.
/// At batch size 1 every batch holds one element and every run closes at
/// its batch's end, so the two agree.
struct PinnedDigests {
  uint64_t expanded;
  uint64_t runs;
};

PinnedDigests DigestsFor(size_t batch_size) {
  switch (batch_size) {
    case 1: return {0xefafd91f0943c4a0ull, 0xefafd91f0943c4a0ull};
    case 64: return {0x63c7bcf421a17ebcull, 0x216b1b9817aa3053ull};
    default: return {0x74ff954aa823c130ull, 0x7be685d66419031bull};
  }
}

// Expanded into one event per denied tuple, the log of the same input is
// byte-identical to the one the engine wrote when every denial was its own
// event and every event rendered its own text (digests taken from that
// version). The run log itself is pinned too. Any change to what the SS
// audits, or how, shows up here; update a digest only for an intended
// change of the log.
TEST_P(AuditParityTest, SharedPlanLogMatchesPerEventRenderingDigest) {
  const ParityRun run = RunSharedPlan(/*num_shards=*/1, GetParam());
  const PinnedDigests want = DigestsFor(GetParam());
  const std::vector<AuditEvent> expanded = ExpandRuns(run.events);
  EXPECT_EQ(Digest(expanded), want.expanded)
      << std::hex << "0x" << Digest(expanded) << " over " << std::dec
      << expanded.size() << " expanded events";
  EXPECT_EQ(Digest(run.events), want.runs)
      << std::hex << "0x" << Digest(run.events) << " over " << std::dec
      << run.events.size() << " events";
}

TEST_P(AuditParityTest, EventsOutliveTheEngine) {
  ParityRun run = RunSharedPlan(/*num_shards=*/1, GetParam());
  std::vector<std::string> json;
  for (const AuditEvent& e : run.events) json.push_back(e.ToJson());
  run.engine.reset();  // every shield, and its cached text, is gone
  ASSERT_EQ(run.events.size(), json.size());
  for (size_t i = 0; i < json.size(); ++i) {
    EXPECT_EQ(run.events[i].ToJson(), json[i]);
  }
  for (const AuditEvent& e : run.events) {
    if (e.kind != AuditEventKind::kDenial) continue;
    EXPECT_EQ(e.roles, run.predicate_text.at(e.scope));
    EXPECT_EQ(e.detail, "policy allows " + run.policy_text.at(e.sp_ts));
  }
}

// Two shards append from their own threads when two CPUs are usable (CI
// runs this under ThreadSanitizer); each event's text must still be exact.
TEST_P(AuditParityTest, TwoShardDenialsReadAsPerEventRendering) {
  const ParityRun run = RunSharedPlan(/*num_shards=*/2, GetParam());
  ExpectOldText(run);
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, AuditParityTest,
                         ::testing::Values(size_t{1}, size_t{64},
                                           size_t{1024}),
                         [](const auto& info) {
                           return "batch" + std::to_string(info.param);
                         });

// A new sp-batch changes the denial detail at exactly the first tuple it
// governs, on the memoized path (stream-level sps) at both batch sizes.
TEST(AuditParityPolicyChangeTest, DetailChangesAtFirstTupleOfNewBatch) {
  for (size_t batch_size : {size_t{1}, size_t{64}}) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    EngineOptions opts;
    opts.batch_size = batch_size;
    SpStreamEngine engine(opts);
    const RoleId gp = engine.RegisterRole("GP");
    engine.RegisterRole("ND");
    const RoleId rx = engine.RegisterRole("RX");
    ASSERT_TRUE(engine
                    .RegisterStream(MakeSchema(
                        "S", {Field{"a", ValueType::kInt64},
                              Field{"b", ValueType::kInt64}}))
                    .ok());
    ASSERT_TRUE(engine.RegisterSubject("nurse", {"ND"}).ok());
    auto q = engine.RegisterQuery("nurse", "SELECT a FROM S");
    ASSERT_TRUE(q.ok());
    std::vector<StreamElement> input;
    input.emplace_back(MakeSp("S", {gp}, 1));
    for (TupleId t = 1; t <= 5; ++t) {
      input.emplace_back(
          sptest::MakeTuple(t, {1, 2}, static_cast<Timestamp>(t)));
    }
    input.emplace_back(MakeSp("S", {gp, rx}, 6));
    for (TupleId t = 6; t <= 10; ++t) {
      input.emplace_back(
          sptest::MakeTuple(t, {1, 2}, static_cast<Timestamp>(t)));
    }
    ASSERT_TRUE(engine.Push("S", std::move(input)).ok());
    ASSERT_TRUE(engine.Run().ok());

    std::vector<AuditEvent> denials;
    for (const AuditEvent& e : ExpandRuns(engine.audit()->Events())) {
      if (e.kind == AuditEventKind::kDenial) denials.push_back(e);
    }
    ASSERT_EQ(denials.size(), 10u);
    for (const AuditEvent& e : denials) {
      const bool second = e.tuple_id >= 6;
      EXPECT_EQ(e.sp_ts, second ? 6 : 1) << e.ToString();
      EXPECT_EQ(e.detail, second ? "policy allows {GP, RX}"
                                 : "policy allows {GP}")
          << e.ToString();
      EXPECT_EQ(e.roles, "{ND}");
      EXPECT_EQ(e.ToString(),
                "#" + std::to_string(e.seq) + " denial scope=q" +
                    std::to_string(*q) + " stream=S tuple=" +
                    std::to_string(e.tuple_id) + " sp_ts=" +
                    std::to_string(e.sp_ts) + " roles={ND} (" +
                    std::string(e.detail) + ")");
    }
  }
}

/// What one run of the join-denial workload produced.
struct JoinDenialRun {
  std::vector<Tuple> results;
  std::vector<AuditEvent> denials;
  int64_t denial_count = 0;     ///< AuditLog::CountOf(kDenial)
  int64_t security_drops = 0;   ///< engine-wide tuples_dropped_security
};

/// Two streams whose policies never intersect: A grants R0; B grants R1,
/// then {R1, R2}. Every A-B key match pairs incompatible policies.
JoinDenialRun RunJoinDenialWorkload(const EngineOptions& opts) {
  JoinDenialRun run;
  SpStreamEngine engine(opts);
  const RoleId r0 = engine.RegisterRole("R0");
  const RoleId r1 = engine.RegisterRole("R1");
  const RoleId r2 = engine.RegisterRole("R2");
  EXPECT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "A", {Field{"k", ValueType::kInt64},
                            Field{"v", ValueType::kInt64}}))
                  .ok());
  EXPECT_TRUE(
      engine.RegisterStream(MakeSchema("B", {Field{"k", ValueType::kInt64}}))
          .ok());
  EXPECT_TRUE(engine.RegisterSubject("alice", {"R0", "R1"}).ok());
  auto q = engine.RegisterQuery(
      "alice", "SELECT A.v FROM A [RANGE 64], B [RANGE 64] WHERE A.k = B.k");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) return run;
  EXPECT_TRUE(engine
                  .Push("A", {StreamElement(MakeSp("A", {r0}, 1)),
                              StreamElement(sptest::MakeTuple(1, {7, 70}, 1))})
                  .ok());
  EXPECT_TRUE(engine
                  .Push("B", {StreamElement(MakeSp("B", {r1}, 2)),
                              StreamElement(sptest::MakeTuple(2, {7}, 2, 1)),
                              StreamElement(MakeSp("B", {r1, r2}, 3)),
                              StreamElement(sptest::MakeTuple(3, {7}, 3, 1))})
                  .ok());
  EXPECT_TRUE(engine.Run().ok());
  run.results = engine.Results(*q).value();
  for (const AuditEvent& e : engine.audit()->Events()) {
    if (e.kind == AuditEventKind::kDenial) run.denials.push_back(e);
  }
  run.denial_count = engine.audit()->CountOf(AuditEventKind::kDenial);
  run.security_drops =
      engine.SnapshotMetrics().engine_totals.tuples_dropped_security;
  return run;
}

// A join result whose base policies do not intersect is denied with the
// two policies' roles rendered as "A∩B". The nested-loop probe-and-filter
// join denies while probing, the probing tuple's policy first. (The index
// join only ever visits policy-compatible segments.) The second denial
// comes under a new policy pair, so a stale rendered text would show.
TEST(AuditParityJoinTest, JoinDenialRendersBothPolicies) {
  EngineOptions opts;
  opts.physical.join_impl = PhysicalPlanOptions::JoinImpl::kNestedLoop;
  const JoinDenialRun run = RunJoinDenialWorkload(opts);
  EXPECT_TRUE(run.results.empty());
  const std::vector<AuditEvent>& denials = run.denials;
  ASSERT_EQ(denials.size(), 2u);
  EXPECT_EQ(denials[0].roles, "{R1}∩{R0}") << denials[0].ToString();
  EXPECT_EQ(denials[0].tuple_id, 2);
  EXPECT_EQ(denials[0].sp_ts, 2);
  EXPECT_EQ(denials[1].roles, "{R1, R2}∩{R0}") << denials[1].ToString();
  EXPECT_EQ(denials[1].tuple_id, 3);
  EXPECT_EQ(denials[1].sp_ts, 3);
  for (const AuditEvent& e : denials) {
    EXPECT_EQ(e.detail, "join policies incompatible (empty intersection)");
  }
  EXPECT_EQ(run.denial_count, run.security_drops);
}

// The same workload over the four join configurations: every one delivers
// the same result tuples, but only the nested-loop probe-and-filter join
// ever forms an incompatible pair, so only it audits denials. The index
// join (with or without the skipping rule) and filter-and-probe skip
// incompatible segments before matching keys, and the empty-intersection
// branch of SaJoinBase::EmitJoinResult is never reached. These counts pin
// today's behaviour; which denial count the paper implies is open.
TEST(AuditParityJoinTest, FourJoinsAgreeOnResultsAndPinDenialCounts) {
  using JoinImpl = PhysicalPlanOptions::JoinImpl;
  using ProbeMethod = SaJoinOptions::ProbeMethod;
  struct Config {
    const char* name;
    JoinImpl impl;
    ProbeMethod probe;
    bool skipping;
    int64_t denials;
  };
  const Config configs[] = {
      {"nl probe-and-filter", JoinImpl::kNestedLoop,
       ProbeMethod::kProbeAndFilter, true, 2},
      {"nl filter-and-probe", JoinImpl::kNestedLoop,
       ProbeMethod::kFilterAndProbe, true, 0},
      {"index, skipping rule", JoinImpl::kIndex, ProbeMethod::kProbeAndFilter,
       true, 0},
      {"index, no skipping rule", JoinImpl::kIndex,
       ProbeMethod::kProbeAndFilter, false, 0},
  };
  std::vector<Tuple> reference;
  for (size_t i = 0; i < std::size(configs); ++i) {
    const Config& c = configs[i];
    SCOPED_TRACE(c.name);
    EngineOptions opts;
    opts.physical.join_impl = c.impl;
    opts.physical.probe_method = c.probe;
    opts.physical.use_skipping_rule = c.skipping;
    const JoinDenialRun run = RunJoinDenialWorkload(opts);
    if (i == 0) {
      reference = run.results;
    } else {
      EXPECT_EQ(run.results, reference);
    }
    EXPECT_EQ(run.denial_count, c.denials);
    EXPECT_EQ(static_cast<int64_t>(run.denials.size()), c.denials);
    EXPECT_EQ(run.denial_count, run.security_drops);
  }
}

}  // namespace
}  // namespace spstream

// Tracing overhead — what the always-available tracer costs the hot path:
// end-to-end tuples/sec of the single-shard engine over the same punctuated
// windowed join as bench_batch_size, measured (a) with tracing compiled in
// but disabled (the shipping default: every span site is two predictable
// branches), and (b) with tracing enabled at sample rates 1/1, 1/8 and
// 1/64. The contract is <3% throughput cost with tracing enabled at the
// default CLI rate (1/1) and noise-level cost when disabled.
//
// The security audit log is measured the same way: a denial-heavy shared
// select (the perfbench enforce_select shape: moving objects, an sp every
// 10 tuples granting 4 of 100 roles, 8 subjects with distinct role pairs
// sharing one region query) with EngineOptions::enable_audit off and on,
// repetitions interleaved; the difference is audit_overhead_pct.
//
// Emits a machine-readable summary to stdout, BENCH_trace_overhead.json in
// the working directory, and SPSTREAM_BENCH_JSON_DIR when set.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/trace.h"
#include "engine/engine.h"
#include "security/security_punctuation.h"
#include "workload/moving_objects.h"
#include "workload/road_network.h"

namespace spstream::bench {
namespace {

constexpr size_t kEpochs = 3;
constexpr int kReps = 3;  // timed repetitions after one warmup epoch
constexpr size_t kTuplesPerEpoch = 20000;  // per stream, per epoch
constexpr int kTuplesPerSp = 400;
constexpr int64_t kWindow = 4000;
constexpr size_t kKeySpace = 1 << 12;
constexpr size_t kRolePool = 16;
constexpr size_t kRolesPerSp = 8;

SchemaPtr ASchema() {
  return MakeSchema("A", {Field{"k", ValueType::kInt64},
                          Field{"v", ValueType::kInt64}});
}

SchemaPtr BSchema() {
  return MakeSchema("B", {Field{"k", ValueType::kInt64},
                          Field{"u", ValueType::kInt64}});
}

SecurityPunctuation GrantSp(const std::string& stream, Rng* rng,
                            Timestamp ts) {
  SecurityPunctuation sp(Pattern::Literal(stream), Pattern::Any(),
                         Pattern::Any(), Pattern::Any(), Sign::kPositive,
                         /*immutable=*/false, ts);
  std::vector<RoleId> roles;
  for (size_t i = 0; i < kRolesPerSp; ++i) {
    roles.push_back(static_cast<RoleId>(rng->NextBounded(kRolePool)));
  }
  roles.push_back(0);  // always include the query's role: SS-pass workload
  sp.SetResolvedRoles(RoleSet::FromIds(roles));
  return sp;
}

std::vector<StreamElement> MakeEpoch(const std::string& stream, Rng* rng,
                                     Timestamp* ts, TupleId* tid) {
  std::vector<StreamElement> out;
  out.reserve(kTuplesPerEpoch + kTuplesPerEpoch / kTuplesPerSp + 1);
  for (size_t i = 0; i < kTuplesPerEpoch; ++i) {
    if (i % kTuplesPerSp == 0) out.emplace_back(GrantSp(stream, rng, *ts));
    const int64_t key = static_cast<int64_t>(rng->NextBounded(kKeySpace));
    out.emplace_back(
        Tuple(0, (*tid)++,
              {Value(key),
               Value(static_cast<int64_t>(rng->NextBounded(2000)))},
              *ts));
    *ts += 2;
  }
  return out;
}

struct Mode {
  std::string name;      // "off", "sample_1", ...
  uint64_t sample_n = 0;  // 0 = tracing disabled
};

struct OverheadResult {
  std::string mode;
  uint64_t sample_n = 0;
  double seconds = 0;
  double tuples_per_sec = 0;
  double overhead_pct = 0;  // vs tracing off
  size_t results = 0;
  RepStats stats;
};

OverheadResult RunMode(const Mode& mode) {
  // The tracer is process-global: arm it (or not) for this mode, and clear
  // retained events so one mode's rings don't skew the next one's Snapshot.
  Tracer& tracer = Tracer::Global();
  if (mode.sample_n > 0) {
    tracer.Enable(mode.sample_n);
  } else {
    tracer.Disable();
  }
  tracer.Clear();

  EngineOptions opts;
  opts.num_shards = 1;
  opts.batch_size = 64;
  SpStreamEngine engine(std::move(opts));
  for (size_t r = 0; r < kRolePool; ++r) {
    engine.RegisterRole("role" + std::to_string(r));
  }
  (void)engine.RegisterStream(ASchema());
  (void)engine.RegisterStream(BSchema());
  (void)engine.RegisterSubject("tracker", {"role0"});
  const QueryId qid =
      engine
          .RegisterQuery("tracker",
                         "SELECT A.v FROM A [RANGE " +
                             std::to_string(kWindow) + "], B [RANGE " +
                             std::to_string(kWindow) +
                             "] WHERE A.k = B.k")
          .value();

  Rng rng_a(2008);
  Rng rng_b(2009);
  Timestamp ts_a = 1;
  Timestamp ts_b = 2;
  TupleId tid = 0;
  OverheadResult res;
  res.mode = mode.name;
  res.sample_n = mode.sample_n;
  auto epoch = [&] {
    (void)engine.Push("A", MakeEpoch("A", &rng_a, &ts_a, &tid));
    (void)engine.Push("B", MakeEpoch("B", &rng_b, &ts_b, &tid));
    (void)engine.Run();
    res.results += engine.TakeResults(qid).value().size();
  };
  res.stats = MeasureReps(
      kReps, /*warmup=*/epoch,
      /*timed_rep=*/[&] {
        const int64_t start = NowNanos();
        for (size_t e = 0; e < kEpochs; ++e) epoch();
        return static_cast<double>(NowNanos() - start) / 1e9;
      });
  res.seconds = res.stats.Min();
  res.tuples_per_sec =
      static_cast<double>(kEpochs * kTuplesPerEpoch * 2) / res.seconds;
  tracer.Disable();
  return res;
}

// ---- audit overhead ------------------------------------------------------

constexpr size_t kAuditTuplesPerEpoch = 200;
constexpr int kAuditTuplesPerSp = 10;
constexpr size_t kAuditRolesPerSp = 4;
constexpr size_t kAuditRolePool = 100;
constexpr size_t kAuditSubjects = 8;
constexpr size_t kAuditEpochsPerRep = 1000;
constexpr size_t kAuditWarmupEpochs = 200;
constexpr int kAuditReps = 7;
const char kAuditQuery[] =
    "SELECT object_id, x, y FROM Location "
    "WHERE DISTANCE(x, y, 1450, 1450) <= 1200";

struct AuditResult {
  bool enable_audit = false;
  double tuples_per_sec = 0;
  int64_t denials = 0;  // tuples dropped by the shields over the run
  RepStats stats;
};

/// One engine running the shared select with the audit log on or off.
/// Epochs are generated outside the timed span; only Push, Run and taking
/// results are timed.
class AuditRun {
 public:
  explicit AuditRun(bool enable_audit) : engine_(Options(enable_audit)) {
    MovingObjectsGenerator::SeedRoles(engine_.roles(), kAuditRolePool);
    (void)engine_.RegisterStream(
        MovingObjectsGenerator::LocationSchema("Location"));
    Rng rng(2019);
    std::set<std::pair<RoleId, RoleId>> used;
    while (queries_.size() < kAuditSubjects) {
      const RoleId a = static_cast<RoleId>(rng.NextBounded(kAuditRolePool));
      const RoleId b = static_cast<RoleId>(rng.NextBounded(kAuditRolePool));
      if (a == b || !used.insert(std::minmax(a, b)).second) continue;
      const std::string subject =
          "subject" + std::to_string(queries_.size());
      (void)engine_.RegisterSubject(subject, {"r" + std::to_string(a + 1),
                                              "r" + std::to_string(b + 1)});
      queries_.push_back(
          engine_.RegisterQuery(subject, kAuditQuery).value());
    }
  }

  /// Runs `epochs` epochs; returns the seconds spent inside the engine.
  double Block(size_t epochs) {
    int64_t ns = 0;
    for (size_t e = 0; e < epochs; ++e) {
      MovingObjectsOptions mo;
      mo.num_objects = kAuditTuplesPerEpoch;
      mo.num_updates = kAuditTuplesPerEpoch;
      mo.tuples_per_sp = kAuditTuplesPerSp;
      mo.roles_per_policy = kAuditRolesPerSp;
      mo.role_pool = kAuditRolePool;
      mo.seed = 100 + static_cast<uint64_t>(epoch_);
      mo.start_ts = 1 + epoch_ * static_cast<int64_t>(kAuditTuplesPerEpoch);
      ++epoch_;
      std::vector<StreamElement> elements =
          MovingObjectsGenerator(engine_.roles(), network_, mo).Generate();
      const int64_t start = NowNanos();
      (void)engine_.Push("Location", std::move(elements));
      (void)engine_.Run();
      for (QueryId q : queries_) (void)engine_.TakeResults(q);
      ns += NowNanos() - start;
    }
    return static_cast<double>(ns) / 1e9;
  }

  int64_t denials() {
    return engine_.SnapshotMetrics().engine_totals.tuples_dropped_security;
  }

 private:
  static EngineOptions Options(bool enable_audit) {
    EngineOptions opts;
    opts.share_plans = true;
    opts.enable_audit = enable_audit;
    return opts;
  }
  static RoadNetwork Network() {
    RoadNetworkOptions net;
    net.grid_width = 30;
    net.grid_height = 30;
    return RoadNetwork::Grid(net);
  }

  SpStreamEngine engine_;
  std::vector<QueryId> queries_;
  const RoadNetwork network_ = Network();
  int64_t epoch_ = 0;
};

/// Audit log off and on over the same epochs. Each repetition runs one
/// block on each engine, in alternating order, so both sides see the same
/// stretch of the host.
std::vector<AuditResult> RunAuditPair() {
  Tracer::Global().Disable();
  AuditRun runs[2] = {AuditRun(false), AuditRun(true)};
  std::vector<AuditResult> res(2);
  int rep = 0;
  MeasureReps(
      kAuditReps,
      /*warmup=*/
      [&] {
        for (AuditRun& r : runs) r.Block(kAuditWarmupEpochs);
      },
      /*timed_rep=*/
      [&] {
        double total = 0;
        for (int k = 0; k < 2; ++k) {
          const int side = (rep + k) % 2;
          const double s = runs[side].Block(kAuditEpochsPerRep);
          res[side].stats.seconds.push_back(s);
          total += s;
        }
        ++rep;
        return total;
      });
  for (int side = 0; side < 2; ++side) {
    res[side].enable_audit = side == 1;
    res[side].tuples_per_sec =
        static_cast<double>(kAuditEpochsPerRep * kAuditTuplesPerEpoch) /
        res[side].stats.Min();
    res[side].denials = runs[side].denials();
  }
  return res;
}

std::string ToJson(const std::vector<OverheadResult>& results,
                   const std::vector<AuditResult>& audit,
                   double audit_overhead_pct) {
  std::ostringstream os;
  os << "{\"bench\":\"trace_overhead\",\"config\":{\"epochs\":" << kEpochs
     << ",\"tuples_per_epoch_per_stream\":" << kTuplesPerEpoch
     << ",\"tuples_per_sp\":" << kTuplesPerSp << ",\"window\":" << kWindow
     << ",\"key_space\":" << kKeySpace
     << ",\"shards\":1,\"batch_size\":64,\"reps\":" << kReps
     << ",\"warmup_epochs\":1,\"target_overhead_pct\":3},\"results\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    const OverheadResult& r = results[i];
    if (i) os << ",";
    os << "{\"mode\":\"" << r.mode << "\",\"sample_n\":" << r.sample_n
       << ",";
    AppendRepStatsJson(os, r.stats);
    os << ",\"tuples_per_sec\":" << r.tuples_per_sec
       << ",\"overhead_pct\":" << r.overhead_pct
       << ",\"results\":" << r.results << "}";
  }
  os << "],\"audit\":{\"config\":{\"tuples_per_epoch\":"
     << kAuditTuplesPerEpoch << ",\"tuples_per_sp\":" << kAuditTuplesPerSp
     << ",\"roles_per_sp\":" << kAuditRolesPerSp
     << ",\"role_pool\":" << kAuditRolePool
     << ",\"subjects\":" << kAuditSubjects
     << ",\"share_plans\":true,\"epochs_per_rep\":" << kAuditEpochsPerRep
     << ",\"warmup_epochs\":" << kAuditWarmupEpochs
     << ",\"reps\":" << kAuditReps << "},\"results\":[";
  for (size_t i = 0; i < audit.size(); ++i) {
    const AuditResult& r = audit[i];
    if (i) os << ",";
    os << "{\"mode\":\"" << (r.enable_audit ? "audit_on" : "audit_off")
       << "\",";
    AppendRepStatsJson(os, r.stats);
    os << ",\"tuples_per_sec\":" << r.tuples_per_sec
       << ",\"denials\":" << r.denials << "}";
  }
  os << "],\"audit_overhead_pct\":" << audit_overhead_pct << "}}";
  return os.str();
}

}  // namespace
}  // namespace spstream::bench

int main() {
  using namespace spstream::bench;
  std::cout << "Trace overhead: single-shard engine throughput by tracer "
               "state\n"
            << "(windowed join, " << kEpochs << " epochs x "
            << kTuplesPerEpoch << " tuples/stream, sp every " << kTuplesPerSp
            << " tuples, batch 64)\n";

  const std::vector<Mode> modes = {
      {"off", 0}, {"sample_1", 1}, {"sample_8", 8}, {"sample_64", 64}};
  std::vector<OverheadResult> results;
  for (const Mode& m : modes) results.push_back(RunMode(m));
  for (OverheadResult& r : results) {
    r.overhead_pct =
        100.0 * (results[0].tuples_per_sec - r.tuples_per_sec) /
        results[0].tuples_per_sec;
  }

  PrintHeader("Trace overhead", "tuples/sec by tracer state");
  PrintLegend("mode", {"tuples/s", "overhead %", "stddev(ms)", "results"});
  for (const OverheadResult& r : results) {
    PrintRow(r.mode,
             {r.tuples_per_sec, r.overhead_pct, r.stats.Stddev() * 1e3,
              static_cast<double>(r.results)},
             2);
  }

  const std::vector<AuditResult> audit = RunAuditPair();
  const double audit_overhead_pct =
      100.0 * (audit[0].tuples_per_sec - audit[1].tuples_per_sec) /
      audit[0].tuples_per_sec;
  PrintHeader("Audit overhead",
              "tuples/sec of a denial-heavy shared select by audit log state");
  PrintLegend("mode", {"tuples/s", "overhead %", "stddev(ms)", "denials"});
  for (const AuditResult& r : audit) {
    PrintRow(r.enable_audit ? "audit_on" : "audit_off",
             {r.tuples_per_sec, r.enable_audit ? audit_overhead_pct : 0.0,
              r.stats.Stddev() * 1e3, static_cast<double>(r.denials)},
             2);
  }

  const std::string json = ToJson(results, audit, audit_overhead_pct);
  std::cout << "\nJSON: " << json << "\n";
  {
    std::ofstream out("BENCH_trace_overhead.json");
    out << json << "\n";
    std::cout << "wrote BENCH_trace_overhead.json\n";
  }
  if (const char* dir = std::getenv("SPSTREAM_BENCH_JSON_DIR")) {
    const std::string path = std::string(dir) + "/BENCH_trace_overhead.json";
    std::ofstream out(path);
    out << json << "\n";
    std::cout << "wrote " << path << "\n";
  }
  std::cout << "\nSpans are recorded into per-thread lock-free rings (one "
               "relaxed-atomic slot\nwrite per span); disabled tracing is "
               "two branches per site and allocates\nnothing. The contract "
               "is <3% overhead at the default 1/1 sampling.\n";
  return 0;
}

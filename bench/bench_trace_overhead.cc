// Tracing overhead — what the always-available tracer costs the hot path:
// end-to-end tuples/sec of the single-shard engine over the same punctuated
// windowed join as bench_batch_size, measured (a) with tracing compiled in
// but disabled (the shipping default: every span site is two predictable
// branches), and (b) with tracing enabled at sample rates 1/1, 1/8 and
// 1/64. Each mode has its own engine; every repetition runs one block of
// epochs per mode, in an order that rotates from one repetition to the
// next, so all four modes see the same stretch of the host. The contract is
// <3% throughput cost with tracing enabled at the default CLI rate (1/1)
// and noise-level cost when disabled.
//
// The security audit log is measured the same way: a denial-heavy shared
// select (the perfbench enforce_select shape: moving objects, an sp every
// 10 tuples granting 4 of 100 roles, 8 subjects with distinct role pairs
// sharing one region query) with EngineOptions::enable_audit off and on.
// Each repetition runs one block per side, the first side alternating, and
// yields one on/off time ratio; audit_overhead_pct is the throughput cost
// at the median ratio, 100 * (1 - 1 / median), with the ratios' min and
// max next to it.
//
// Emits a machine-readable summary to stdout, BENCH_trace_overhead.json in
// the working directory, and SPSTREAM_BENCH_JSON_DIR when set.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
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
// Timed repetitions after one warmup epoch; one per mode, so the rotation
// puts every mode in every position once.
constexpr int kReps = 4;
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

/// One engine over the punctuated windowed join, traced at one mode's
/// sample rate (or not at all).
class TraceRun {
 public:
  explicit TraceRun(const Mode& mode)
      : mode_(mode), engine_(Options()), qid_(Register(&engine_)) {}

  /// Arms the process-global tracer for this run's mode, runs `epochs`
  /// epochs (input generation included) and returns their seconds.
  double Block(size_t epochs) {
    // Clear retained events so one mode's rings don't skew the next one's
    // Snapshot.
    Tracer& tracer = Tracer::Global();
    if (mode_.sample_n > 0) {
      tracer.Enable(mode_.sample_n);
    } else {
      tracer.Disable();
    }
    tracer.Clear();
    const int64_t start = NowNanos();
    for (size_t e = 0; e < epochs; ++e) {
      (void)engine_.Push("A", MakeEpoch("A", &rng_a_, &ts_a_, &tid_));
      (void)engine_.Push("B", MakeEpoch("B", &rng_b_, &ts_b_, &tid_));
      (void)engine_.Run();
      results_ += engine_.TakeResults(qid_).value().size();
    }
    const int64_t ns = NowNanos() - start;
    tracer.Disable();
    return static_cast<double>(ns) / 1e9;
  }

  const Mode& mode() const { return mode_; }
  size_t results() const { return results_; }

 private:
  static EngineOptions Options() {
    EngineOptions opts;
    opts.num_shards = 1;
    opts.batch_size = 64;
    return opts;
  }
  static QueryId Register(SpStreamEngine* engine) {
    for (size_t r = 0; r < kRolePool; ++r) {
      engine->RegisterRole("role" + std::to_string(r));
    }
    (void)engine->RegisterStream(ASchema());
    (void)engine->RegisterStream(BSchema());
    (void)engine->RegisterSubject("tracker", {"role0"});
    return engine
        ->RegisterQuery("tracker",
                        "SELECT A.v FROM A [RANGE " + std::to_string(kWindow) +
                            "], B [RANGE " + std::to_string(kWindow) +
                            "] WHERE A.k = B.k")
        .value();
  }

  Mode mode_;
  SpStreamEngine engine_;
  QueryId qid_;
  Rng rng_a_{2008};
  Rng rng_b_{2009};
  Timestamp ts_a_ = 1;
  Timestamp ts_b_ = 2;
  TupleId tid_ = 0;
  size_t results_ = 0;
};

/// Every mode over the same epochs, one block per mode per repetition in
/// rotating order; overhead is each mode's best block against "off"'s
/// (modes[0]).
std::vector<OverheadResult> RunModes(const std::vector<Mode>& modes) {
  std::vector<std::unique_ptr<TraceRun>> runs;
  for (const Mode& m : modes) runs.push_back(std::make_unique<TraceRun>(m));
  std::vector<OverheadResult> res(modes.size());
  size_t rep = 0;
  MeasureReps(
      kReps,
      /*warmup=*/
      [&] {
        for (auto& r : runs) r->Block(1);
      },
      /*timed_rep=*/
      [&] {
        double total = 0;
        for (size_t k = 0; k < runs.size(); ++k) {
          const size_t i = (rep + k) % runs.size();
          const double s = runs[i]->Block(kEpochs);
          res[i].stats.seconds.push_back(s);
          total += s;
        }
        ++rep;
        return total;
      });
  for (size_t i = 0; i < runs.size(); ++i) {
    OverheadResult& r = res[i];
    r.mode = runs[i]->mode().name;
    r.sample_n = runs[i]->mode().sample_n;
    r.seconds = r.stats.Min();
    r.tuples_per_sec =
        static_cast<double>(kEpochs * kTuplesPerEpoch * 2) / r.seconds;
    r.results = runs[i]->results();
  }
  for (OverheadResult& r : res) {
    r.overhead_pct = 100.0 * (res[0].tuples_per_sec - r.tuples_per_sec) /
                     res[0].tuples_per_sec;
  }
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
  double events_per_epoch = 0;         // audit events appended
  double denial_events_per_epoch = 0;  // of which denial (run) events
  RepStats stats;
};

/// The paired audit measurement: one on/off time ratio per repetition.
struct AuditPair {
  std::vector<AuditResult> sides;  // [0] audit off, [1] audit on
  std::vector<double> ratios;      // on seconds / off seconds, per rep
  double median_ratio = 0;
  double overhead_pct = 0;  // 100 * (1 - 1 / median_ratio)
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
  int64_t epochs() const { return epoch_; }
  /// Audit events appended so far, and how many of them are denials. Every
  /// other kind counts one per event, so the denial events are the rest.
  int64_t events() const { return engine_.audit()->total(); }
  int64_t denial_events() const {
    int64_t other = 0;
    for (int k = 0; k < kNumAuditEventKinds; ++k) {
      const auto kind = static_cast<AuditEventKind>(k);
      if (kind != AuditEventKind::kDenial) {
        other += engine_.audit()->CountOf(kind);
      }
    }
    return events() - other;
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
AuditPair RunAuditPair() {
  Tracer::Global().Disable();
  AuditRun runs[2] = {AuditRun(false), AuditRun(true)};
  AuditPair pair;
  std::vector<AuditResult>& res = pair.sides;
  res.resize(2);
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
    AuditRun& run = runs[side];
    res[side].enable_audit = side == 1;
    res[side].tuples_per_sec =
        static_cast<double>(kAuditEpochsPerRep * kAuditTuplesPerEpoch) /
        res[side].stats.Min();
    res[side].denials = run.denials();
    res[side].events_per_epoch =
        static_cast<double>(run.events()) / static_cast<double>(run.epochs());
    res[side].denial_events_per_epoch =
        static_cast<double>(run.denial_events()) /
        static_cast<double>(run.epochs());
  }
  for (size_t i = 0; i < res[0].stats.seconds.size(); ++i) {
    pair.ratios.push_back(res[1].stats.seconds[i] / res[0].stats.seconds[i]);
  }
  std::vector<double> sorted = pair.ratios;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  pair.median_ratio =
      n % 2 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
  pair.overhead_pct = 100.0 * (1.0 - 1.0 / pair.median_ratio);
  return pair;
}

std::string ToJson(const std::vector<OverheadResult>& results,
                   const AuditPair& audit) {
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
  for (size_t i = 0; i < audit.sides.size(); ++i) {
    const AuditResult& r = audit.sides[i];
    if (i) os << ",";
    os << "{\"mode\":\"" << (r.enable_audit ? "audit_on" : "audit_off")
       << "\",";
    AppendRepStatsJson(os, r.stats);
    os << ",\"tuples_per_sec\":" << r.tuples_per_sec
       << ",\"denials\":" << r.denials
       << ",\"events_per_epoch\":" << r.events_per_epoch
       << ",\"denial_events_per_epoch\":" << r.denial_events_per_epoch
       << "}";
  }
  os << "],\"on_off_ratios\":[";
  for (size_t i = 0; i < audit.ratios.size(); ++i) {
    os << (i ? "," : "") << audit.ratios[i];
  }
  os << "],\"ratio_median\":" << audit.median_ratio << ",\"ratio_min\":"
     << *std::min_element(audit.ratios.begin(), audit.ratios.end())
     << ",\"ratio_max\":"
     << *std::max_element(audit.ratios.begin(), audit.ratios.end())
     << ",\"audit_overhead_pct\":" << audit.overhead_pct << "}}";
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
  const std::vector<OverheadResult> results = RunModes(modes);

  PrintHeader("Trace overhead", "tuples/sec by tracer state");
  PrintLegend("mode", {"tuples/s", "overhead %", "stddev(ms)", "results"});
  for (const OverheadResult& r : results) {
    PrintRow(r.mode,
             {r.tuples_per_sec, r.overhead_pct, r.stats.Stddev() * 1e3,
              static_cast<double>(r.results)},
             2);
  }

  const AuditPair audit = RunAuditPair();
  PrintHeader("Audit overhead",
              "tuples/sec of a denial-heavy shared select by audit log state "
              "(overhead at the median per-rep on/off ratio)");
  PrintLegend("mode", {"tuples/s", "overhead %", "stddev(ms)", "denials",
                       "events/epoch", "denial ev/epoch"});
  for (const AuditResult& r : audit.sides) {
    PrintRow(r.enable_audit ? "audit_on" : "audit_off",
             {r.tuples_per_sec, r.enable_audit ? audit.overhead_pct : 0.0,
              r.stats.Stddev() * 1e3, static_cast<double>(r.denials),
              r.events_per_epoch, r.denial_events_per_epoch},
             2);
  }
  std::cout << "on/off time ratio per rep: median " << audit.median_ratio
            << ", min "
            << *std::min_element(audit.ratios.begin(), audit.ratios.end())
            << ", max "
            << *std::max_element(audit.ratios.begin(), audit.ratios.end())
            << "\n";

  const std::string json = ToJson(results, audit);
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

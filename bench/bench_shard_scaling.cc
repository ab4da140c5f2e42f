// Shard-scaling throughput — what intra-query parallelism buys: end-to-end
// tuples/sec of the engine at 1/2/4/8 worker shards over a punctuated
// windowed join (SELECT A.v FROM A [RANGE w], B [RANGE w] WHERE A.k = B.k).
// One shard is the fully single-threaded engine (the oracle of
// tests/shard_equivalence_test.cc); N shards hash-partition both inputs by
// the join key and broadcast the sps, so each shard's window holds ~1/N of
// the tuples. The index join does one key lookup per policy-compatible
// segment, and sharding does not thin segments (sps are broadcast), so the
// speedup is parallelism rather than a shorter probe. Emits a
// machine-readable summary to stdout, BENCH_shard_scaling.json in the
// working directory, and SPSTREAM_BENCH_JSON_DIR when set.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "security/security_punctuation.h"

namespace spstream::bench {
namespace {

constexpr size_t kEpochs = 3;
constexpr int kReps = 3;  // timed repetitions after one warmup epoch
constexpr size_t kTuplesPerEpoch = 20000;  // per stream, per epoch
constexpr int kTuplesPerSp = 400;
constexpr int64_t kWindow = 4000;  // RANGE in ts units; ts advances 1/tuple
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

/// One epoch of one input stream: a policy refresh every kTuplesPerSp
/// tuples, join keys drawn from kKeySpace so the hash partition spreads and
/// most probes miss (compute-heavy, output-light).
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
    *ts += 2;  // both streams advance; interleaved ts keeps windows aligned
  }
  return out;
}

struct ScalingResult {
  size_t shards = 0;
  double seconds = 0;
  double tuples_per_sec = 0;
  double speedup = 1.0;
  size_t results = 0;
  RepStats stats;
};

ScalingResult RunWithShards(size_t num_shards) {
  EngineOptions opts;
  opts.num_shards = num_shards;
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
  ScalingResult res;
  res.shards = num_shards;
  auto epoch = [&] {
    (void)engine.Push("A", MakeEpoch("A", &rng_a, &ts_a, &tid));
    (void)engine.Push("B", MakeEpoch("B", &rng_b, &ts_b, &tid));
    (void)engine.Run();
    res.results += engine.TakeResults(qid).value().size();
  };
  // One untimed warmup epoch (allocator + cache warm, threads spun up),
  // then kReps timed repetitions of kEpochs epochs each. Windows are
  // RANGE-bounded, so state stays steady across repetitions.
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
  return res;
}

std::string ToJson(const std::vector<ScalingResult>& results) {
  std::ostringstream os;
  os << "{\"bench\":\"shard_scaling\",\"config\":{\"epochs\":" << kEpochs
     << ",\"tuples_per_epoch_per_stream\":" << kTuplesPerEpoch
     << ",\"tuples_per_sp\":" << kTuplesPerSp << ",\"window\":" << kWindow
     << ",\"key_space\":" << kKeySpace << ",\"reps\":" << kReps
     << ",\"warmup_epochs\":1},\"results\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    const ScalingResult& r = results[i];
    if (i) os << ",";
    os << "{\"shards\":" << r.shards << ",";
    AppendRepStatsJson(os, r.stats);
    os << ",\"tuples_per_sec\":" << r.tuples_per_sec
       << ",\"speedup\":" << r.speedup << ",\"results\":" << r.results
       << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace
}  // namespace spstream::bench

int main() {
  using namespace spstream::bench;
  std::cout << "Shard scaling: engine throughput at 1/2/4/8 worker shards\n"
            << "(windowed join, " << kEpochs << " epochs x "
            << kTuplesPerEpoch << " tuples/stream, RANGE " << kWindow
            << ", sp every " << kTuplesPerSp << " tuples)\n";

  std::vector<ScalingResult> results;
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    results.push_back(RunWithShards(shards));
  }
  for (ScalingResult& r : results) {
    r.speedup = r.tuples_per_sec / results[0].tuples_per_sec;
  }

  PrintHeader("Shard scaling", "tuples/sec by worker shard count");
  PrintLegend("shards", {"tuples/s", "speedup", "stddev(ms)", "results"});
  for (const ScalingResult& r : results) {
    PrintRow(std::to_string(r.shards),
             {r.tuples_per_sec, r.speedup, r.stats.Stddev() * 1e3,
              static_cast<double>(r.results)},
             2);
  }

  const std::string json = ToJson(results);
  std::cout << "\nJSON: " << json << "\n";
  {
    std::ofstream out("BENCH_shard_scaling.json");
    out << json << "\n";
    std::cout << "wrote BENCH_shard_scaling.json\n";
  }
  if (const char* dir = std::getenv("SPSTREAM_BENCH_JSON_DIR")) {
    const std::string path =
        std::string(dir) + "/BENCH_shard_scaling.json";
    std::ofstream out(path);
    out << json << "\n";
    std::cout << "wrote " << path << "\n";
  }
  std::cout << "\nBoth inputs partition by the join key, so each shard's "
               "window holds ~1/N of the\ntuples; sps are broadcast "
               "(replicated) and the merge keeps (shard id,\narrival order) "
               "determinism.\n";
  return 0;
}

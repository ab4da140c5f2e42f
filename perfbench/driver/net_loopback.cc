// net_loopback: a StreamServer with one event loop and one StreamClient on
// 127.0.0.1. Each epoch the client pushes three 64-tuple PUSH frames, the
// first led by an in-band sp, then RUNs and drains the banked RESULT frames
// of one select-project query. Engine work per epoch is small, so the wire
// codec, reactor wakeups, CREDIT/RESULT framing and the hand-off to the
// engine thread dominate.
#include <iostream>

#include "bench.h"
#include "common/rng.h"
#include "engine_workload.h"
#include "engine/engine_service.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"

namespace perfbench {
namespace {

using namespace spstream;

constexpr int kFramesPerEpoch = 3;
constexpr int kTuplesPerFrame = 64;
constexpr int kTuplesPerEpoch = kFramesPerEpoch * kTuplesPerFrame;
constexpr size_t kRolePool = 16;
constexpr double kExtent = 3000.0;
constexpr double kCut = 1500.0;
const char kQuery[] = "SELECT object_id, x FROM Feed WHERE x < 1500";
// Epochs of frames and results timed through net/wire.h after the run.
constexpr int kCodecEpochs = 64;
constexpr int kCodecReps = 20;

class NetLoopback final : public Workload {
 public:
  explicit NetLoopback(uint64_t seed) : seed_(seed) {
    SpStreamEngine* engine = service_.UnsafeEngine();
    for (size_t r = 0; r < kRolePool; ++r) {
      engine->RegisterRole(r == 0 ? "analyst" : "role" + std::to_string(r));
    }
    ok_ = Ok(engine->RegisterStream(MakeSchema(
                                        "Feed",
                                        {Field{"object_id", ValueType::kInt64},
                                         Field{"x", ValueType::kDouble},
                                         Field{"y", ValueType::kDouble}}))
                 .status(),
             "RegisterStream");
    ok_ &= Ok(engine->RegisterSubject("bench", {"analyst"}), "RegisterSubject");
    StreamServerOptions so;
    // One loop: on 4 vCPUs a loop per core leaves the engine thread and the
    // client contending with idle loops, and the tail swings by 5x.
    so.net_loops = 1;
    server_ = std::make_unique<StreamServer>(&service_, so);
    ok_ &= Ok(server_->Start(0), "Start") &&
           Ok(client_.Connect("127.0.0.1", server_->port(), "perfbench"),
              "Connect");
    if (!ok_) return;
    const int64_t t0 = Now();
    Result<uint64_t> q = client_.RegisterQuery("bench", kQuery);
    register_ns_ = Now() - t0;
    ok_ = Ok(q.status(), "RegisterQuery") &&
          Ok(client_.Subscribe(*q), "Subscribe");
    if (ok_) query_ = *q;
    Result<StreamId> sid = client_.StreamIdOf("Feed");
    ok_ &= sid.ok();
    if (sid.ok()) sid_ = *sid;
  }

  ~NetLoopback() override {
    client_.Close();
    if (server_) server_->Stop();
  }

  bool ok() const { return ok_; }

  std::vector<std::string> Config() const override {
    return {"StreamServerOptions.net_loops=1",
            "EngineOptions=defaults",
            "frames_per_epoch=" + std::to_string(kFramesPerEpoch),
            "tuples_per_frame=" + std::to_string(kTuplesPerFrame),
            "sps_per_epoch=1",
            std::string("query=") + kQuery};
  }

  void Prepare(int64_t epoch) override {
    Rng rng(SubSeed(seed_, static_cast<uint64_t>(epoch)));
    frames_.assign(kFramesPerEpoch, {});
    expected_rows_.clear();
    Timestamp ts = 1 + epoch * kTuplesPerEpoch;
    // The epoch's policy: the subject's role plus two others.
    SecurityPunctuation sp(Pattern::Literal("Feed"), Pattern::Any(),
                           Pattern::Any(), Pattern::Any(), Sign::kPositive,
                           /*immutable=*/false, ts);
    sp.SetResolvedRoles(RoleSet::FromIds(
        {0, static_cast<RoleId>(rng.NextBounded(kRolePool)),
         static_cast<RoleId>(rng.NextBounded(kRolePool))}));
    frames_[0].emplace_back(std::move(sp));
    for (int f = 0; f < kFramesPerEpoch; ++f) {
      for (int i = 0; i < kTuplesPerFrame; ++i) {
        const TupleId tid = next_tid_++;
        const double x = rng.NextDouble() * kExtent;
        const double y = rng.NextDouble() * kExtent;
        Tuple t(sid_, tid, {Value(static_cast<int64_t>(tid)), Value(x), Value(y)},
                ts++);
        // Reference: the sp grants the subject, so the predicate decides.
        if (x < kCut) {
          expected_rows_.emplace_back(t.sid, t.tid,
                                      std::vector<Value>{t.values[0], t.values[1]},
                                      t.ts);
        }
        frames_[f].emplace_back(std::move(t));
      }
    }
  }

  bool Execute(int64_t epoch, SpanRecorder* spans) override {
    bool ok = true;
    for (auto& frame : frames_) {
      ScopedSpan span(spans, "client.push", epoch);
      ok &= Ok(client_.Push("Feed", std::move(frame)), "Push");
    }
    {
      ScopedSpan span(spans, "client.run", epoch);
      ok &= Ok(client_.Run(), "Run");
    }
    {
      ScopedSpan span(spans, "client.take", epoch);
      got_ = client_.TakeResults(query_);
    }
    return ok;
  }

  bool Check() override {
    Digest want, have;
    want.Add(expected_rows_);
    have.Add(got_);
    results_ = static_cast<int64_t>(got_.size());
    got_.clear();
    if (want == have) return true;
    std::cerr << "query " << query_ << ": " << have.count
              << " results, reference has " << want.count << "\n";
    return false;
  }

  int64_t epoch_tuples() const override { return kTuplesPerEpoch; }
  int64_t epoch_results() const override { return results_; }
  int64_t register_query_ns() const override { return register_ns_; }

  void BeginMeasure() override { before_ = Sample(); }

  void ReportLayers(const LayerInputs& in, Metrics* out) override {
    auto set = [&](const char* name, double v) { (*out)[name].value = v; };
    const Counters now = Sample();
    const OpTotals ops = now.ops.Since(before_.ops);
    const double run_ns = now.run_ns - before_.run_ns;
    const double epochs = static_cast<double>(in.measured_epochs);
    const double ktuples = in.measured_tuples / 1000.0;

    set("net.client_push_us_per_frame",
        Ratio(SelfNs(in, "client.push"), SpanCount(in, "client.push")) / 1e3);
    set("net.client_run_us",
        Ratio(SelfNs(in, "client.run"), SpanCount(in, "client.run")) / 1e3);
    set("net.client_take_ns_per_result",
        Ratio(SelfNs(in, "client.take"), in.traced_results));
    set("net.engine_run_us", Ratio(run_ns, epochs) / 1e3);
    set("net.wire_share", 1.0 - Ratio(run_ns, in.measured_ns));
    set("engine.run_ns_per_tuple", Ratio(run_ns, in.measured_tuples));
    set("net.server_cpu_us_per_ktuple",
        Ratio(in.traced_server_cpu_ns / 1e3, in.traced_tuples / 1000.0));
    set("net.client_cpu_us_per_ktuple",
        Ratio(in.traced_thread_cpu_ns / 1e3, in.traced_tuples / 1000.0));
    set("net.credit_frames_per_epoch",
        Ratio(now.credit_frames - before_.credit_frames, epochs));
    set("net.result_frames_per_epoch",
        Ratio(now.result_frames - before_.result_frames, epochs));
    set("analyzer.sps_in",
        Ratio(now.analyzer.sps_in - before_.analyzer.sps_in, ktuples));
    set("analyzer.sps_out",
        Ratio(now.analyzer.sps_out - before_.analyzer.sps_out, ktuples));
    set("analyzer.sps_combined",
        Ratio(now.analyzer.sps_combined - before_.analyzer.sps_combined,
              ktuples));
    ReportOperators(ops, static_cast<int64_t>(run_ns), out);
    ReportCodec(out);
  }

 private:
  struct Counters {
    OpTotals ops;
    double run_ns = 0;
    int64_t credit_frames = 0, result_frames = 0;
    SpAnalyzerStats analyzer;
  };

  Counters Sample() {
    Counters c;
    service_.WithEngine([&](SpStreamEngine* engine) {
      const MetricsSnapshot snap = engine->SnapshotMetrics();
      c.ops = OpTotals::From(snap);
      c.run_ns = HistogramTotalNs(snap, "engine.run");
      c.analyzer = AnalyzerTotals(engine);
      return 0;
    });
    c.credit_frames = service_.metrics()->CounterValue("net.credit_frames");
    c.result_frames = service_.metrics()->CounterValue("net.result_frames");
    return c;
  }

  /// Time net/wire.h on this workload's own PUSH batches and result rows,
  /// outside the timed run (the epochs prepared here are never executed).
  void ReportCodec(Metrics* out) {
    std::vector<PushPayload> pushes;
    std::vector<ResultPayload> results;
    int64_t push_tuples = 0, result_tuples = 0;
    for (int e = 0; e < kCodecEpochs; ++e) {
      Prepare(1000000000 + e);
      for (auto& frame : frames_) {
        PushPayload p;
        p.stream = sid_;
        p.elements = std::move(frame);
        pushes.push_back(std::move(p));
      }
      push_tuples += kTuplesPerEpoch;
      result_tuples += static_cast<int64_t>(expected_rows_.size());
      results.push_back(ResultPayload{query_, std::move(expected_rows_)});
    }
    int64_t enc_push = 0, dec_push = 0, enc_res = 0, dec_res = 0;
    size_t push_bytes = 0;
    bool decoded = true;
    for (int rep = 0; rep < kCodecReps; ++rep) {
      for (const PushPayload& p : pushes) {
        std::string buf;
        const int64_t t0 = Now();
        EncodePush(p, &buf);
        const int64_t t1 = Now();
        decoded &= DecodePush(buf).ok();
        dec_push += Now() - t1;
        enc_push += t1 - t0;
        if (rep == 0) push_bytes += buf.size();
      }
      for (const ResultPayload& r : results) {
        std::string buf;
        const int64_t t0 = Now();
        EncodeResult(r, &buf);
        const int64_t t1 = Now();
        decoded &= DecodeResult(buf).ok();
        dec_res += Now() - t1;
        enc_res += t1 - t0;
      }
    }
    if (!decoded) std::cerr << "wire codec round trip failed\n";
    const double pushed = static_cast<double>(push_tuples) * kCodecReps;
    const double returned = static_cast<double>(result_tuples) * kCodecReps;
    (*out)["net.encode_push_ns_per_tuple"].value = Ratio(enc_push, pushed);
    (*out)["net.decode_push_ns_per_tuple"].value = Ratio(dec_push, pushed);
    (*out)["net.encode_result_ns_per_tuple"].value = Ratio(enc_res, returned);
    (*out)["net.decode_result_ns_per_tuple"].value = Ratio(dec_res, returned);
    (*out)["net.bytes_per_tuple"].value =
        Ratio(static_cast<double>(push_bytes), push_tuples);
  }

  uint64_t seed_;
  bool ok_ = true;
  // Declared in dependency order: the client closes before the server
  // stops, and the server stops before the engine it serves goes away.
  EngineService service_;
  std::unique_ptr<StreamServer> server_;
  StreamClient client_;
  uint64_t query_ = 0;
  StreamId sid_ = 0;
  int64_t register_ns_ = 0;
  TupleId next_tid_ = 0;
  std::vector<std::vector<StreamElement>> frames_;
  std::vector<Tuple> expected_rows_;
  std::vector<Tuple> got_;
  int64_t results_ = 0;
  Counters before_;
};

}  // namespace

std::unique_ptr<Workload> MakeNetLoopback(uint64_t seed) {
  auto w = std::make_unique<NetLoopback>(seed);
  if (!w->ok()) return nullptr;
  return w;
}

}  // namespace perfbench

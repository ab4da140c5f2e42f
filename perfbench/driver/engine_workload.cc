#include "engine_workload.h"

#include <iostream>

namespace perfbench {

using namespace spstream;

EngineWorkload::EngineWorkload(EngineOptions options)
    : engine_(std::make_unique<SpStreamEngine>(std::move(options))) {}

void EngineWorkload::RegisterQuery(const std::string& subject,
                                   const std::string& sql) {
  const int64_t t0 = Now();
  Result<QueryId> q = engine_->RegisterQuery(subject, sql);
  register_ns_ += Now() - t0;
  if (!Ok(q.status(), "RegisterQuery")) {
    ok_ = false;
    return;
  }
  queries_.push_back(*q);
}

bool EngineWorkload::Execute(int64_t epoch, SpanRecorder* spans) {
  bool ok = true;
  for (auto& [stream, elements] : input_) {
    ScopedSpan span(spans, "engine.push", epoch);
    ok &= Ok(engine_->Push(stream, std::move(elements)), "Push");
  }
  {
    ScopedSpan span(spans, "engine.run", epoch);
    ok &= Ok(engine_->Run(), "Run");
  }
  got_.resize(queries_.size());
  results_ = 0;
  for (size_t i = 0; i < queries_.size(); ++i) {
    ScopedSpan span(spans, "engine.take_results", epoch);
    Result<std::vector<Tuple>> r = engine_->TakeResults(queries_[i]);
    if (!Ok(r.status(), "TakeResults")) {
      ok = false;
      continue;
    }
    got_[i] = std::move(*r);
    results_ += static_cast<int64_t>(got_[i].size());
  }
  return ok;
}

bool EngineWorkload::Check() {
  bool ok = true;
  for (size_t i = 0; i < queries_.size(); ++i) {
    Digest d;
    d.Add(got_[i]);
    if (!(d == expected_[i])) {
      std::cerr << "query " << queries_[i] << ": " << d.count
                << " results, reference has " << expected_[i].count
                << (d.count == expected_[i].count ? " (contents differ)" : "")
                << "\n";
      ok = false;
    }
    got_[i].clear();
  }
  return ok;
}

SpAnalyzerStats AnalyzerTotals(SpStreamEngine* engine) {
  SpAnalyzerStats total;
  const StreamCatalog& streams = *engine->streams();
  for (StreamId id = 0; id < streams.size(); ++id) {
    const std::string& name = streams.schema(id)->stream_name();
    if (const SpAnalyzerStats* s = engine->analyzer_stats(name)) {
      total.sps_in += s->sps_in;
      total.sps_out += s->sps_out;
      total.sps_combined += s->sps_combined;
    }
  }
  return total;
}

void EngineWorkload::BeginMeasure() {
  const MetricsSnapshot snap = engine_->SnapshotMetrics();
  ops_before_ = OpTotals::From(snap);
  run_ns_before_ = HistogramTotalNs(snap, "engine.run");
  analyzer_before_ = AnalyzerTotals(engine_.get());
}

void EngineWorkload::ReportLayers(const LayerInputs& in, Metrics* out) {
  auto set = [&](const char* name, double v) { (*out)[name].value = v; };
  set("analyzer.push_ns_per_tuple",
      Ratio(SelfNs(in, "engine.push"), in.traced_tuples));
  set("engine.run_ns_per_tuple",
      Ratio(SelfNs(in, "engine.run"), in.traced_tuples));
  set("engine.take_results_ns_per_result",
      Ratio(SelfNs(in, "engine.take_results"), in.traced_results));

  const SpAnalyzerStats a = AnalyzerTotals(engine_.get());
  const double ktuples = in.measured_tuples / 1000.0;
  set("analyzer.sps_in", Ratio(a.sps_in - analyzer_before_.sps_in, ktuples));
  set("analyzer.sps_out",
      Ratio(a.sps_out - analyzer_before_.sps_out, ktuples));
  set("analyzer.sps_combined",
      Ratio(a.sps_combined - analyzer_before_.sps_combined, ktuples));

  const MetricsSnapshot snap = engine_->SnapshotMetrics();
  ReportOperators(OpTotals::From(snap).Since(ops_before_),
                  static_cast<int64_t>(HistogramTotalNs(snap, "engine.run") -
                                       run_ns_before_),
                  out);
}

}  // namespace perfbench

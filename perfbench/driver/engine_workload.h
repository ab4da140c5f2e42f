// In-process workloads: one SpStreamEngine driven directly through its
// public API (Push, Run, TakeResults).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "engine/engine.h"

namespace perfbench {

class EngineWorkload : public Workload {
 public:
  bool Execute(int64_t epoch, SpanRecorder* spans) override;
  bool Check() override;

  int64_t epoch_tuples() const override { return tuples_; }
  int64_t epoch_results() const override { return results_; }
  int64_t register_query_ns() const override { return register_ns_; }

  void BeginMeasure() override;
  void ReportLayers(const LayerInputs& in, Metrics* out) override;

  /// Set-up succeeded (catalog and every query registered).
  bool ok() const { return ok_; }

 protected:
  explicit EngineWorkload(spstream::EngineOptions options);

  /// Register `sql` for `subject`, timing the call into register_ns_.
  void RegisterQuery(const std::string& subject, const std::string& sql);

  std::unique_ptr<spstream::SpStreamEngine> engine_;
  std::vector<spstream::QueryId> queries_;
  bool ok_ = true;

  // Filled by Prepare: the epoch's input per stream, in push order, its
  // tuple count, and the reference digest of each query's output.
  std::vector<std::pair<std::string, std::vector<spstream::StreamElement>>>
      input_;
  int64_t tuples_ = 0;
  std::vector<Digest> expected_;

 private:
  int64_t register_ns_ = 0;
  int64_t results_ = 0;
  std::vector<std::vector<spstream::Tuple>> got_;
  OpTotals ops_before_;
  double run_ns_before_ = 0;
  spstream::SpAnalyzerStats analyzer_before_;
};

/// Sum of every stream's SP Analyzer counters.
spstream::SpAnalyzerStats AnalyzerTotals(spstream::SpStreamEngine* engine);

}  // namespace perfbench

// Engine-wide metrics registry: the queryable surface over every pipeline
// operator's OperatorMetrics, named counters/gauges, and latency histograms.
//
// Aggregation model: long-lived (continuous) pipelines accumulate metrics in
// their operators, so the registry keeps the *latest cumulative* value per
// (query, operator) — overwritten at each harvest — plus a "retired"
// accumulator that pipeline generations are folded into when a query's plan
// is rebuilt (adaptation, role change) or deregistered. A snapshot merges
// the two, so per-query totals span the query's whole lifetime.
//
// All mutators take one short mutex hold; Snapshot() copies under the lock
// and renders outside it, keeping the hot path lock-cheap.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"

namespace spstream {

/// \brief Export format of a metrics snapshot.
enum class MetricsFormat : uint8_t { kText = 0, kJson, kPrometheus };

/// \brief Per-query slice of a snapshot.
struct QueryMetricsSnapshot {
  std::string query;  ///< registry key, e.g. "q0"
  /// Cumulative per-operator metrics (live pipeline merged with retired
  /// generations), in operator-label order.
  std::vector<std::pair<std::string, OperatorMetrics>> operators;
  /// All operators merged (peak_state_bytes: max across operators).
  OperatorMetrics totals;
  HistogramSnapshot epoch_latency;  ///< wall nanos per Run() epoch
  HistogramSnapshot tuple_latency;  ///< wall nanos source→sink per tuple
  int64_t epochs = 0;

  /// \brief Metrics of one operator by label; nullptr when absent.
  const OperatorMetrics* FindOperator(const std::string& label) const;
};

/// \brief Point-in-time copy of the whole registry, with exporters.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::vector<QueryMetricsSnapshot> queries;
  /// Every query's totals merged.
  OperatorMetrics engine_totals;

  const QueryMetricsSnapshot* FindQuery(const std::string& query) const;

  /// \brief Human-readable multi-line rendering (the CLI's \metrics view).
  std::string ToText() const;
  /// \brief One JSON object; parses with any JSON reader.
  std::string ToJson() const;
  /// \brief Prometheus text exposition format (counters, gauges, and
  /// summary-style quantile series for histograms).
  std::string ToPrometheus() const;

  std::string Render(MetricsFormat format) const;
};

/// \brief Thread-safe registry aggregating metrics per query and engine-wide.
class MetricsRegistry {
 public:
  // ---- named counters / gauges / histograms ----------------------------
  void AddCounter(const std::string& name, int64_t delta = 1);
  void SetGauge(const std::string& name, int64_t value);
  /// \brief Drop every gauge whose name starts with `prefix` (e.g. the
  /// `net.conn<id>.` namespace of a reaped connection).
  void RemoveGaugesWithPrefix(const std::string& prefix);
  /// \brief Record a latency sample into the named engine-level histogram.
  void RecordLatency(const std::string& name, int64_t nanos);

  int64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;

  // ---- per-query operator aggregation ----------------------------------
  /// \brief Overwrite the live cumulative metrics of one operator of a
  /// long-lived pipeline (harvested once per epoch).
  void UpdateLiveOperator(const std::string& query, const std::string& op,
                          const OperatorMetrics& metrics);
  /// \brief A query's pipeline is being rebuilt or torn down: fold its live
  /// operator metrics into the retired accumulators and clear the live set.
  void RetireQuery(const std::string& query);

  // ---- latency ----------------------------------------------------------
  /// \brief Record one Run() epoch's wall time for a query (counts epochs).
  void RecordEpochLatency(const std::string& query, int64_t nanos);
  /// \brief Record one source→sink tuple latency sample for a query.
  void RecordTupleLatency(const std::string& query, int64_t nanos);
  /// \brief Fold a locally-accumulated tuple-latency histogram in (one lock
  /// hold per epoch instead of one per tuple).
  void MergeTupleLatency(const std::string& query, const Histogram& h);

  MetricsSnapshot Snapshot() const;

  void Reset();

 private:
  struct QueryEntry {
    std::map<std::string, OperatorMetrics> live;     // label -> cumulative
    std::map<std::string, OperatorMetrics> retired;  // label -> folded total
    Histogram epoch_latency;
    Histogram tuple_latency;
    int64_t epochs = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, int64_t> counters_;
  std::map<std::string, int64_t> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, QueryEntry> queries_;
};

}  // namespace spstream

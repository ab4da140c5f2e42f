#include "common/metrics_registry.h"

#include <iomanip>
#include <sstream>

#include "common/string_util.h"

namespace spstream {

namespace {

void AppendOperatorMetricsJson(std::ostringstream& os,
                               const OperatorMetrics& m) {
  os << "{\"tuples_in\":" << m.tuples_in << ",\"tuples_out\":" << m.tuples_out
     << ",\"sps_in\":" << m.sps_in << ",\"sps_out\":" << m.sps_out
     << ",\"tuples_dropped_security\":" << m.tuples_dropped_security
     << ",\"tuples_dropped_predicate\":" << m.tuples_dropped_predicate
     << ",\"policy_installs\":" << m.policy_installs
     << ",\"batches_in\":" << m.batches_in
     << ",\"batch_elements_in\":" << m.batch_elements_in
     << ",\"total_nanos\":" << m.total_nanos
     << ",\"join_nanos\":" << m.join_nanos
     << ",\"sp_maintenance_nanos\":" << m.sp_maintenance_nanos
     << ",\"tuple_maintenance_nanos\":" << m.tuple_maintenance_nanos
     << ",\"state_bytes\":" << m.state_bytes
     << ",\"peak_state_bytes\":" << m.peak_state_bytes << "}";
}

void AppendHistogramJson(std::ostringstream& os, const HistogramSnapshot& h) {
  os << "{\"count\":" << h.count << ",\"min\":" << h.min
     << ",\"max\":" << h.max << ",\"mean\":" << h.mean
     << ",\"p50\":" << h.p50 << ",\"p90\":" << h.p90 << ",\"p99\":" << h.p99
     << "}";
}

std::string HistogramText(const HistogramSnapshot& h) {
  std::ostringstream os;
  os << "count=" << h.count;
  if (h.count > 0) {
    os << std::fixed << std::setprecision(1) << " p50=" << h.p50 / 1e3
       << "us p90=" << h.p90 / 1e3 << "us p99=" << h.p99 / 1e3
       << "us max=" << h.max / 1e3 << "us";
  }
  return os.str();
}

void AppendPrometheusHistogram(std::ostringstream& os,
                               const std::string& metric,
                               const std::string& labels,
                               const HistogramSnapshot& h) {
  const std::string lbl_open = labels.empty() ? "{" : "{" + labels + ",";
  os << metric << lbl_open << "quantile=\"0.5\"} " << h.p50 << "\n"
     << metric << lbl_open << "quantile=\"0.9\"} " << h.p90 << "\n"
     << metric << lbl_open << "quantile=\"0.99\"} " << h.p99 << "\n";
  const std::string suffix_lbl = labels.empty() ? "" : "{" + labels + "}";
  os << metric << "_count" << suffix_lbl << " " << h.count << "\n"
     << metric << "_max" << suffix_lbl << " " << h.max << "\n";
}

}  // namespace

const OperatorMetrics* QueryMetricsSnapshot::FindOperator(
    const std::string& label) const {
  for (const auto& [name, m] : operators) {
    if (name == label) return &m;
  }
  return nullptr;
}

const QueryMetricsSnapshot* MetricsSnapshot::FindQuery(
    const std::string& query) const {
  for (const QueryMetricsSnapshot& q : queries) {
    if (q.query == query) return &q;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToText() const {
  std::ostringstream os;
  os << "=== engine ===\n";
  os << "  totals: " << engine_totals.ToString() << "\n";
  for (const auto& [name, v] : counters) {
    os << "  counter " << name << " = " << v << "\n";
  }
  for (const auto& [name, v] : gauges) {
    os << "  gauge " << name << " = " << v << "\n";
  }
  for (const auto& [name, h] : histograms) {
    os << "  latency " << name << ": " << HistogramText(h) << "\n";
  }
  for (const QueryMetricsSnapshot& q : queries) {
    os << "=== query " << q.query << " (" << q.epochs << " epochs) ===\n";
    os << "  totals: " << q.totals.ToString() << "\n";
    os << "  epoch latency: " << HistogramText(q.epoch_latency) << "\n";
    os << "  tuple latency: " << HistogramText(q.tuple_latency) << "\n";
    for (const auto& [label, m] : q.operators) {
      os << "  op " << label << ": " << m.ToString() << "\n";
    }
  }
  return os.str();
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":" << v;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":" << v;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":";
    AppendHistogramJson(os, h);
  }
  os << "},\"engine_totals\":";
  AppendOperatorMetricsJson(os, engine_totals);
  os << ",\"queries\":[";
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryMetricsSnapshot& q = queries[i];
    if (i) os << ",";
    os << "{\"query\":\"" << JsonEscape(q.query)
       << "\",\"epochs\":" << q.epochs << ",\"totals\":";
    AppendOperatorMetricsJson(os, q.totals);
    os << ",\"epoch_latency\":";
    AppendHistogramJson(os, q.epoch_latency);
    os << ",\"tuple_latency\":";
    AppendHistogramJson(os, q.tuple_latency);
    os << ",\"operators\":[";
    for (size_t j = 0; j < q.operators.size(); ++j) {
      if (j) os << ",";
      os << "{\"label\":\"" << JsonEscape(q.operators[j].first)
         << "\",\"metrics\":";
      AppendOperatorMetricsJson(os, q.operators[j].second);
      os << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::ostringstream os;
  for (const auto& [name, v] : counters) {
    const std::string metric = "spstream_" + PrometheusName(name);
    os << "# TYPE " << metric << " counter\n" << metric << " " << v << "\n";
  }
  for (const auto& [name, v] : gauges) {
    const std::string metric = "spstream_" + PrometheusName(name);
    os << "# TYPE " << metric << " gauge\n" << metric << " " << v << "\n";
  }
  for (const auto& [name, h] : histograms) {
    const std::string metric =
        "spstream_" + PrometheusName(name) + "_nanos";
    os << "# TYPE " << metric << " summary\n";
    AppendPrometheusHistogram(os, metric, "", h);
  }

  auto query_metric = [&os](const char* name, const char* type) {
    const std::string metric = std::string("spstream_query_") + name;
    os << "# TYPE " << metric << " " << type << "\n";
    return metric;
  };
  struct Field {
    const char* name;
    int64_t OperatorMetrics::*member;
  };
  static const Field kFields[] = {
      {"tuples_in", &OperatorMetrics::tuples_in},
      {"tuples_out", &OperatorMetrics::tuples_out},
      {"sps_in", &OperatorMetrics::sps_in},
      {"sps_out", &OperatorMetrics::sps_out},
      {"tuples_dropped_security", &OperatorMetrics::tuples_dropped_security},
      {"tuples_dropped_predicate", &OperatorMetrics::tuples_dropped_predicate},
      {"policy_installs", &OperatorMetrics::policy_installs},
      {"total_nanos", &OperatorMetrics::total_nanos},
      {"join_nanos", &OperatorMetrics::join_nanos},
      {"sp_maintenance_nanos", &OperatorMetrics::sp_maintenance_nanos},
      {"tuple_maintenance_nanos", &OperatorMetrics::tuple_maintenance_nanos},
  };
  for (const Field& f : kFields) {
    const std::string metric = query_metric(f.name, "counter");
    for (const QueryMetricsSnapshot& q : queries) {
      os << metric << "{query=\"" << q.query << "\"} " << q.totals.*f.member
         << "\n";
    }
  }
  {
    const std::string metric = query_metric("peak_state_bytes", "gauge");
    for (const QueryMetricsSnapshot& q : queries) {
      os << metric << "{query=\"" << q.query << "\"} "
         << q.totals.peak_state_bytes << "\n";
    }
  }
  {
    const std::string metric = query_metric("epochs", "counter");
    for (const QueryMetricsSnapshot& q : queries) {
      os << metric << "{query=\"" << q.query << "\"} " << q.epochs << "\n";
    }
  }
  os << "# TYPE spstream_query_epoch_latency_nanos summary\n";
  for (const QueryMetricsSnapshot& q : queries) {
    AppendPrometheusHistogram(os, "spstream_query_epoch_latency_nanos",
                              "query=\"" + q.query + "\"", q.epoch_latency);
  }
  os << "# TYPE spstream_query_tuple_latency_nanos summary\n";
  for (const QueryMetricsSnapshot& q : queries) {
    AppendPrometheusHistogram(os, "spstream_query_tuple_latency_nanos",
                              "query=\"" + q.query + "\"", q.tuple_latency);
  }
  return os.str();
}

std::string MetricsSnapshot::Render(MetricsFormat format) const {
  switch (format) {
    case MetricsFormat::kText: return ToText();
    case MetricsFormat::kJson: return ToJson();
    case MetricsFormat::kPrometheus: return ToPrometheus();
  }
  return ToText();
}

void MetricsRegistry::AddCounter(const std::string& name, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::SetGauge(const std::string& name, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::RemoveGaugesWithPrefix(const std::string& prefix) {
  if (prefix.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.lower_bound(prefix);
  while (it != gauges_.end() && it->first.compare(0, prefix.size(), prefix) == 0) {
    it = gauges_.erase(it);
  }
}

void MetricsRegistry::RecordLatency(const std::string& name, int64_t nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name].Record(nanos);
}

int64_t MetricsRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

int64_t MetricsRegistry::GaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

void MetricsRegistry::UpdateLiveOperator(const std::string& query,
                                         const std::string& op,
                                         const OperatorMetrics& metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  queries_[query].live[op] = metrics;
}

void MetricsRegistry::RetireQuery(const std::string& query) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(query);
  if (it == queries_.end()) return;
  for (const auto& [label, m] : it->second.live) {
    it->second.retired[label].Merge(m);
  }
  it->second.live.clear();
}

void MetricsRegistry::RecordEpochLatency(const std::string& query,
                                         int64_t nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  QueryEntry& entry = queries_[query];
  entry.epoch_latency.Record(nanos);
  ++entry.epochs;
}

void MetricsRegistry::RecordTupleLatency(const std::string& query,
                                         int64_t nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  queries_[query].tuple_latency.Record(nanos);
}

void MetricsRegistry::MergeTupleLatency(const std::string& query,
                                        const Histogram& h) {
  if (h.count() == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  queries_[query].tuple_latency.Merge(h);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters = counters_;
  snap.gauges = gauges_;
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h.Snapshot();
  }
  for (const auto& [query, entry] : queries_) {
    QueryMetricsSnapshot qs;
    qs.query = query;
    // Per-operator cumulative view: retired generations merged with the
    // live pipeline's current values.
    std::map<std::string, OperatorMetrics> merged = entry.retired;
    for (const auto& [label, m] : entry.live) {
      merged[label].Merge(m);
    }
    for (const auto& [label, m] : merged) {
      qs.operators.emplace_back(label, m);
      qs.totals.Merge(m);
    }
    qs.epoch_latency = entry.epoch_latency.Snapshot();
    qs.tuple_latency = entry.tuple_latency.Snapshot();
    qs.epochs = entry.epochs;
    snap.engine_totals.Merge(qs.totals);
    snap.queries.push_back(std::move(qs));
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  queries_.clear();
}

}  // namespace spstream

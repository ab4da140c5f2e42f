#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>

namespace perfbench {

using spstream::OperatorMetrics;

int64_t Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashValue(const spstream::Value& v) {
  if (v.is_int64()) return Mix(static_cast<uint64_t>(v.int64()) ^ 1);
  if (v.is_double()) {
    uint64_t bits = 0;
    const double d = v.dbl();
    std::memcpy(&bits, &d, sizeof bits);
    return Mix(bits ^ 2);
  }
  return Mix(static_cast<uint64_t>(v.Hash()) ^ 3);
}

}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t index) {
  return Mix(Mix(seed) ^ Mix(index + 0x51));
}

void Digest::Add(const spstream::Tuple& t) {
  uint64_t h = Mix(static_cast<uint64_t>(t.tid));
  h = Mix(h ^ static_cast<uint64_t>(t.ts));
  for (const spstream::Value& v : t.values) h = Mix(h ^ HashValue(v));
  ++count;
  sum += h;
}

// ---- spans --------------------------------------------------------------------

int32_t SpanRecorder::Begin(const char* name, int64_t epoch) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, parent, epoch, Now(), 0});
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end = Now();
  open_.pop_back();
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::Summarize() const {
  // Children are recorded on one thread and nest strictly, so a span's
  // covered time is the sum of its children clipped to its own interval.
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start, p.start);
    const int64_t hi = std::min(s.end, p.end);
    if (hi > lo) covered[static_cast<size_t>(s.parent)] += hi - lo;
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    const int64_t dur = s.end - s.start;
    ++t.count;
    t.total_ns += dur;
    t.self_ns += std::max<int64_t>(0, dur - covered[i]);
  }
  return out;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end - s.start) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"epoch\":" << s.epoch << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- metrics ------------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"analyzer.push_ns_per_tuple", "ns"},
      {"analyzer.sps_in", "1/ktuple"},
      {"analyzer.sps_out", "1/ktuple"},
      {"analyzer.sps_combined", "1/ktuple"},
      {"engine.run_ns_per_tuple", "ns"},
      {"engine.take_results_ns_per_result", "ns"},
      {"engine.driver_residual_share", "share"},
      {"exec.unattributed_share", "share"},
      {"exec.ss.ns_per_tuple", "ns"},
      {"exec.ss.policy_installs", "1/ktuple"},
      {"exec.ss.pass_ratio", "share"},
      {"exec.select.ns_per_tuple", "ns"},
      {"exec.select.pass_ratio", "share"},
      {"exec.project.ns_per_tuple", "ns"},
      {"exec.avg_batch", "elements"},
      {"exec.join.probe_ns_per_tuple", "ns"},
      {"exec.join.window_maintenance_ns_per_tuple", "ns"},
      {"exec.join.sp_maintenance_ns_per_sp", "ns"},
      {"exec.join.match_ratio", "1/tuple"},
      {"exec.join.peak_state_mb", "MiB"},
      {"shard.skew", "x"},
      {"net.client_push_us_per_frame", "us"},
      {"net.client_run_us", "us"},
      {"net.client_take_ns_per_result", "ns"},
      {"net.engine_run_us", "us"},
      {"net.wire_share", "share"},
      {"net.encode_push_ns_per_tuple", "ns"},
      {"net.decode_push_ns_per_tuple", "ns"},
      {"net.encode_result_ns_per_tuple", "ns"},
      {"net.decode_result_ns_per_tuple", "ns"},
      {"net.bytes_per_tuple", "bytes"},
      {"net.server_cpu_us_per_ktuple", "us"},
      {"net.client_cpu_us_per_ktuple", "us"},
      {"net.credit_frames_per_epoch", "1/epoch"},
      {"net.result_frames_per_epoch", "1/epoch"},
      {"setup.register_query_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return kUnits;
}

namespace {

// OperatorMetrics has Merge but no difference; this is the one place that
// lists its flow counters.
OperatorMetrics Minus(const OperatorMetrics& a, const OperatorMetrics& b) {
  OperatorMetrics d;
  d.tuples_in = a.tuples_in - b.tuples_in;
  d.tuples_out = a.tuples_out - b.tuples_out;
  d.sps_in = a.sps_in - b.sps_in;
  d.sps_out = a.sps_out - b.sps_out;
  d.policy_installs = a.policy_installs - b.policy_installs;
  d.batches_in = a.batches_in - b.batches_in;
  d.batch_elements_in = a.batch_elements_in - b.batch_elements_in;
  d.total_nanos = a.total_nanos - b.total_nanos;
  d.join_nanos = a.join_nanos - b.join_nanos;
  d.sp_maintenance_nanos = a.sp_maintenance_nanos - b.sp_maintenance_nanos;
  d.tuple_maintenance_nanos =
      a.tuple_maintenance_nanos - b.tuple_maintenance_nanos;
  d.peak_state_bytes = a.peak_state_bytes;  // a high-water mark, not a sum
  return d;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

OpTotals OpTotals::From(const spstream::MetricsSnapshot& snap) {
  OpTotals t;
  for (const spstream::QueryMetricsSnapshot& q : snap.queries) {
    int shard = -1;
    const size_t pos = q.query.find(".shard");
    if (pos != std::string::npos) shard = std::stoi(q.query.substr(pos + 6));
    for (const auto& [label, m] : q.operators) {
      // Labels as the plan compiler and the shared-plan splitter name them:
      // "SS", "SS#1", "split_ss", "select", "project", "sajoin_*".
      if (StartsWith(label, "SS") || label == "split_ss") {
        t.ss.Merge(m);
      } else if (StartsWith(label, "select")) {
        t.select.Merge(m);
      } else if (StartsWith(label, "project")) {
        t.project.Merge(m);
      } else if (StartsWith(label, "sajoin") || StartsWith(label, "join")) {
        t.join.Merge(m);
        // Each shard holds its own windows: their peaks add up.
        t.join_peak_state_bytes += m.peak_state_bytes;
        if (shard >= 0) t.shard_tuples_in[shard] += m.tuples_in;
      }
      t.all.Merge(m);
      if (shard >= 0) t.shard_nanos[shard] += m.total_nanos;
    }
  }
  return t;
}

OpTotals OpTotals::Since(const OpTotals& before) const {
  OpTotals d;
  d.ss = Minus(ss, before.ss);
  d.select = Minus(select, before.select);
  d.project = Minus(project, before.project);
  d.join = Minus(join, before.join);
  d.all = Minus(all, before.all);
  d.join_peak_state_bytes = join_peak_state_bytes;
  for (const auto& [s, v] : shard_tuples_in) {
    auto it = before.shard_tuples_in.find(s);
    d.shard_tuples_in[s] = v - (it == before.shard_tuples_in.end() ? 0 : it->second);
  }
  for (const auto& [s, v] : shard_nanos) {
    auto it = before.shard_nanos.find(s);
    d.shard_nanos[s] = v - (it == before.shard_nanos.end() ? 0 : it->second);
  }
  return d;
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

double HistogramTotalNs(const spstream::MetricsSnapshot& snap,
                        const std::string& name) {
  auto it = snap.histograms.find(name);
  if (it == snap.histograms.end()) return 0;
  return it->second.mean * static_cast<double>(it->second.count);
}

bool Ok(const spstream::Status& status, const char* what) {
  if (status.ok()) return true;
  std::cerr << what << ": " << status.ToString() << "\n";
  return false;
}

void ReportOperators(const OpTotals& ops, int64_t run_ns, Metrics* out) {
  auto set = [&](const std::string& name, double v) { (*out)[name].value = v; };
  // Unattributed: Run wall not covered by any operator's own timer. On a
  // sharded plan the slowest shard's operator time is the covered part.
  int64_t op_ns = ops.all.total_nanos;
  if (!ops.shard_nanos.empty()) {
    op_ns = 0;
    for (const auto& [s, v] : ops.shard_nanos) op_ns = std::max(op_ns, v);
  }
  set("exec.unattributed_share",
      run_ns > 0 ? 1.0 - static_cast<double>(op_ns) / run_ns : 0.0);
  set("exec.ss.ns_per_tuple", Ratio(ops.ss.total_nanos, ops.ss.tuples_in));
  set("exec.ss.policy_installs",
      Ratio(1000.0 * ops.ss.policy_installs, ops.ss.tuples_in));
  set("exec.ss.pass_ratio", Ratio(ops.ss.tuples_out, ops.ss.tuples_in));
  set("exec.select.ns_per_tuple",
      Ratio(ops.select.total_nanos, ops.select.tuples_in));
  set("exec.select.pass_ratio",
      Ratio(ops.select.tuples_out, ops.select.tuples_in));
  set("exec.project.ns_per_tuple",
      Ratio(ops.project.total_nanos, ops.project.tuples_in));
  set("exec.avg_batch",
      Ratio(ops.all.batch_elements_in, ops.all.batches_in));
  set("exec.join.probe_ns_per_tuple",
      Ratio(ops.join.join_nanos, ops.join.tuples_in));
  set("exec.join.window_maintenance_ns_per_tuple",
      Ratio(ops.join.tuple_maintenance_nanos, ops.join.tuples_in));
  set("exec.join.sp_maintenance_ns_per_sp",
      Ratio(ops.join.sp_maintenance_nanos, ops.join.sps_in));
  set("exec.join.match_ratio", Ratio(ops.join.tuples_out, ops.join.tuples_in));
  set("exec.join.peak_state_mb",
      static_cast<double>(ops.join_peak_state_bytes) / (1 << 20));
  if (!ops.shard_tuples_in.empty()) {
    int64_t max_in = 0, sum_in = 0;
    for (const auto& [s, v] : ops.shard_tuples_in) {
      max_in = std::max(max_in, v);
      sum_in += v;
    }
    set("shard.skew",
        Ratio(static_cast<double>(max_in) * ops.shard_tuples_in.size(),
              sum_in));
  }
}

// ---- process probes -----------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

namespace {
int64_t CpuNs(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}
}  // namespace

int64_t ProcessCpuNs() { return CpuNs(RUSAGE_SELF); }
int64_t ThreadCpuNs() { return CpuNs(RUSAGE_THREAD); }

int64_t SelfNs(const LayerInputs& in, const std::string& name) {
  auto it = in.spans.find(name);
  return it == in.spans.end() ? 0 : it->second.self_ns;
}

int64_t SpanCount(const LayerInputs& in, const std::string& name) {
  auto it = in.spans.find(name);
  return it == in.spans.end() ? 0 : it->second.count;
}

}  // namespace perfbench

// Shared pieces of the spstream benchmark driver: the closed-loop epoch
// harness, the span recorder of the traced run, order-independent result
// digests for the reference checks, and the per-layer metric table.
//
// Every workload is a closed loop with one caller: generate an epoch's input
// and its reference output (untimed), push it, Run, drain the results
// (timed), then compare the drained results with the reference (untimed).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/status.h"
#include "stream/tuple.h"

namespace perfbench {

/// steady_clock nanoseconds.
int64_t Now();

/// Mix a run seed with a stream index into an independent sub-seed.
uint64_t SubSeed(uint64_t seed, uint64_t index);

// ---- result digests ---------------------------------------------------------

/// Order-independent digest of a multiset of result tuples: count plus the
/// wrapping sum of a per-tuple hash over (tid, ts, values). Sharded merges
/// and shared trunks may reorder results; the multiset must not change.
struct Digest {
  int64_t count = 0;
  uint64_t sum = 0;

  void Add(const spstream::Tuple& t);
  void Add(const std::vector<spstream::Tuple>& ts) {
    for (const spstream::Tuple& t : ts) Add(t);
  }
  bool operator==(const Digest& o) const {
    return count == o.count && sum == o.sum;
  }
};

// ---- spans ------------------------------------------------------------------

/// In-memory span log of the traced run. Spans are recorded from the
/// benchmark's own code around each call into the program; nesting follows
/// the call stack, and every span carries its epoch as the shared id.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    int32_t parent;  // index of the enclosing span, -1 for a root
    int64_t epoch;
    int64_t start;
    int64_t end;
  };
  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;  // duration minus the part child spans cover
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int32_t Begin(const char* name, int64_t epoch);
  void End(int32_t id);

  /// Per-name count, total and self time over every recorded span.
  std::map<std::string, Totals> Summarize() const;
  /// Write the spans once, as Chrome trace JSON (loads in Perfetto).
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when the recorder is off or null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int64_t epoch)
      : rec_(rec != nullptr && rec->enabled() ? rec : nullptr),
        id_(rec_ != nullptr ? rec_->Begin(name, epoch) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t id_;
};

// ---- metrics ----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Every per-layer metric with its unit, in report order. Each workload
/// reports all of them; a layer the workload's path does not reach reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

/// Operator counters of one engine registry, summed by operator kind.
struct OpTotals {
  spstream::OperatorMetrics ss, select, project, join, all;
  /// Sum over join operators (one per shard) of their peak state bytes.
  int64_t join_peak_state_bytes = 0;
  /// Per shard ("q<id>.shard<i>" registry keys): tuples into the join and
  /// operator nanos. Empty for unsharded plans.
  std::map<int, int64_t> shard_tuples_in, shard_nanos;

  static OpTotals From(const spstream::MetricsSnapshot& snap);
  /// Counters accumulated since `before` (peak state keeps the later max).
  OpTotals Since(const OpTotals& before) const;
};

/// Fill the exec.* and shard.* per-layer metrics from operator deltas.
/// `run_ns` is the engine Run wall time over the same interval.
void ReportOperators(const OpTotals& ops, int64_t run_ns, Metrics* out);

// ---- workloads --------------------------------------------------------------

/// What a workload's traced run hands to its per-layer report.
struct LayerInputs {
  std::map<std::string, SpanRecorder::Totals> spans;  // traced epochs only
  int64_t traced_tuples = 0;
  int64_t traced_results = 0;
  /// CPU inside the traced epochs: the driver thread, and every other
  /// thread of the process (engine shards, server loops).
  int64_t traced_thread_cpu_ns = 0;
  int64_t traced_server_cpu_ns = 0;
  int64_t measured_epochs = 0;  // every timed epoch, traced or not
  int64_t measured_ns = 0;
  int64_t measured_tuples = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed: build epoch `epoch`'s input and its reference output.
  virtual void Prepare(int64_t epoch) = 0;
  /// Timed: push the prepared input, Run, drain the results. Returns false
  /// on a non-OK status (the message goes to stderr).
  virtual bool Execute(int64_t epoch, SpanRecorder* spans) = 0;
  /// Untimed: compare the drained results with the reference.
  virtual bool Check() = 0;

  /// Tuples pushed and results drained by the last Execute.
  virtual int64_t epoch_tuples() const = 0;
  virtual int64_t epoch_results() const = 0;

  /// Time spent in RegisterQuery during construction.
  virtual int64_t register_query_ns() const = 0;
  /// Options the workload sets, one "name=value" per entry.
  virtual std::vector<std::string> Config() const = 0;

  /// Snapshot program counters at the start of the timed phase.
  virtual void BeginMeasure() = 0;
  /// Per-layer metrics over the timed phase (counters since BeginMeasure).
  virtual void ReportLayers(const LayerInputs& in, Metrics* out) = 0;
};

struct WorkloadSpec {
  const char* name;
  /// Construct engine/server, catalog, queries, connection: set-up only;
  /// input generation happens later, in Prepare.
  std::unique_ptr<Workload> (*make)(uint64_t seed);
};

std::unique_ptr<Workload> MakeEnforceSelect(uint64_t seed);
std::unique_ptr<Workload> MakeJoinWindow(uint64_t seed);
std::unique_ptr<Workload> MakeNetLoopback(uint64_t seed);

// ---- process probes ---------------------------------------------------------

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();
/// CPU time (user + system) of the whole process / the calling thread.
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();

/// Self time of a span name in the traced epochs (0 when absent).
int64_t SelfNs(const LayerInputs& in, const std::string& name);
int64_t SpanCount(const LayerInputs& in, const std::string& name);

/// a / b, or 0 when b is 0.
double Ratio(double a, double b);

/// Total nanoseconds recorded into a registry latency histogram.
double HistogramTotalNs(const spstream::MetricsSnapshot& snap,
                        const std::string& name);

/// True for OK; otherwise logs `what` and the status to stderr.
bool Ok(const spstream::Status& status, const char* what);

}  // namespace perfbench

// Arrival-time replay and per-result latency measurement.
//
// The pipelined engine is synchronous, so result latency equals the
// processing delay between an element's (simulated) arrival and the moment
// its results leave the plan. ReplayWithLatency stamps each element's
// arrival with a wall-clock time derived from a configured arrival rate,
// feeds the stream through a plan, and records per-result latencies — the
// evaluation dimension behind "speed of enforcement" claims.
#pragma once

#include <vector>

#include "exec/operator.h"

namespace spstream {

struct ReplayOptions {
  /// Simulated elements per millisecond (controls how far apart arrival
  /// stamps are placed). <= 0 means back-to-back arrival.
  double arrival_rate_per_ms = 0;
};

/// \brief Latency distribution summary (microseconds).
struct LatencySummary {
  size_t count = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double max_us = 0;

  std::string ToString() const;
};

/// \brief Records result-departure latencies against source arrival stamps.
///
/// Wire it as the plan's sink. ReplayWithLatency calls MarkArrival right
/// before feeding each source element; the sink stamps each received tuple
/// with now - last_arrival (the synchronous engine guarantee: everything a
/// push produces is emitted before the push returns).
class LatencySink : public Operator {
 public:
  explicit LatencySink(ExecContext* ctx, std::string label = "latency_sink")
      : Operator(ctx, std::move(label)) {}

  void MarkArrival() { arrival_nanos_ = NowNanos(); }

  const std::vector<int64_t>& latencies_nanos() const { return latencies_; }
  int64_t tuples() const { return metrics_.tuples_in; }

  LatencySummary Summarize() const;

 protected:
  void Process(StreamElement&& elem, int) override {
    if (elem.is_tuple()) {
      ++metrics_.tuples_in;
      latencies_.push_back(NowNanos() - arrival_nanos_);
    } else if (elem.is_sp()) {
      ++metrics_.sps_in;
    }
  }

 private:
  int64_t arrival_nanos_ = 0;
  std::vector<int64_t> latencies_;
};

/// \brief Feed `input` to its end one element per batch (FeedToEnd at
/// batch size 1), marking each arrival on `sink`. Returns total wall time
/// in milliseconds.
double ReplayWithLatency(FiniteInput input, LatencySink* sink,
                         const ReplayOptions& options = {});

}  // namespace spstream

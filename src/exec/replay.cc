#include "exec/replay.h"

#include <algorithm>
#include <sstream>

namespace spstream {

std::string LatencySummary::ToString() const {
  std::ostringstream os;
  os << "n=" << count << " mean=" << mean_us << "us p50=" << p50_us
     << "us p95=" << p95_us << "us p99=" << p99_us << "us max=" << max_us
     << "us";
  return os.str();
}

LatencySummary LatencySink::Summarize() const {
  LatencySummary s;
  if (latencies_.empty()) return s;
  std::vector<int64_t> sorted = latencies_;
  std::sort(sorted.begin(), sorted.end());
  s.count = sorted.size();
  int64_t sum = 0;
  for (int64_t v : sorted) sum += v;
  auto pct = [&](double p) {
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(p * static_cast<double>(sorted.size())));
    return static_cast<double>(sorted[idx]) / 1e3;
  };
  s.mean_us = static_cast<double>(sum) / static_cast<double>(s.count) / 1e3;
  s.p50_us = pct(0.50);
  s.p95_us = pct(0.95);
  s.p99_us = pct(0.99);
  s.max_us = static_cast<double>(sorted.back()) / 1e3;
  return s;
}

double ReplayWithLatency(FiniteInput input, LatencySink* sink,
                         const ReplayOptions& options) {
  const int64_t start = NowNanos();
  const double gap_nanos =
      options.arrival_rate_per_ms > 0 ? 1e6 / options.arrival_rate_per_ms
                                      : 0;
  double next_arrival = static_cast<double>(start);
  std::vector<FiniteInput> inputs;
  inputs.push_back(std::move(input));
  FeedToEnd(std::move(inputs), /*batch_size=*/1, [&] {
    if (gap_nanos > 0) {
      // Busy-wait to the simulated arrival instant (sub-ms gaps; a sleep
      // would be far coarser than the latencies measured).
      while (static_cast<double>(NowNanos()) < next_arrival) {
      }
      next_arrival += gap_nanos;
    }
    sink->MarkArrival();
  });
  return static_cast<double>(NowNanos() - start) / 1e6;
}

}  // namespace spstream

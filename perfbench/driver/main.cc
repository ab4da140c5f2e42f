// Benchmark driver: one workload per process.
//
//   perfbench_driver --workload <enforce_select|join_window|net_loopback>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file.json>]
//
// --trace 0 measures the end-to-end metrics with no span recording.
// --trace 1 alternates blocks of traced and untraced epochs in one run,
// derives the per-layer metrics from the traced blocks, and reports the
// traced/untraced difference as trace.overhead_pct. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetupReps = 15;
// Timed epochs are reduced a window at a time, so the driver holds one
// window's latencies whatever the run's epoch count, and every window has
// the same length whatever the throughput: ten samples lie beyond its p99.
constexpr size_t kWindowEpochs = 1000;
// Room for the per-window results of any run, reserved before set-up so
// the driver's own bookkeeping never grows during the timed epochs.
constexpr size_t kMaxWindows = 4096;
// Traced runs must attribute all but this share of the epoch wall to spans
// around calls into the program.
constexpr double kMaxDriverResidual = 0.05;
constexpr int64_t kWarmupNs = 1000000000;  // untimed, still checked
constexpr int64_t kTraceBlock = 16;        // epochs per traced/untraced block
constexpr int64_t kHardStopNs = 120000000000LL;

const WorkloadSpec kWorkloads[] = {
    {"enforce_select", &MakeEnforceSelect},
    {"join_window", &MakeJoinWindow},
    {"net_loopback", &MakeNetLoopback},
};

/// Confine this thread, and every thread it starts later, to the first CPU
/// it may run on. join_window (driver and two shard threads) and
/// net_loopback (client, event loop and engine thread) hand work between
/// threads every epoch; on a VM each hand-off to an idle vCPU waits for the
/// hypervisor to wake it, and on busy stretches of the host that multiplied
/// their p99 by 2-6x. On one CPU a hand-off is a local context switch.
/// Returns the CPU, or -1.
int ConfineToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    CPU_SET(c, &chosen);
    return sched_setaffinity(0, sizeof chosen, &chosen) == 0 ? c : -1;
  }
  return -1;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

/// Every SPSTREAM_* variable swaps some part of the program under test
/// (tracing, fault injection, net loops, overload watermarks, ...).
std::vector<std::string> SpstreamEnv() {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SPSTREAM_", 9) == 0) found.emplace_back(*e);
  }
  return found;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank percentile of sorted epoch latencies, in milliseconds.
double PercentileMs(const std::vector<int64_t>& sorted_ns, double p) {
  size_t rank =
      static_cast<size_t>(p * static_cast<double>(sorted_ns.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, sorted_ns.size());
  return static_cast<double>(sorted_ns[rank - 1]) / 1e6;
}

/// One window of kWindowEpochs consecutive untraced epochs.
struct Window {
  double tps, p50_ms, p99_ms;
};

std::string Json(bool correct, int64_t attempted, int64_t failed,
                 const Metrics& metrics) {
  std::ostringstream os;
  os.precision(12);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : kWorkloads) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  if (const auto env = SpstreamEnv(); !env.empty()) {
    for (const std::string& e : env) {
      std::cerr << "refusing to run: " << e
                << " changes the program under test; unset it\n";
    }
    return 2;
  }

#ifdef NDEBUG
  const char* ndebug = "defined";
#else
  const char* ndebug = "undefined";
#endif
  std::cout << "workload=" << spec->name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << "\nbuild_type=" << PERFBENCH_BUILD_TYPE << " NDEBUG=" << ndebug
            << "\n";

  const int cpu = ConfineToOneCpu();
  if (cpu < 0) {
    std::cerr << "cannot confine the process to one CPU\n";
    return 1;
  }
  std::cout << "option cpu=" << cpu << " (sched_setaffinity, one CPU)\n";

  // Set-up is sampled before the run (the last instance runs the epochs)
  // and again after it on throwaway instances, so its median is not taken
  // from one moment of the host.
  std::vector<double> setup_s, register_ms;
  setup_s.reserve(2 * kSetupReps);
  register_ms.reserve(2 * kSetupReps);
  std::vector<int64_t> window_ns;
  window_ns.reserve(kWindowEpochs);
  std::vector<Window> windows;
  windows.reserve(kMaxWindows);
  auto setup_once = [&]() -> std::unique_ptr<Workload> {
    const int64_t t0 = Now();
    std::unique_ptr<Workload> made = spec->make(args.seed);
    const int64_t t1 = Now();
    if (made != nullptr) {
      setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
      register_ms.push_back(
          static_cast<double>(made->register_query_ns()) / 1e6);
    }
    return made;
  };
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetupReps && (i == 0 || w != nullptr); ++i) {
    w.reset();
    w = setup_once();
  }
  if (w == nullptr) {
    std::cerr << "set-up failed\n";
    return 1;
  }
  for (const std::string& c : w->Config()) std::cout << "option " << c << "\n";

  SpanRecorder spans;
  LayerInputs layers;
  int64_t attempted = 0, failed = 0, epoch = 0;
  // One closed-loop epoch; returns its timed wall (push -> results in hand).
  auto run_epoch = [&](bool traced) {
    w->Prepare(epoch);
    spans.set_enabled(traced);
    const int64_t proc0 = traced ? ProcessCpuNs() : 0;
    const int64_t thr0 = traced ? ThreadCpuNs() : 0;
    const int64_t t0 = Now();
    bool ok;
    {
      ScopedSpan root(&spans, "epoch", epoch);
      ok = w->Execute(epoch, &spans);
    }
    const int64_t wall = Now() - t0;
    if (traced) {
      const int64_t thr = ThreadCpuNs() - thr0;
      layers.traced_thread_cpu_ns += thr;
      layers.traced_server_cpu_ns += ProcessCpuNs() - proc0 - thr;
    }
    spans.set_enabled(false);
    ++attempted;
    ++epoch;
    if (!ok || !w->Check()) {
      ++failed;
      if (failed <= 5) std::cerr << "epoch " << epoch - 1 << " failed\n";
    }
    return wall;
  };

  const int64_t warm_start = Now();
  while (Now() - warm_start < kWarmupNs || epoch < 5) run_epoch(false);

  w->BeginMeasure();
  const int64_t budget = static_cast<int64_t>(args.seconds) * 1000000000;
  const int64_t hard_stop = Now() + kHardStopNs;
  int64_t window_tuples = 0;
  int64_t plain_ns = 0, plain_tuples = 0, traced_ns = 0;
  // An untraced run ends on a window boundary, so every timed epoch counts
  // in exactly one window.
  while ((layers.measured_ns < budget ||
          layers.measured_epochs < static_cast<int64_t>(kWindowEpochs) ||
          !window_ns.empty()) &&
         Now() < hard_stop && windows.size() < kMaxWindows) {
    // In a traced run, traced and untraced blocks alternate, so both halves
    // see the same host regimes and their difference is the span cost.
    const bool traced =
        args.trace == 1 && (layers.measured_epochs / kTraceBlock) % 2 == 1;
    const int64_t wall = run_epoch(traced);
    layers.measured_ns += wall;
    layers.measured_epochs += 1;
    layers.measured_tuples += w->epoch_tuples();
    if (traced) {
      traced_ns += wall;
      layers.traced_tuples += w->epoch_tuples();
      layers.traced_results += w->epoch_results();
      continue;
    }
    plain_ns += wall;
    plain_tuples += w->epoch_tuples();
    if (args.trace == 1) continue;
    window_ns.push_back(wall);
    window_tuples += w->epoch_tuples();
    if (window_ns.size() < kWindowEpochs) continue;
    int64_t window_wall = 0;
    for (const int64_t ns : window_ns) window_wall += ns;
    std::sort(window_ns.begin(), window_ns.end());
    windows.push_back({static_cast<double>(window_tuples) / (window_wall / 1e9),
                       PercentileMs(window_ns, 0.50),
                       PercentileMs(window_ns, 0.99)});
    window_ns.clear();
    window_tuples = 0;
  }

  // More set-up samples after the run, half a minute after the first ones.
  // Peak RSS is read first: throwaway instances must not count towards it.
  const double peak_rss_mb = PeakRssMb();
  for (int i = 0; i < kSetupReps; ++i) {
    ++attempted;
    if (setup_once() == nullptr) ++failed;
  }

  Metrics metrics;
  if (args.trace == 0) {
    // The host switches between fast and slow states many times a run, and
    // a run's share of each varies. Throughput (over the whole run) and p50
    // (the mean of the window medians) follow that share smoothly, where a
    // median over windows would jump between the two states when the share
    // nears one half. p99 is the median over windows: one window whose tail
    // a host burst stretched does not move it, while a tail the program
    // itself adds shows in most windows.
    if (windows.empty()) {
      ++failed;
      std::cerr << "no complete window of " << kWindowEpochs
                << " epochs before the hard stop\n";
    }
    std::vector<double> p50, p99;
    for (size_t i = 0; i < windows.size(); ++i) {
      const Window& win = windows[i];
      p50.push_back(win.p50_ms);
      p99.push_back(win.p99_ms);
      std::cout << "window " << i << " throughput_tps=" << win.tps
                << " latency_p50_ms=" << win.p50_ms
                << " latency_p99_ms=" << win.p99_ms << "\n";
    }
    metrics["throughput_tps"] = {Ratio(plain_tuples, plain_ns / 1e9),
                                 "tuples/s"};
    metrics["latency_p50_ms"] = {Mean(p50), "ms"};
    metrics["latency_p99_ms"] = {Median(p99), "ms"};
    metrics["peak_rss_mb"] = {peak_rss_mb, "MiB"};
    metrics["setup_s"] = {Median(setup_s), "s"};
  } else {
    for (const auto& [name, unit] : LayerMetricUnits()) {
      metrics[name] = {0.0, unit};
    }
    layers.spans = spans.Summarize();
    w->ReportLayers(layers, &metrics);
    const auto& root = layers.spans["epoch"];
    const double residual = Ratio(root.self_ns, root.total_ns);
    metrics["engine.driver_residual_share"].value = residual;
    if (residual >= kMaxDriverResidual) {
      ++failed;
      std::cerr << "spans cover only " << 100.0 * (1.0 - residual)
                << "% of the traced epochs' wall\n";
    }
    metrics["setup.register_query_ms"].value = Median(register_ms);
    metrics["trace.overhead_pct"].value =
        100.0 * (Ratio(Ratio(traced_ns, layers.traced_tuples),
                       Ratio(plain_ns, plain_tuples)) -
                 1.0);
    if (!args.trace_out.empty() && !spans.WriteChromeJson(args.trace_out)) {
      std::cerr << "could not write " << args.trace_out << "\n";
    }
  }

  std::cout << "timed_epochs=" << layers.measured_epochs
            << " timed_s=" << layers.measured_ns / 1e9
            << " attempted=" << attempted << " failed=" << failed << "\n";
  std::cout.precision(6);
  for (const auto& [name, m] : metrics) {
    std::cout << "metric " << name << " = " << m.value << " " << m.unit
              << "\n";
  }
  std::cout << Json(failed == 0, attempted, failed, metrics) << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n";
    return 2;
  }
  return perfbench::Run(args);
}

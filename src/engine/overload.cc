#include "engine/overload.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "common/metrics.h"
#include "common/metrics_registry.h"
#include "common/trace.h"

namespace spstream {

namespace {

// Seed of the kRandom shed coin; fixed so a shedding run is reproducible.
constexpr uint64_t kShedSeed = 0x5eed0501ULL;

bool EnvFlag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return !(v[0] == '0' || v[0] == 'f' || v[0] == 'F' || v[0] == 'n' ||
           v[0] == 'N');
}

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoll(v, nullptr, 10);
}

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtod(v, nullptr);
}

}  // namespace

const char* OverloadStateName(OverloadState state) {
  switch (state) {
    case OverloadState::kNormal: return "normal";
    case OverloadState::kThrottle: return "throttle";
    case OverloadState::kShed: return "shed";
  }
  return "unknown";
}

OverloadOptions OverloadOptions::FromEnv(OverloadOptions base) {
  base.enable_shedding = EnvFlag("SPSTREAM_OVERLOAD_SHED",
                                 base.enable_shedding);
  base.pending_high_watermark = static_cast<size_t>(
      EnvInt("SPSTREAM_PENDING_HIGH",
             static_cast<int64_t>(base.pending_high_watermark)));
  base.pending_low_watermark = static_cast<size_t>(
      EnvInt("SPSTREAM_PENDING_LOW",
             static_cast<int64_t>(base.pending_low_watermark)));
  base.shed_fraction = EnvDouble("SPSTREAM_SHED_FRACTION", base.shed_fraction);
  return base;
}

OverloadController::OverloadController(OverloadOptions options,
                                       size_t shard_queue_capacity)
    : options_(options),
      queue_high_watermark_(std::max<size_t>(1, shard_queue_capacity * 3 / 4)),
      rng_(kShedSeed) {
  // Guard against inverted or zero watermarks from env overrides.
  if (options_.pending_high_watermark == 0) options_.pending_high_watermark = 1;
  if (options_.pending_low_watermark >= options_.pending_high_watermark) {
    options_.pending_low_watermark = options_.pending_high_watermark / 2;
  }
  if (options_.shed_fraction < 0.0) options_.shed_fraction = 0.0;
  if (options_.shed_fraction > 1.0) options_.shed_fraction = 1.0;
}

OverloadState OverloadController::Observe(size_t pending_backlog,
                                          size_t max_queue_depth,
                                          int64_t last_epoch_nanos,
                                          int64_t epoch_deadline_ms) {
  // Normalize every signal against its own high watermark and let the
  // hottest one set the pressure. 1.0 == at the shed threshold.
  double p = static_cast<double>(pending_backlog) /
             static_cast<double>(options_.pending_high_watermark);
  double q = static_cast<double>(max_queue_depth) /
             static_cast<double>(queue_high_watermark_);
  double d = 0.0;
  if (epoch_deadline_ms > 0 && last_epoch_nanos > 0) {
    d = static_cast<double>(last_epoch_nanos) /
        (static_cast<double>(epoch_deadline_ms) * 1e6);
  }
  const double pressure = std::max(p, std::max(q, d));

  // The throttle threshold is the low/high watermark ratio, applied to the
  // normalized score so all three signals share one escalation ladder.
  const double throttle_at =
      static_cast<double>(options_.pending_low_watermark) /
      static_cast<double>(options_.pending_high_watermark);

  OverloadState next = OverloadState::kNormal;
  if (pressure >= 1.0) {
    next = OverloadState::kShed;
  } else if (pressure >= throttle_at) {
    next = OverloadState::kThrottle;
  }
  state_.store(static_cast<uint8_t>(next), std::memory_order_relaxed);
  return next;
}

bool OverloadController::ShouldShed(int stream_priority, int top_priority) {
  if (!options_.enable_shedding || state() != OverloadState::kShed) {
    return false;
  }
  ++shed_decisions_;
  if (options_.shed_policy == ShedPolicy::kPriority &&
      stream_priority >= top_priority) {
    return false;  // protect the streams feeding the top-priority queries
  }
  if (unit_(rng_) >= options_.shed_fraction) return false;
  ++tuples_shed_;
  return true;
}

size_t OverloadController::EffectiveBatchSize(size_t base) const {
  if (state() == OverloadState::kNormal) return base;
  return std::max<size_t>(1, base / kThrottleDivisor);
}

// ---- Watchdog --------------------------------------------------------------

Watchdog::Watchdog(OverloadOptions options, ProbeFn probe,
                   MetricsRegistry* metrics)
    : options_(options), probe_(std::move(probe)), metrics_(metrics) {}

Watchdog::~Watchdog() { Stop(); }

void Watchdog::Start() {
  if (running_.load(std::memory_order_relaxed)) return;
  stop_requested_ = false;
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
}

void Watchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_relaxed);
}

void Watchdog::Loop() {
  struct ShardWatch {
    int64_t last_progress = -1;
    int64_t frozen_since = 0;  // nanos when progress last changed
    bool wedged = false;
  };
  std::vector<ShardWatch> watches;

  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(options_.watchdog_poll_ms),
                   [this] { return stop_requested_; });
      if (stop_requested_) break;
    }
    std::vector<ShardProgressSample> samples = probe_();
    if (samples.size() != watches.size()) {
      watches.assign(samples.size(), ShardWatch{});
    }
    const int64_t now = NowNanos();
    for (size_t i = 0; i < samples.size(); ++i) {
      ShardWatch& w = watches[i];
      const ShardProgressSample& s = samples[i];
      if (s.progress != w.last_progress || s.queue_depth == 0) {
        // Forward progress (or idle): healthy.
        if (w.wedged && metrics_ != nullptr) {
          metrics_->SetGauge("engine.shard" + std::to_string(i) + ".wedged",
                             0);
        }
        w.last_progress = s.progress;
        w.frozen_since = now;
        w.wedged = false;
        continue;
      }
      // Same counter with work queued: possibly wedged.
      if (w.frozen_since == 0) w.frozen_since = now;
      if (!w.wedged &&
          now - w.frozen_since >= options_.wedge_timeout_ms * 1000000) {
        w.wedged = true;
        wedges_.fetch_add(1, std::memory_order_relaxed);
        if (metrics_ != nullptr) {
          metrics_->AddCounter("engine.watchdog_wedges");
          metrics_->SetGauge("engine.shard" + std::to_string(i) + ".wedged",
                             1);
        }
        Tracer::Global().NoteIncident("watchdog_wedge", EpochTraceId(i));
      }
    }
  }
}

}  // namespace spstream

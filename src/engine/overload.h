// Overload resilience (docs/ROBUSTNESS.md, "Overload and self-healing").
//
// The paper's guarantee — a tuple reaches a result only while a security
// punctuation authorizes it — must survive *sustained overload*. This layer
// adds graceful degradation with one invariant: **shed data, never shed
// security**. Data tuples may be dropped at admission when the engine falls
// behind; security punctuations, control boundaries and revocations are
// always admitted losslessly, so no PolicyTracker ever goes stale-permissive
// because the engine was busy.
//
// Two pieces:
//
//  * OverloadController — a pressure state machine fed by three signals
//    (per-stream pending backlog, shard hand-off queue depth, last epoch
//    wall-clock vs EngineOptions::epoch_deadline_ms). Normalized pressure
//    crosses the low watermark → kThrottle (feed micro-batches shrink);
//    crosses the high watermark → kShed (data tuples dropped at admission
//    under a pluggable policy: random coin-flip, or per-query priority which
//    protects the streams feeding the highest-priority queries). Every shed
//    is audited (AuditEventKind::kShed, with the responsible queries and the
//    count) and metered (`engine.tuples_shed`, `engine.overload_state`) so
//    sheds are never confusable with policy denials.
//
//  * Watchdog — a background thread that OBSERVES per-shard progress
//    counters and flags wedged shards (no forward progress while work is
//    queued). It never mutates engine state: the engine is single-threaded
//    by contract, so actual quarantine recovery executes at a safe point
//    (top of SpStreamEngine::Run, or an explicit RecoverQuery call) with
//    capped exponential backoff, becoming permanent only after
//    `max_recovery_attempts`.
//
// Environment overrides (read by OverloadOptions::FromEnv; see
// docs/ROBUSTNESS.md): SPSTREAM_OVERLOAD_SHED, SPSTREAM_PENDING_HIGH,
// SPSTREAM_PENDING_LOW, SPSTREAM_SHED_FRACTION. Every other knob is set
// through EngineOptions::overload only; the shard-queue watermark (3/4 of
// EngineOptions::shard_queue_capacity), kThrottleDivisor,
// kRecoveryBackoffMaxMs and the shed coin's seed are fixed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace spstream {

class MetricsRegistry;

/// \brief Degradation tier, exported as the `engine.overload_state` gauge
/// (0 / 1 / 2) and in SHED_NOTICE frames.
enum class OverloadState : uint8_t {
  kNormal = 0,    ///< full batches, everything admitted
  kThrottle = 1,  ///< feed micro-batches shrink; everything still admitted
  kShed = 2,      ///< data tuples dropped at admission; sps never
};
const char* OverloadStateName(OverloadState state);

/// \brief How kShed picks victims among *data tuples* (sps are exempt by
/// construction — the policy is never consulted for them).
enum class ShedPolicy : uint8_t {
  kRandom = 0,    ///< drop each data tuple with probability shed_fraction
  kPriority = 1,  ///< protect streams feeding the highest-priority query;
                  ///< shed (at shed_fraction) only from lower-priority ones
};

/// Feed micro-batches are divided by this factor in kThrottle/kShed.
inline constexpr size_t kThrottleDivisor = 4;
/// Cap on the quarantine-recovery backoff (base * 2^attempt).
inline constexpr int64_t kRecoveryBackoffMaxMs = 5000;

/// \brief Knobs for the controller, the watchdog, and quarantine recovery.
/// Lives inside EngineOptions (EngineOptions::overload).
struct OverloadOptions {
  /// Master switch for admission shedding. Off by default: an engine that
  /// was not asked to degrade never silently drops data.
  bool enable_shedding = false;

  /// Per-stream pending-element backlog watermarks (elements buffered in
  /// StreamState::pending between Push and Run). Crossing `pending_low`
  /// enters kThrottle, crossing `pending_high` enters kShed.
  size_t pending_high_watermark = 16384;
  size_t pending_low_watermark = 8192;

  /// Fraction of data tuples dropped while in kShed (both policies).
  double shed_fraction = 0.5;
  ShedPolicy shed_policy = ShedPolicy::kRandom;

  // ---- quarantine self-healing ------------------------------------------
  /// Recovery attempts before a quarantine becomes permanent. 0 disables
  /// self-healing (PR-4 behaviour: dark until deregistered).
  int max_recovery_attempts = 0;
  /// Capped exponential backoff between attempts:
  /// base * 2^attempt, clamped to kRecoveryBackoffMaxMs.
  int64_t recovery_backoff_base_ms = 50;

  // ---- watchdog ----------------------------------------------------------
  bool watchdog = false;          ///< start the observer thread
  int64_t watchdog_poll_ms = 50;  ///< sampling period
  /// A shard whose progress counter is frozen for this long while its queue
  /// is non-empty is flagged wedged.
  int64_t wedge_timeout_ms = 1000;

  /// \brief Apply SPSTREAM_* environment overrides on top of `base` (CI and
  /// the chaos matrix force low watermarks through these).
  static OverloadOptions FromEnv(OverloadOptions base);
};

/// \brief Pressure state machine. Single-threaded like the engine that owns
/// it, except `state()` which is safe to read from other threads (the net
/// serve loop caches it for shed-before-decode).
class OverloadController {
 public:
  /// `shard_queue_capacity` is EngineOptions::shard_queue_capacity: a shard
  /// queue 3/4 full counts as full pressure.
  OverloadController(OverloadOptions options, size_t shard_queue_capacity);

  /// \brief Feed one pressure sample and return the new state.
  ///  - `pending_backlog`: largest per-stream pending element count
  ///  - `max_queue_depth`: deepest shard hand-off queue
  ///  - `last_epoch_nanos`: wall-clock of the last Run() epoch (0 = none)
  ///  - `epoch_deadline_ms`: EngineOptions::epoch_deadline_ms (0 = none)
  OverloadState Observe(size_t pending_backlog, size_t max_queue_depth,
                        int64_t last_epoch_nanos, int64_t epoch_deadline_ms);

  OverloadState state() const {
    return static_cast<OverloadState>(state_.load(std::memory_order_relaxed));
  }

  /// \brief Decide whether to drop one data tuple at admission. Only valid
  /// to consult in kShed; never called for sps or control boundaries.
  /// `stream_priority` is the highest priority among queries consuming the
  /// tuple's stream; `top_priority` the highest across all live queries.
  bool ShouldShed(int stream_priority, int top_priority);

  /// \brief Tier-1 degradation: the micro-batch size FeedGroup feeds.
  size_t EffectiveBatchSize(size_t base) const;

  int64_t tuples_shed() const { return tuples_shed_; }
  int64_t shed_decisions() const { return shed_decisions_; }
  const OverloadOptions& options() const { return options_; }
  /// \brief Shard hand-off queue depth that counts as full pressure.
  size_t queue_high_watermark() const { return queue_high_watermark_; }

 private:
  OverloadOptions options_;
  size_t queue_high_watermark_;
  std::atomic<uint8_t> state_{0};
  int64_t tuples_shed_ = 0;     ///< coin flips that came up "drop"
  int64_t shed_decisions_ = 0;  ///< total coin flips while in kShed
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

/// \brief One shard's progress sample, fed to the watchdog by the engine.
struct ShardProgressSample {
  int64_t progress = 0;     ///< monotone work counter (tuples+sps+epochs)
  size_t queue_depth = 0;   ///< tasks queued or being fed (0 = idle)
};

/// \brief Background observer of shard liveness. Strictly read-only with
/// respect to the engine: it samples progress through a caller-supplied
/// probe (which must be thread-safe), flags wedges into metrics/the flight
/// recorder, and leaves all recovery to the engine's safe points.
class Watchdog {
 public:
  /// Probe returning one sample per shard (empty = nothing to watch; e.g.
  /// the engine is unsharded or between epochs).
  using ProbeFn = std::function<std::vector<ShardProgressSample>()>;

  Watchdog(OverloadOptions options, ProbeFn probe, MetricsRegistry* metrics);
  ~Watchdog();

  void Start();
  void Stop();

  /// \brief All-time wedge flags raised (a shard re-wedging after progress
  /// counts again).
  int64_t wedges_detected() const {
    return wedges_.load(std::memory_order_relaxed);
  }
  bool running() const { return running_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  OverloadOptions options_;
  ProbeFn probe_;
  MetricsRegistry* metrics_;

  std::atomic<bool> running_{false};
  std::atomic<int64_t> wedges_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace spstream

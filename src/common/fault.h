// Deterministic fault-injection framework (docs/ROBUSTNESS.md).
//
// The engine's fail-closed guarantee — under any component failure it may
// drop or delay results but never leak a tuple past its policy — is only as
// good as the failures we can manufacture. FaultInjector lets tests arm
// *named sites* threaded through the hot paths (shard routing, worker
// processing, policy installation, network writes) with a per-site failure
// probability and/or a deterministic trigger count, all driven by one
// seeded Rng so a failing run reproduces exactly from its seed.
//
// Cost model: every site is guarded by the SP_FAULT_FIRED macro, which
// first checks one relaxed atomic ("is anything armed at all?") — a single
// predictable-branch load when the injector is idle, which is the always-on
// production configuration.
//
// Sites fire only while armed; ShouldFail() itself is mutex-serialized
// (sites sit on worker/reader threads), which is acceptable because the
// lock is only ever taken while a test has faults armed.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace spstream {

namespace fault {
// Canonical site names. Keep in sync with the catalog in
// docs/ROBUSTNESS.md; tests arm these by name.
inline constexpr char kShardQueuePush[] = "shard.queue_push";
inline constexpr char kOperatorProcess[] = "exec.operator_process";
inline constexpr char kPolicyInstall[] = "policy.install";
inline constexpr char kNetWrite[] = "net.write";
inline constexpr char kStorageWalAppend[] = "storage.wal_append";
inline constexpr char kStorageCheckpointWrite[] = "storage.checkpoint_write";
inline constexpr char kStorageRecoveryReplay[] = "storage.recovery_replay";
}  // namespace fault

/// \brief How an armed site decides to fail a hit.
struct FaultSpec {
  /// Bernoulli failure probability per hit (seeded Rng draw).
  double probability = 0.0;
  /// When > 0: the site fails deterministically on exactly this hit
  /// (1-based), independent of probability. 0 disables the trigger.
  int64_t trigger_on_hit = 0;
  /// Cap on total failures this site may produce; < 0 means unlimited.
  int64_t max_failures = -1;
};

struct FaultSiteStats {
  int64_t hits = 0;      ///< times the site was reached while armed
  int64_t failures = 0;  ///< times it actually failed
};

class FaultInjector {
 public:
  /// \brief Process-wide injector all SP_FAULT_FIRED sites consult.
  /// Seeded from SPSTREAM_FAULT_SEED when that env var is set.
  static FaultInjector& Global();

  /// \brief Arm (or re-arm) a site. Resets the site's stats.
  void Arm(const std::string& site, FaultSpec spec);
  void Disarm(const std::string& site);
  void DisarmAll();

  /// \brief Re-seed the shared Rng (call before Arm for reproducibility).
  void Reseed(uint64_t seed);

  /// \brief Fast-path gate: true while at least one site is armed.
  bool enabled() const { return armed_count_.load(std::memory_order_relaxed) > 0; }

  /// \brief Count a hit on `site` and decide whether it fails. Only called
  /// via SP_FAULT_FIRED after the enabled() check.
  bool ShouldFail(const char* site);

  /// \brief Stats of one site (zeroes when never armed/hit).
  FaultSiteStats StatsFor(const std::string& site) const;

  /// \brief (site, stats) for every site seen since the last DisarmAll,
  /// armed or not, in name order — the CLI \faults listing.
  std::vector<std::pair<std::string, FaultSiteStats>> Snapshot() const;

 private:
  FaultInjector();

  struct Site {
    FaultSpec spec;
    FaultSiteStats stats;
    bool armed = false;
  };

  std::atomic<int> armed_count_{0};
  mutable std::mutex mu_;
  std::map<std::string, Site> sites_;
  Rng rng_;
};

/// \brief Seed from the SPSTREAM_FAULT_SEED environment variable, or
/// `fallback` when unset/unparseable. Tests mix this with their own
/// per-case seed so CI can matrix the whole suite over seeds.
uint64_t EnvFaultSeed(uint64_t fallback);

/// \brief RAII arming: arms `site` on construction, disarms on destruction
/// (so a failing test cannot leave faults armed for the next one).
class ScopedFault {
 public:
  ScopedFault(std::string site, FaultSpec spec) : site_(std::move(site)) {
    FaultInjector::Global().Arm(site_, spec);
  }
  ~ScopedFault() { FaultInjector::Global().Disarm(site_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string site_;
};

/// \brief True when the named fault site fires. One relaxed atomic load
/// when nothing is armed.
#define SP_FAULT_FIRED(site)                      \
  (::spstream::FaultInjector::Global().enabled() && \
   ::spstream::FaultInjector::Global().ShouldFail(site))

}  // namespace spstream

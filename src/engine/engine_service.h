// EngineService — the thread-safe entry point over SpStreamEngine for the
// networked deployment (src/net).
//
// SpStreamEngine itself is single-threaded by design (every operator
// mutates shared pipeline state), so the service serializes all engine
// access behind one mutex. In the StreamServer one engine thread makes
// nearly every call — it applies the frames the event loops decoded and
// runs the epochs; the lock keeps the other callers (setup before the
// server starts, WithEngine() inspection, the CLI) race-free. Lock holds
// are short: one Push batch, one catalog op, one Run epoch.
//
// Epoch pacing:
//   - Push()/ExecuteInsertSp() land elements in the engine's pending input
//     and mark work pending, which wakes the engine thread through the
//     work notifier (SetWorkNotifier);
//   - the engine thread consumes the mark with PollWork() and calls
//     RunEpoch();
//   - a client's RUN calls RequestEpoch(): it marks work pending and
//     returns the number of the next epoch to start, which drains
//     everything admitted before the call. The RUN ack carries it.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "engine/engine.h"

namespace spstream {

class EngineService {
 public:
  explicit EngineService(EngineOptions options = {});

  // ---- thread-safe engine operations ------------------------------------
  RoleId RegisterRole(const std::string& name);
  Result<StreamId> RegisterStream(SchemaPtr schema);
  Status RegisterSubject(const std::string& name,
                         const std::vector<std::string>& role_names);
  Result<QueryId> RegisterQuery(const std::string& subject,
                                const std::string& sql);
  Status ExecuteInsertSp(const std::string& sql);
  /// \brief Admit a batch into a stream. `on_admitted` (optional) runs with
  /// the engine still locked, right after a successful admission — the
  /// server bumps its credit-replenish bookkeeping there, atomically with
  /// the admission, so an epoch (whose replenish pass holds the same lock)
  /// can never grant credits for elements it has not drained.
  Status Push(const std::string& stream_name,
              std::vector<StreamElement> elements,
              const std::function<void()>& on_admitted = nullptr);
  Result<std::vector<Tuple>> TakeResults(QueryId id);

  /// \brief Snapshot of the stream catalog: (id, schema) per stream, in id
  /// order — the HELLO_ACK schema negotiation payload.
  std::vector<std::pair<StreamId, SchemaPtr>> ListStreams();
  Result<StreamId> LookupStreamId(const std::string& name);
  Result<std::string> StreamName(StreamId id);

  // ---- epoch pacing -------------------------------------------------------
  /// \brief Ask for an epoch; returns the number of the epoch that will
  /// include everything this thread pushed before the call.
  uint64_t RequestEpoch();

  /// \brief Consume the work-pending mark; true when an epoch should run,
  /// false once Stop() was called. Never blocks: the reactor's engine
  /// thread waits on its own condition variable, woken by the notifier
  /// below as well as by ingress queues.
  bool PollWork();

  /// \brief Install a callback invoked (outside all service locks) whenever
  /// work becomes pending or Stop() is called — the reactor's engine thread
  /// registers its wakeup here. Pass nullptr to clear. Must not be changed
  /// while producers are live.
  void SetWorkNotifier(std::function<void()> notify);

  /// \brief Run one engine epoch. `after_run` (optional) is invoked with
  /// the engine still locked, right after Run() — the server drains
  /// subscriber results and snapshots credit consumption there, atomically
  /// with the epoch.
  void RunEpoch(const std::function<void(SpStreamEngine*)>& after_run =
                    nullptr);

  /// \brief Wake the engine thread through the notifier; PollWork()
  /// returns false from now on.
  void Stop();

  /// \brief Direct engine access for single-threaded phases (setup before
  /// the server starts, inspection after it stops); while server threads
  /// are live, use WithEngine() instead.
  SpStreamEngine* UnsafeEngine() { return &engine_; }

  /// \brief Run `fn` with the engine lock held — arbitrary engine access
  /// that stays race-free while the server is live.
  template <typename Fn>
  auto WithEngine(Fn&& fn) {
    std::lock_guard<std::mutex> lock(engine_mu_);
    return fn(&engine_);
  }

  /// Registry/audit log are internally thread-safe; direct access is fine.
  MetricsRegistry* metrics() { return engine_.metrics(); }
  AuditLog* audit() { return engine_.audit(); }

  /// \brief Current degradation tier, lock-free: the controller publishes
  /// its state atomically (OverloadController::state()) before the gauge is
  /// set, so the reactor's loop threads can gate shed-before-decode on it
  /// per-frame without touching the engine lock — and the tier a test (or
  /// operator) observes via `engine.overload_state` is never fresher than
  /// what this returns.
  OverloadState overload_state() const { return engine_.overload_state(); }

 private:
  SpStreamEngine engine_;
  mutable std::mutex engine_mu_;  // guards every engine_ access

  /// Mark work pending under pace_mu_ and return the notifier to invoke
  /// after the lock is dropped (never call it under pace_mu_: the reactor's
  /// wakeup takes its own mutex).
  std::function<void()> MarkWorkPending();

  std::mutex pace_mu_;  // guards the epoch/work state below
  std::function<void()> work_notifier_;
  bool work_pending_ = false;
  bool stopped_ = false;
  uint64_t epochs_started_ = 0;
};

}  // namespace spstream

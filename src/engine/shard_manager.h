// ShardManager — the engine's shard pool for intra-query parallelism
// (EngineOptions::num_shards > 1).
//
// N shards, each feeding its own pipeline clone. The engine's Run() thread
// routes an epoch's admitted elements: tuples hash-partitioned by their
// leaf's shard key, security punctuations broadcast to every shard so each
// clone's PolicyTracker converges to the same policy state. Hand-off units
// are micro-batches (ElementBatch, sized by EngineOptions::batch_size); each
// is fed whole into the PushSource of its target clone — synchronous
// pipelined execution inside the shard, exactly like a one-clone group.
//
// Who feeds a clone depends on the CPUs the constructing thread may run on
// (its sched_getaffinity mask):
//  - two or more: one worker thread per shard, each owning one bounded MPSC
//    queue (stream/element_queue.h). RouteBatch pushes each batch onto its
//    shard's queue as soon as it is routed;
//  - one: no thread at all. RouteBatch feeds the batch on the engine thread
//    before it returns. Worker threads on one CPU would only take turns with
//    the engine thread and pay a wake-up and a barrier hand-shake per epoch.
// Either way CloneFeed::Feed feeds a batch — the same body the engine runs
// for a group with one clone — so fault draws, fail-closed poisoning,
// counters, tuple latency, tracing and exception handling do not depend on
// the path, nor do shard clones, partitioning, per-shard order or the merge
// by shard id.
//
// Epoch barrier: CompleteEpoch() hands one barrier marker to every shard.
// With workers it blocks until each worker has acknowledged its marker —
// i.e. fully drained its share of the epoch; without workers every batch
// was fed at routing time, so the markers are handled inline. Only then
// does the engine read the per-shard sinks and feed state (no lock needed:
// the clones are provably idle for this epoch's data). Workers stay parked
// between epochs; they are joined by Stop() or the destructor.
//
// Thread-safety contract for the code running on worker threads: operators
// touch only their own pipeline's state plus the ExecContext catalogs
// (read-only during Run) and the MetricsRegistry/AuditLog (internally
// locked). The tsan-engine CI job runs the shard suites under
// ThreadSanitizer to keep this contract honest, and once more pinned to one
// CPU for the threadless path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "exec/operator.h"
#include "stream/element_queue.h"

namespace spstream {

/// \brief One fault observed between two epoch barriers — an injected
/// failure (SP_FAULT_FIRED site), an operator exception, or a routing push
/// that failed. The engine drains these after the barrier and quarantines
/// the query group the epoch belonged to.
struct FaultRecord {
  size_t shard = 0;
  std::string site;    ///< fault-site name or "exec.exception"
  std::string detail;  ///< free-form context (what was dropped, why)
};

/// \brief Feed state of one pipeline clone: a shard's, or the one clone of
/// an unsharded group. Owned by the thread that feeds the clone (a shard's
/// worker, or the engine thread); the engine reads it only after the epoch
/// barrier, when the clone is idle.
struct CloneFeed {
  size_t index = 0;  ///< shard index, named in fault records and spans
  /// Set when the clone faults mid-epoch; every further batch is dropped
  /// (never fed) until TakeEpoch().
  bool poisoned = false;
  int64_t tuples = 0;  ///< live tuples fed, all epochs
  int64_t sps = 0;     ///< sps fed, all epochs
  std::vector<FaultRecord> faults;
  /// Each fed tuple's source→sink latency: the wall time of the FeedBatch
  /// call that carried it.
  Histogram tuple_latency;

  /// \brief Feed `batch` whole into `src` (one FeedBatch call) on the
  /// calling thread, unless the clone is poisoned. One fault draw per
  /// element first; a fault anywhere drops the whole batch and poisons the
  /// clone, and so does an operator exception.
  void Feed(PushSource* src, ElementBatch batch);

  /// \brief End the clone's epoch, on the engine thread after the barrier:
  /// fold its tuple latency into `*latency`, clear the poison, and return
  /// the faults recorded since the previous call.
  std::vector<FaultRecord> TakeEpoch(Histogram* latency);
};

class ShardManager {
 public:
  /// \brief One routed unit of work: a micro-batch of elements for one
  /// pipeline source, fed in one FeedBatch call. A null `src` is the epoch
  /// barrier marker; `batch` is ignored for markers.
  struct Task {
    PushSource* src = nullptr;
    ElementBatch batch;
  };

  /// \brief Live counters of one shard.
  struct ShardStats {
    int64_t tuples_processed = 0;
    int64_t sps_processed = 0;
    int64_t epochs = 0;
    /// Tasks queued for the shard plus the one being fed, so a shard stuck
    /// inside a task is never mistaken for an idle one (the Watchdog treats
    /// 0 as idle). Without workers it is 1 exactly while the engine thread
    /// is inside the shard's task.
    size_t queue_depth = 0;
    /// Deepest the shard's hand-off queue has been; 0 without workers,
    /// where nothing is ever queued.
    size_t queue_peak = 0;
  };

  explicit ShardManager(size_t num_shards, size_t queue_capacity = 4096);
  ~ShardManager();

  ShardManager(const ShardManager&) = delete;
  ShardManager& operator=(const ShardManager&) = delete;

  size_t num_shards() const { return shards_.size(); }

  /// \brief Worker threads feeding the shards: one per shard when the
  /// constructing thread could use two or more CPUs, else 0 (the engine
  /// thread feeds every shard).
  size_t num_workers() const { return threaded_ ? shards_.size() : 0; }

  /// \brief Hand a micro-batch to `shard`, fed whole into `src` (one
  /// FeedBatch call): queued for the shard's worker, or fed before this
  /// returns when there are no workers. Per-shard ordering is the routing
  /// order of the batches. Call only from the engine's Run() thread.
  void RouteBatch(size_t shard, PushSource* src, ElementBatch batch);

  /// \brief Epoch barrier: return once every shard has processed
  /// everything routed so far. After this returns, the per-shard pipelines
  /// are quiescent and their sinks safe to read from the calling thread.
  void CompleteEpoch();

  /// \brief End every shard's epoch (CloneFeed::TakeEpoch): fold their
  /// tuple latency into `*latency` and return the faults recorded since
  /// the previous call, routing faults first. Call right after
  /// CompleteEpoch(): the engine routes + barriers one query group at a
  /// time, so everything drained here is attributable to that group. A
  /// shard that faults stops feeding its pipeline until then (fail closed:
  /// a clone whose policy state may have diverged must not keep emitting),
  /// so the faulted epoch's partial output is discarded by the caller,
  /// never delivered.
  std::vector<FaultRecord> TakeEpoch(Histogram* latency);

  /// \brief Close all queues and join the workers. Idempotent; also run by
  /// the destructor. After Stop() the manager routes nothing.
  void Stop();

  ShardStats Stats(size_t shard) const;

 private:
  struct Shard {
    std::unique_ptr<BoundedQueue<Task>> queue;  // null without workers
    std::thread worker;
    // Owned by the thread that feeds the shard (its worker, or the engine
    // thread without workers); its counters are published through the
    // atomics below at each barrier marker.
    CloneFeed feed;
    std::atomic<int64_t> tuples_processed{0};
    std::atomic<int64_t> sps_processed{0};
    std::atomic<int64_t> epochs{0};
    std::atomic<size_t> feeding{0};  // 1 while a task is being fed
  };

  void WorkerLoop(Shard* shard);
  /// Feed one task (or handle one barrier marker) on the calling thread.
  void RunTask(Shard* shard, Task task);
  /// Queue one task for the shard's worker.
  void Push(Shard* shard, Task task);

  bool threaded_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  size_t barrier_remaining_ = 0;

  // Routing faults, recorded on the engine thread by RouteBatch.
  std::vector<FaultRecord> route_faults_;

  bool stopped_ = false;
};

}  // namespace spstream

// ShardManager — the engine's worker-shard pool for intra-query
// parallelism (EngineOptions::num_shards > 1).
//
// N worker threads, each owning one bounded MPSC queue (stream/
// element_queue.h). The engine's Run() thread routes an epoch's admitted
// elements: tuples hash-partitioned by their leaf's shard key, security
// punctuations broadcast to every shard so each clone's PolicyTracker
// converges to the same policy state. Hand-off units are micro-batches
// (ElementBatch, sized by EngineOptions::batch_size): a worker drains its
// queue and feeds each batch whole into the PushSource of the target
// pipeline clone — synchronous pipelined execution inside the shard, exactly
// like the single-threaded path.
//
// Epoch barrier: CompleteEpoch() flushes the routing buffers, enqueues one
// barrier marker per shard, and blocks until every worker has acknowledged
// it — i.e. fully drained its share of the epoch. Only then does the engine
// read the per-shard sinks (no lock needed: workers are provably idle for
// this epoch's data) and only after Run() returns can the service layer
// MarkEpochComplete(), so a client's WaitEpoch() still implies its results
// exist. Workers stay parked between epochs; they are joined by Stop() or
// the destructor.
//
// Thread-safety contract for the code running on worker threads: operators
// touch only their own pipeline's state plus the ExecContext catalogs
// (read-only during Run) and the MetricsRegistry/AuditLog (internally
// locked). The tsan-engine CI job runs the shard suites under
// ThreadSanitizer to keep this contract honest.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/operator.h"
#include "stream/element_queue.h"

namespace spstream {

class ShardManager {
 public:
  /// \brief One routed unit of work: a micro-batch of elements for one
  /// pipeline source, fed by the shard's worker in one FeedBatch call. A
  /// null `src` is the epoch barrier marker; `batch` is ignored for markers.
  struct Task {
    PushSource* src = nullptr;
    ElementBatch batch;
  };

  /// \brief Live counters of one shard.
  struct ShardStats {
    int64_t tuples_processed = 0;
    int64_t sps_processed = 0;
    int64_t epochs = 0;
    size_t queue_depth = 0;
    size_t queue_peak = 0;
  };

  /// \brief One fault observed between two epoch barriers — an injected
  /// failure (SP_FAULT_FIRED site), an operator exception, or a routing
  /// push that failed. The engine drains these after CompleteEpoch() and
  /// quarantines the query the epoch belonged to.
  struct FaultRecord {
    size_t shard = 0;
    std::string site;    ///< fault-site name or "exec.exception"
    std::string detail;  ///< free-form context (what was dropped, why)
  };

  explicit ShardManager(size_t num_shards, size_t queue_capacity = 4096,
                        size_t route_batch = 256);
  ~ShardManager();

  ShardManager(const ShardManager&) = delete;
  ShardManager& operator=(const ShardManager&) = delete;

  size_t num_shards() const { return shards_.size(); }

  /// \brief Enqueue a micro-batch for `shard`, fed whole into `src` by that
  /// shard's worker (one FeedBatch call). Per-shard ordering is the routing
  /// order of the batches. Call only from the engine's Run() thread.
  void RouteBatch(size_t shard, PushSource* src, ElementBatch batch);

  /// \brief Epoch barrier: flush all routing buffers, then block until
  /// every shard has processed everything routed so far. After this
  /// returns, the per-shard pipelines are quiescent and their sinks safe to
  /// read from the calling thread.
  void CompleteEpoch();

  /// \brief Drain the faults recorded since the previous drain. Call right
  /// after CompleteEpoch(): the engine routes + barriers one query at a
  /// time, so everything drained here is attributable to that query. A
  /// worker that faults stops feeding its pipeline until the next barrier
  /// marker (fail closed: a clone whose policy state may have diverged must
  /// not keep emitting), so the faulted epoch's partial output is discarded
  /// by the caller, never delivered.
  std::vector<FaultRecord> TakeEpochFaults();

  /// \brief Close all queues and join the workers. Idempotent; also run by
  /// the destructor. After Stop() the manager routes nothing.
  void Stop();

  ShardStats Stats(size_t shard) const;

 private:
  struct Shard {
    size_t index = 0;
    std::unique_ptr<BoundedQueue<Task>> queue;
    std::thread worker;
    std::vector<Task> route_buffer;  // engine-thread staging for hand-off
    std::atomic<int64_t> tuples_processed{0};
    std::atomic<int64_t> sps_processed{0};
    std::atomic<int64_t> epochs{0};
  };

  void WorkerLoop(Shard* shard);
  void FlushBuffer(Shard* shard);
  void RecordFault(size_t shard, std::string site, std::string detail);

  const size_t route_batch_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  size_t barrier_remaining_ = 0;

  std::mutex faults_mu_;
  std::vector<FaultRecord> epoch_faults_;

  bool stopped_ = false;
};

}  // namespace spstream

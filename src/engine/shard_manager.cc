#include "engine/shard_manager.h"

#include <sched.h>

#include <exception>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace spstream {

namespace {

// CPUs the calling thread may run on. A process confined to one CPU (the
// benchmark driver pins itself; so does `taskset -c 0`) gains nothing from
// worker threads: they could only take turns with the engine thread.
size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();  // more CPUs than cpu_set_t
}

}  // namespace

void CloneFeed::Feed(PushSource* src, ElementBatch batch) {
  // A clone that missed elements may hold diverged policy/window state —
  // letting it keep emitting could leak a tuple past the policy the fault
  // interrupted, so it goes dark for the rest of the epoch and the engine
  // quarantines the group.
  if (poisoned) return;
  // The injection check stays per *element* (one RNG draw each) so a fault
  // seed fires after the same number of draws as per-element hand-off. A
  // fault anywhere in the batch drops the WHOLE batch — feeding a prefix
  // would leave this clone's policy/window state diverged mid-run, so
  // nothing from a faulted batch reaches the pipeline (fail closed).
  for (size_t i = 0; i < batch.size(); ++i) {
    if (SP_FAULT_FIRED(fault::kOperatorProcess)) {
      poisoned = true;
      faults.push_back({index, fault::kOperatorProcess,
                        "injected fault; the clone dropped the rest of the "
                        "epoch"});
      return;
    }
  }
  // None of this decays a columnar batch to rows: the pipeline's columnar
  // kernels get the batch as handed over.
  const int64_t tuples_before = tuples;
  batch.CountLive(&tuples, &sps);
  const int64_t batch_tuples = tuples - tuples_before;
  Timestamp traced_sp_ts = -1;
  auto sample = [&](const StreamElement& e) {
    if (traced_sp_ts < 0 && e.is_sp() &&
        Tracer::Global().SampleSpBatch(e.ts())) {
      traced_sp_ts = e.ts();
    }
  };
  if (batch.is_columnar()) {
    for (const ElementBatch::Special& s : batch.specials()) sample(s.elem);
  } else {
    for (const StreamElement& e : batch.elements()) sample(e);
  }
  // A batch carrying a sampled sp is part of that sp-batch's lifecycle (its
  // PushBatch/SS spans join the batch trace, which is how "which shard
  // converged last" becomes visible); plain batches attach to the engine's
  // current epoch trace.
  ScopedTraceContext batch_trace(traced_sp_ts >= 0
                                     ? SpBatchTraceId(traced_sp_ts)
                                     : Tracer::Global().epoch_trace());
  TraceSpan feed_span(TraceCat::kShard, "shard.feed", Tracer::CurrentTrace(),
                      static_cast<int64_t>(batch.size()),
                      static_cast<int64_t>(index));
  const int64_t t0 = NowNanos();
  try {
    src->FeedBatch(std::move(batch));
  } catch (const std::exception& ex) {
    poisoned = true;
    faults.push_back(
        {index, "exec.exception", std::string("operator threw: ") + ex.what()});
  } catch (...) {
    poisoned = true;
    faults.push_back(
        {index, "exec.exception", "operator threw a non-std exception"});
  }
  // Feeding is synchronous pipelined execution, so the batch's wall time is
  // every member tuple's source→sink latency.
  const int64_t wall = NowNanos() - t0;
  for (int64_t k = 0; k < batch_tuples; ++k) tuple_latency.Record(wall);
}

std::vector<FaultRecord> CloneFeed::TakeEpoch(Histogram* latency) {
  latency->Merge(tuple_latency);
  tuple_latency.Reset();
  poisoned = false;
  std::vector<FaultRecord> out;
  out.swap(faults);
  return out;
}

ShardManager::ShardManager(size_t num_shards, size_t queue_capacity)
    : threaded_(UsableCpus() >= 2) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->feed.index = i;
    if (threaded_) {
      shard->queue = std::make_unique<BoundedQueue<Task>>(queue_capacity);
    }
    shards_.push_back(std::move(shard));
  }
  if (!threaded_) return;
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->worker = std::thread([this, s] { WorkerLoop(s); });
  }
}

ShardManager::~ShardManager() { Stop(); }

void ShardManager::WorkerLoop(Shard* shard) {
  std::vector<Task> batch;
  while (shard->queue->DrainInto(&batch)) {
    for (Task& task : batch) RunTask(shard, std::move(task));
  }
  shard->tuples_processed.store(shard->feed.tuples, std::memory_order_relaxed);
  shard->sps_processed.store(shard->feed.sps, std::memory_order_relaxed);
}

void ShardManager::RunTask(Shard* shard, Task task) {
  if (task.src == nullptr) {
    // Epoch barrier: everything routed before the marker has been fed.
    // Publish the counters once per epoch (cheaper than per element, and
    // the engine only reads them at epoch boundaries anyway).
    shard->tuples_processed.store(shard->feed.tuples,
                                  std::memory_order_relaxed);
    shard->sps_processed.store(shard->feed.sps, std::memory_order_relaxed);
    shard->epochs.fetch_add(1, std::memory_order_relaxed);
    if (threaded_) {
      {
        std::lock_guard<std::mutex> lock(barrier_mu_);
        --barrier_remaining_;
      }
      barrier_cv_.notify_one();
    }
    return;
  }
  shard->feeding.store(1, std::memory_order_relaxed);
  shard->feed.Feed(task.src, std::move(task.batch));
  shard->feeding.store(0, std::memory_order_relaxed);
}

void ShardManager::Push(Shard* shard, Task task) {
  // Queue-wait span: Push blocks while the shard's queue is full, so this
  // span's duration IS the backpressure the slowest shard exerts on the
  // routing (engine) thread.
  TraceSpan wait_span(TraceCat::kShard, "shard.queue_wait",
                      Tracer::Global().epoch_trace(),
                      static_cast<int64_t>(task.batch.size()),
                      static_cast<int64_t>(shard->feed.index));
  // Cancelled means the queue closed under us (engine stopping): the task
  // is dropped — shutdown teardown, not data loss.
  (void)shard->queue->Push(std::move(task));
}

void ShardManager::RouteBatch(size_t shard_idx, PushSource* src,
                              ElementBatch batch) {
  if (batch.empty() || stopped_) return;
  Shard* shard = shards_[shard_idx].get();
  if (SP_FAULT_FIRED(fault::kShardQueuePush)) {
    // The batch never reaches the shard: fail closed by dropping it (the
    // engine discards the epoch and quarantines the query). Barrier markers
    // never pass through here, so the barrier cannot hang on a drop.
    route_faults_.push_back({shard_idx, fault::kShardQueuePush,
                             "injected routing fault; dropped " +
                                 std::to_string(batch.size()) +
                                 " element(s)"});
    return;
  }
  Task task{src, std::move(batch)};
  if (threaded_) {
    Push(shard, std::move(task));
  } else {
    RunTask(shard, std::move(task));
  }
}

void ShardManager::CompleteEpoch() {
  if (stopped_) return;
  // Barrier span: hand off the markers and wait until every worker
  // acknowledged its own — the tail of this span is the time spent waiting
  // for the slowest shard.
  TraceSpan barrier_span(TraceCat::kShard, "shard.barrier",
                         Tracer::Global().epoch_trace(),
                         static_cast<int64_t>(shards_.size()));
  if (!threaded_) {
    // Every batch was fed while it was routed; only the markers are left.
    for (auto& shard : shards_) RunTask(shard.get(), Task{});
    return;
  }
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    barrier_remaining_ = shards_.size();
  }
  for (auto& shard : shards_) Push(shard.get(), Task{});
  std::unique_lock<std::mutex> lock(barrier_mu_);
  barrier_cv_.wait(lock, [&] { return barrier_remaining_ == 0; });
}

std::vector<FaultRecord> ShardManager::TakeEpoch(Histogram* latency) {
  std::vector<FaultRecord> out;
  out.swap(route_faults_);
  for (auto& shard : shards_) {
    for (FaultRecord& f : shard->feed.TakeEpoch(latency)) {
      out.push_back(std::move(f));
    }
  }
  return out;
}

void ShardManager::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (!threaded_) return;
  for (auto& shard : shards_) {
    shard->queue->Close();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

ShardManager::ShardStats ShardManager::Stats(size_t shard_idx) const {
  const Shard* shard = shards_[shard_idx].get();
  ShardStats stats;
  stats.tuples_processed =
      shard->tuples_processed.load(std::memory_order_relaxed);
  stats.sps_processed = shard->sps_processed.load(std::memory_order_relaxed);
  stats.epochs = shard->epochs.load(std::memory_order_relaxed);
  stats.queue_depth = shard->feeding.load(std::memory_order_relaxed);
  if (shard->queue) {
    stats.queue_depth += shard->queue->size();
    stats.queue_peak = shard->queue->peak_size();
  }
  return stats;
}

}  // namespace spstream

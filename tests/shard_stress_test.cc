// Concurrency stress suite for the sharded execution engine — designed to
// run under ThreadSanitizer (the tsan-engine CI job) to enforce the
// thread-safety contract documented in engine/shard_manager.h: workers touch
// only their own pipeline clone plus internally-locked shared services.
//
// Covers the BoundedQueue hand-off primitive (multi-producer integrity,
// backpressure blocking, close semantics), the ShardManager epoch barrier
// under load, a full sharded engine hammered across many epochs with a
// deliberately tiny queue capacity (constant backpressure), concurrent
// metrics/audit polling from a second thread, and run-to-run determinism of
// the (shard id, arrival order) merge.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "engine/overload.h"
#include "engine/shard_manager.h"
#include "stream/element_queue.h"
#include "test_util.h"

namespace spstream {
namespace {

// ---- BoundedQueue -----------------------------------------------------

TEST(BoundedQueueStress, MultiProducerIntegrity) {
  BoundedQueue<int64_t> queue(/*capacity=*/64);
  constexpr int kProducers = 4;
  constexpr int64_t kPerProducer = 20000;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      std::vector<int64_t> batch;
      for (int64_t i = 0; i < kPerProducer; ++i) {
        const int64_t v = p * kPerProducer + i;
        if (i % 3 == 0) {
          ASSERT_TRUE(queue.Push(v).ok());
        } else {
          batch.push_back(v);
          if (batch.size() >= 16) {
            ASSERT_TRUE(queue.PushBatch(&batch).ok());
          }
        }
      }
      if (!batch.empty()) {
        ASSERT_TRUE(queue.PushBatch(&batch).ok());
      }
    });
  }

  int64_t count = 0, sum = 0;
  std::thread consumer([&] {
    std::vector<int64_t> drained;
    while (queue.DrainInto(&drained)) {
      count += static_cast<int64_t>(drained.size());
      for (int64_t v : drained) sum += v;
    }
  });

  for (auto& t : producers) t.join();
  queue.Close();
  consumer.join();

  const int64_t n = kProducers * kPerProducer;
  EXPECT_EQ(count, n);
  EXPECT_EQ(sum, n * (n - 1) / 2);
  EXPECT_GE(queue.peak_size(), 1u);
}

TEST(BoundedQueueStress, BackpressureBlocksUntilDrained) {
  BoundedQueue<int> queue(/*capacity=*/2);
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(queue.Push(i).ok());
      pushed.fetch_add(1);
    }
  });
  // The producer cannot run far ahead of the consumer: each drain frees at
  // most `capacity` slots (plus one batch overshoot), so pushed progress is
  // bounded by what we have consumed.
  int consumed = 0;
  std::vector<int> drained;
  while (consumed < 100) {
    ASSERT_TRUE(queue.DrainInto(&drained));
    consumed += static_cast<int>(drained.size());
    EXPECT_LE(pushed.load(), consumed + 3);
  }
  producer.join();
  EXPECT_EQ(consumed, 100);
}

TEST(BoundedQueueStress, CloseWakesBlockedProducerAndConsumer) {
  BoundedQueue<int> full(/*capacity=*/1);
  ASSERT_TRUE(full.Push(1).ok());
  std::thread blocked_producer([&] {
    // Blocks on full, then fails on close — with the distinct Cancelled
    // code so callers can tell shutdown from data loss.
    Status st = full.Push(2);
    EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  });
  BoundedQueue<int> empty(/*capacity=*/1);
  std::thread blocked_consumer([&] {
    std::vector<int> out;
    EXPECT_FALSE(empty.DrainInto(&out));  // blocks on empty, fails on close
  });
  full.Close();
  empty.Close();
  blocked_producer.join();
  blocked_consumer.join();
  // Closed queue still drains its remaining items exactly once.
  std::vector<int> out;
  EXPECT_TRUE(full.DrainInto(&out));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_FALSE(full.DrainInto(&out));
}

TEST(BoundedQueueStress, PushAfterCloseReturnsCancelled) {
  BoundedQueue<int> queue(/*capacity=*/4);
  ASSERT_TRUE(queue.Push(1).ok());
  queue.Close();
  // Non-blocking rejection: the queue has capacity, it is just closed.
  Status push = queue.Push(2);
  EXPECT_EQ(push.code(), StatusCode::kCancelled) << push.ToString();
  std::vector<int> batch = {3, 4};
  Status push_batch = queue.PushBatch(&batch);
  EXPECT_EQ(push_batch.code(), StatusCode::kCancelled) << push_batch.ToString();
  // The rejected batch is untouched (caller may reroute it)...
  EXPECT_EQ(batch.size(), 2u);
  // ...and only the pre-close element ever comes out.
  std::vector<int> out;
  EXPECT_TRUE(queue.DrainInto(&out));
  EXPECT_EQ(out, std::vector<int>({1}));
}

// ---- ShardManager ------------------------------------------------------

// Routes 50 epochs through 4 shards and checks the barrier after each. With
// `one_cpu` the manager is built pinned to one CPU, so it starts no worker
// and the calling thread feeds every shard.
void CheckBarrierDrainsEveryShard(bool one_cpu) {
  RoleCatalog roles;
  StreamCatalog streams;
  MetricsRegistry metrics;
  ExecContext ctx{&roles, &streams, &metrics, nullptr};

  constexpr size_t kShards = 4;
  std::vector<std::unique_ptr<Pipeline>> pipelines;
  std::vector<PushSource*> sources;
  std::vector<CollectorSink*> sinks;
  for (size_t s = 0; s < kShards; ++s) {
    auto p = std::make_unique<Pipeline>(&ctx);
    auto* src = p->Add<PushSource>();
    auto* sink = p->Add<CollectorSink>();
    src->AddOutput(sink);
    sources.push_back(src);
    sinks.push_back(sink);
    pipelines.push_back(std::move(p));
  }

  std::optional<sptest::ScopedSingleCpu> pin;
  if (one_cpu) pin.emplace();
  ShardManager manager(kShards, /*queue_capacity=*/32);
  if (one_cpu) {
    ASSERT_EQ(manager.num_workers(), 0u);
  }
  constexpr size_t kEpochs = 50;
  constexpr size_t kPerShardPerEpoch = 500;
  for (size_t e = 0; e < kEpochs; ++e) {
    for (size_t i = 0; i < kPerShardPerEpoch; ++i) {
      for (size_t s = 0; s < kShards; ++s) {
        manager.RouteBatch(
            s, sources[s],
            ElementBatch({StreamElement(sptest::MakeTuple(
                static_cast<TupleId>(e * kPerShardPerEpoch + i),
                {static_cast<int64_t>(s)}, static_cast<Timestamp>(i + 1)))}));
      }
    }
    manager.CompleteEpoch();
    // After the barrier the workers are quiescent for this epoch's data:
    // every sink holds exactly its share, readable without synchronization.
    for (size_t s = 0; s < kShards; ++s) {
      ASSERT_EQ(sinks[s]->TakeTuples().size(), kPerShardPerEpoch)
          << "epoch " << e << " shard " << s;
    }
  }
  for (size_t s = 0; s < kShards; ++s) {
    const ShardManager::ShardStats stats = manager.Stats(s);
    EXPECT_EQ(stats.tuples_processed,
              static_cast<int64_t>(kEpochs * kPerShardPerEpoch));
    EXPECT_EQ(stats.epochs, static_cast<int64_t>(kEpochs));
    EXPECT_EQ(stats.queue_depth, 0u);
    // Only a worker has a hand-off queue; the engine thread feeds at once.
    if (manager.num_workers() > 0) {
      EXPECT_GE(stats.queue_peak, 1u);
    } else {
      EXPECT_EQ(stats.queue_peak, 0u);
    }
  }
  manager.Stop();
  manager.Stop();  // idempotent
}

TEST(ShardManagerStress, BarrierDrainsEveryShardEachEpoch) {
  CheckBarrierDrainsEveryShard(/*one_cpu=*/false);
}

TEST(ShardManagerStress, BarrierDrainsEveryShardEachEpochOnOneCpu) {
  CheckBarrierDrainsEveryShard(/*one_cpu=*/true);
}

// Forwards every element, calling `on_element` first — a hook into the
// middle of a shard's task.
class ProbeOp : public Operator {
 public:
  explicit ProbeOp(ExecContext* ctx) : Operator(ctx, "probe") {}
  std::function<void()> on_element;

 protected:
  void Process(StreamElement&& elem, int) override {
    if (on_element) on_element();
    Emit(std::move(elem));
  }
};

// queue_depth counts the task being fed, so the Watchdog (which reads 0 as
// idle) can see a shard that is stuck inside a task. Without workers the
// engine thread runs the task inside RouteBatch and the depth is exactly 1.
TEST(ShardManagerStress, QueueDepthCountsTheTaskBeingFed) {
  for (const bool one_cpu : {false, true}) {
    RoleCatalog roles;
    StreamCatalog streams;
    MetricsRegistry metrics;
    ExecContext ctx{&roles, &streams, &metrics, nullptr};
    Pipeline pipeline(&ctx);
    auto* src = pipeline.Add<PushSource>();
    auto* probe = pipeline.Add<ProbeOp>();
    auto* sink = pipeline.Add<CollectorSink>();
    src->AddOutput(probe);
    probe->AddOutput(sink);

    std::optional<sptest::ScopedSingleCpu> pin;
    if (one_cpu) pin.emplace();
    ShardManager manager(/*num_shards=*/2);
    if (one_cpu) {
      ASSERT_EQ(manager.num_workers(), 0u);
    }
    std::atomic<size_t> depth_inside{0};
    probe->on_element = [&] {
      depth_inside.store(manager.Stats(1).queue_depth);
    };
    manager.RouteBatch(1, src,
                       ElementBatch({StreamElement(sptest::MakeTuple(
                           0, {1}, /*ts=*/1))}));
    if (manager.num_workers() == 0) {
      // Fed before RouteBatch returned, on this thread.
      EXPECT_EQ(sink->Tuples().size(), 1u);
      EXPECT_EQ(depth_inside.load(), 1u);
    }
    manager.CompleteEpoch();
    EXPECT_GE(depth_inside.load(), 1u) << "one_cpu=" << one_cpu;
    EXPECT_EQ(manager.Stats(1).queue_depth, 0u);
    EXPECT_EQ(manager.Stats(1).tuples_processed, 1);
    EXPECT_EQ(sink->Tuples().size(), 1u);
    manager.Stop();
  }
}

// A shard wedged inside a task on the engine thread still shows work
// pending and no progress, so the Watchdog thread flags it.
TEST(ShardManagerStress, WatchdogFlagsAShardWedgedOnTheEngineThread) {
  RoleCatalog roles;
  StreamCatalog streams;
  MetricsRegistry metrics;
  ExecContext ctx{&roles, &streams, &metrics, nullptr};
  Pipeline pipeline(&ctx);
  auto* src = pipeline.Add<PushSource>();
  auto* probe = pipeline.Add<ProbeOp>();
  src->AddOutput(probe);

  sptest::ScopedSingleCpu pin;
  ASSERT_TRUE(pin.pinned());
  ShardManager manager(/*num_shards=*/2);
  ASSERT_EQ(manager.num_workers(), 0u);
  OverloadOptions wopts;
  wopts.watchdog_poll_ms = 5;
  wopts.wedge_timeout_ms = 20;
  Watchdog watchdog(
      wopts,
      [&] {
        std::vector<ShardProgressSample> out;
        for (size_t i = 0; i < manager.num_shards(); ++i) {
          const ShardManager::ShardStats s = manager.Stats(i);
          out.push_back({s.tuples_processed + s.sps_processed + s.epochs,
                         s.queue_depth});
        }
        return out;
      },
      &metrics);
  watchdog.Start();
  // The "wedge": the task does not return until the watchdog has flagged
  // it (bounded, so a regression fails instead of hanging).
  probe->on_element = [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (watchdog.wedges_detected() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  manager.RouteBatch(0, src,
                     ElementBatch({StreamElement(sptest::MakeTuple(
                         0, {1}, /*ts=*/1))}));
  EXPECT_EQ(watchdog.wedges_detected(), 1);
  watchdog.Stop();
  manager.CompleteEpoch();
  manager.Stop();
}

TEST(ShardManagerStress, WorkerHandsColumnarBatchesOverWithoutDecay) {
  RoleCatalog roles;
  StreamCatalog streams;
  MetricsRegistry metrics;
  ExecContext ctx{&roles, &streams, &metrics, nullptr};
  Pipeline pipeline(&ctx);
  auto* src = pipeline.Add<PushSource>();
  auto* sink = pipeline.Add<CollectorSink>();
  src->AddOutput(sink);

  ElementBatch batch;
  batch.BeginColumnar();
  batch.push_back(StreamElement(sptest::MakeSp("A", {0}, 1)));
  for (TupleId i = 0; i < 16; ++i) {
    batch.push_back(StreamElement(sptest::MakeTuple(
        i, {static_cast<int64_t>(i)}, static_cast<Timestamp>(2 + i))));
  }
  ASSERT_TRUE(batch.is_columnar());

  ShardManager manager(/*num_shards=*/1);
  manager.RouteBatch(0, src, std::move(batch));
  manager.CompleteEpoch();
  EXPECT_TRUE(manager.TakeEpochFaults().empty());
  // The worker counts and samples the batch in place: the sink receives it
  // as one columnar chunk, not a decayed row batch.
  EXPECT_GT(sink->columnar_chunks(), 0u);
  EXPECT_EQ(sink->Tuples().size(), 16u);
  EXPECT_EQ(sink->Sps().size(), 1u);
  const ShardManager::ShardStats stats = manager.Stats(0);
  EXPECT_EQ(stats.tuples_processed, 16);
  EXPECT_EQ(stats.sps_processed, 1);
  manager.Stop();
}

// ---- Full engine under load --------------------------------------------

std::vector<std::string> RunShardedWorkload(uint64_t seed,
                                            size_t num_shards,
                                            size_t queue_capacity) {
  EngineOptions opts;
  opts.num_shards = num_shards;
  opts.shard_queue_capacity = queue_capacity;
  SpStreamEngine engine(std::move(opts));
  for (int r = 0; r < 4; ++r) engine.RegisterRole("R" + std::to_string(r));
  EXPECT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "A", {Field{"k", ValueType::kInt64},
                            Field{"v", ValueType::kInt64}}))
                  .ok());
  EXPECT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "B", {Field{"k", ValueType::kInt64},
                            Field{"u", ValueType::kInt64}}))
                  .ok());
  EXPECT_TRUE(engine.RegisterSubject("alice", {"R0", "R1"}).ok());
  auto q1 = engine.RegisterQuery("alice", "SELECT k, v FROM A");
  auto q2 = engine.RegisterQuery(
      "alice", "SELECT A.v FROM A [RANGE 64], B [RANGE 64] WHERE A.k = B.k");
  auto q3 = engine.RegisterQuery("alice",
                                 "SELECT k, COUNT(*) FROM A [RANGE 64] "
                                 "GROUP BY k");
  EXPECT_TRUE(q1.ok() && q2.ok() && q3.ok());

  // Concurrent observers: the registry and audit log are the two shared
  // services workers write through; hammer their read paths while epochs
  // run on this thread.
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      (void)engine.metrics()->Snapshot();
      (void)engine.audit()->total();
      std::this_thread::yield();
    }
  });

  Rng rng(seed);
  Timestamp ts = 1;
  TupleId tid = 0;
  for (int epoch = 0; epoch < 12; ++epoch) {
    std::vector<StreamElement> a, b;
    a.emplace_back(
        sptest::MakeSp("A", {static_cast<RoleId>(rng.NextBounded(4)), 0},
                       ts));
    b.emplace_back(
        sptest::MakeSp("B", {static_cast<RoleId>(rng.NextBounded(4)), 1},
                       ts));
    for (int i = 0; i < 800; ++i) {
      const int64_t k = static_cast<int64_t>(rng.NextBounded(16));
      const int64_t v = static_cast<int64_t>(rng.NextBounded(1000));
      a.emplace_back(sptest::MakeTuple(tid++, {k, v}, ts));
      if (i % 4 == 0) {
        b.emplace_back(sptest::MakeTuple(tid++, {k, v % 50}, ts));
      }
      if (i % 100 == 99) {
        a.emplace_back(sptest::MakeSp(
            "A", {static_cast<RoleId>(rng.NextBounded(4))}, ts));
      }
      ts += 1;
    }
    EXPECT_TRUE(engine.Push("A", std::move(a)).ok());
    EXPECT_TRUE(engine.Push("B", std::move(b)).ok());
    EXPECT_TRUE(engine.Run().ok());
  }
  stop.store(true);
  poller.join();

  std::vector<std::string> out;
  for (QueryId q : {*q1, *q2, *q3}) {
    auto results = engine.TakeResults(q);
    EXPECT_TRUE(results.ok());
    for (const Tuple& t : *results) out.push_back(t.ToString());
    out.push_back("--");
  }
  return out;
}

TEST(ShardStressTest, ManyEpochsUnderBackpressureWithConcurrentObservers) {
  // Tiny queue capacity keeps the router blocking on backpressure for most
  // of the run — the regime where queue/barrier bugs live.
  const std::vector<std::string> results =
      RunShardedWorkload(/*seed=*/7, /*num_shards=*/4, /*queue_capacity=*/16);
  EXPECT_GT(results.size(), 3u);  // at least the per-query separators
}

TEST(ShardStressTest, ShardedRunsAreDeterministic) {
  // The (shard id, arrival order) merge makes sharded output an exact
  // SEQUENCE, not just a multiset: two runs with the same seed must agree
  // element-for-element even though worker interleavings differ.
  const std::vector<std::string> run1 =
      RunShardedWorkload(/*seed=*/21, /*num_shards=*/3, /*queue_capacity=*/64);
  const std::vector<std::string> run2 =
      RunShardedWorkload(/*seed=*/21, /*num_shards=*/3, /*queue_capacity=*/8);
  EXPECT_EQ(run1, run2);
}

TEST(ShardStressTest, OneCpuRunMatchesThreadedSequence) {
  // The thread that feeds a clone changes nothing downstream: without
  // workers the merged sequence is the same element for element.
  const std::vector<std::string> threaded =
      RunShardedWorkload(/*seed=*/21, /*num_shards=*/3, /*queue_capacity=*/64);
  sptest::ScopedSingleCpu pin;
  ASSERT_TRUE(pin.pinned());
  const std::vector<std::string> inline_fed =
      RunShardedWorkload(/*seed=*/21, /*num_shards=*/3, /*queue_capacity=*/64);
  EXPECT_EQ(threaded, inline_fed);
}

TEST(ShardStressTest, EngineTeardownWithLiveShardsIsClean) {
  // Destruction order: the ShardManager joins its workers before the
  // pipelines they feed are destroyed. Tear down immediately after routing
  // work through the shards.
  for (int i = 0; i < 10; ++i) {
    EngineOptions opts;
    opts.num_shards = 4;
    SpStreamEngine engine(std::move(opts));
    engine.RegisterRole("R0");
    ASSERT_TRUE(engine
                    .RegisterStream(MakeSchema(
                        "A", {Field{"k", ValueType::kInt64}}))
                    .ok());
    ASSERT_TRUE(engine.RegisterSubject("alice", {"R0"}).ok());
    auto q = engine.RegisterQuery("alice", "SELECT k FROM A");
    ASSERT_TRUE(q.ok());
    std::vector<StreamElement> elems;
    elems.emplace_back(sptest::MakeSp("A", {0}, 1));
    for (TupleId t = 0; t < 256; ++t) {
      elems.emplace_back(sptest::MakeTuple(t, {static_cast<int64_t>(t)},
                                           static_cast<Timestamp>(t + 2)));
    }
    ASSERT_TRUE(engine.Push("A", std::move(elems)).ok());
    ASSERT_TRUE(engine.Run().ok());
    EXPECT_EQ(engine.Results(*q)->size(), 256u);
    // Engine destructor runs here with parked-but-live workers.
  }
}

}  // namespace
}  // namespace spstream

// Push-based pipelined operator framework (the CAPE-substitute execution
// model of §IV): operators form a DAG, elements are pushed downstream as
// soon as they are produced, and every operator tracks its own cost/memory
// metrics for the benchmark harness.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "stream/element_batch.h"
#include "stream/stream_element.h"

namespace spstream {

/// \brief Base class of all physical operators.
class Operator {
 public:
  Operator(ExecContext* ctx, std::string label, int num_inputs = 1)
      : ctx_(ctx), label_(std::move(label)), num_inputs_(num_inputs) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// \brief Wire `downstream` to receive this operator's output on
  /// `downstream_port`. Fan-out (several downstreams) is supported —
  /// elements are copied per edge; fan-in must go through distinct ports of
  /// a multi-input operator (e.g. UnionOp), never two parents on one port.
  void AddOutput(Operator* downstream, int downstream_port = 0) {
    outputs_.push_back(Edge{downstream, downstream_port});
  }

  /// \brief Push one element into input `port`. End-of-stream controls are
  /// routed to OnPortFinished and propagate downstream once *all* ports have
  /// finished.
  void Push(StreamElement elem, int port = 0);

  /// \brief Push a micro-batch into input `port`. Everything the operator
  /// emits while processing the batch is collected and forwarded downstream
  /// as one batch, so batching survives the whole DAG without any operator
  /// opting in. Per-edge output order is identical to pushing the elements
  /// one by one (the batch-equivalence contract).
  void PushBatch(ElementBatch batch, int port = 0);

  const std::string& label() const { return label_; }
  int num_inputs() const { return num_inputs_; }
  const OperatorMetrics& metrics() const { return metrics_; }
  OperatorMetrics& mutable_metrics() { return metrics_; }
  ExecContext* ctx() const { return ctx_; }

  /// \brief Query this operator executes for ("q0", ...), used to scope
  /// audit events and registry keys. Set by the engine after plan build;
  /// empty for raw pipelines.
  const std::string& query_tag() const { return query_tag_; }
  void set_query_tag(std::string tag) { query_tag_ = std::move(tag); }

  /// \brief The engine's audit log, or nullptr when not wired up.
  AuditLog* audit() const { return ctx_->audit; }

  // ---- durable state (docs/DURABILITY.md) --------------------------------
  // Stateful operators (windows, group-by, distinct, the Security Shield's
  // tracker) participate in incremental checkpointing. The engine calls
  // CheckpointState at epoch barriers, OnCheckpointDurable once the epoch's
  // commit protocol finished (the delta reached the manifest), and
  // RestoreState during recovery with each delta blob of the chain, oldest
  // first. CheckpointState must NOT advance the operator's dirty cursor —
  // only OnCheckpointDurable does, so a failed commit re-covers the same
  // interval in the next delta (exactly-once over the blob chain).

  /// \brief True for operators that carry state across epochs.
  virtual bool HasDurableState() const { return false; }

  /// \brief Serialize state changed since the last durable checkpoint into
  /// `out` (appended). `full` forces a complete snapshot (rebase). Leaving
  /// `out` empty means "nothing changed" and elides the delta entry.
  virtual void CheckpointState(std::string* out, bool full) {
    (void)out;
    (void)full;
  }

  /// \brief The delta produced by the last CheckpointState is durable:
  /// advance the dirty cursor.
  virtual void OnCheckpointDurable() {}

  /// \brief Apply one delta blob (in chain order). Policy trackers restore
  /// FAIL-CLOSED: deny-all at the recovered batch ts until a newer sp-batch
  /// re-converges.
  virtual Status RestoreState(std::string_view blob) {
    (void)blob;
    return Status::OK();
  }

  /// \brief The whole chain has been applied; rebuild derived structures
  /// (indexes, memo state) and refresh metrics.
  virtual void OnRestoreComplete() {}

 protected:
  /// \brief Operator-specific processing of a non-EOS element.
  virtual void Process(StreamElement elem, int port) = 0;

  /// \brief Operator-specific processing of a batch with no EOS element.
  /// The default loops Process, so every operator is batch-transparent;
  /// hot operators override it with a kernel that dispatches once per
  /// batch (one timer, no per-element virtual call) — and must produce the
  /// exact output sequence the per-element loop would.
  virtual void ProcessBatch(ElementBatch& batch, int port);

  /// \brief Columnar kernel hook, tried by PushBatch for columnar non-EOS
  /// batches before the collect-mode row path. An override either returns
  /// false WITHOUT side effects (PushBatch falls back to ProcessBatch,
  /// which decays the batch to rows) or fully consumes `batch`, builds the
  /// complete output batch in `*out` — columnar where possible, so results
  /// are never re-wrapped element by element — and returns true. Output
  /// must be sequence-identical to the per-element path.
  virtual bool ProcessColumnar(ElementBatch& batch, ElementBatch* out,
                               int port) {
    (void)batch;
    (void)out;
    (void)port;
    return false;
  }

  /// \brief Called when a port sees end-of-stream. Default: nothing.
  virtual void OnPortFinished(int port) { (void)port; }

  /// \brief Called once, after every input port has finished, before EOS
  /// propagates. Stateful operators flush pending results here.
  virtual void OnAllFinished() {}

  /// \brief Send an element to all downstream operators. While a batch is
  /// being processed this appends to the collect buffer instead (forwarded
  /// as one batch when the input batch completes).
  void Emit(StreamElement elem);

  /// \brief Send a batch to all downstream operators (copy for the first
  /// N-1 fan-out edges, move into the last — the batch analogue of Emit).
  void ForwardBatch(ElementBatch batch);
  void EmitTuple(Tuple t) {
    ++metrics_.tuples_out;
    Emit(StreamElement(std::move(t)));
  }
  void EmitSp(SecurityPunctuation sp) {
    ++metrics_.sps_out;
    Emit(StreamElement(std::move(sp)));
  }

  ExecContext* ctx_;
  OperatorMetrics metrics_;

 private:
  struct Edge {
    Operator* op;
    int port;
  };

  std::string label_;
  std::string query_tag_;
  int num_inputs_;
  int finished_ports_ = 0;
  std::vector<Edge> outputs_;
  // Non-null while PushBatch runs: Emit appends here instead of pushing
  // downstream, so one input batch becomes one output batch per edge.
  ElementBatch* collect_ = nullptr;
};

/// \brief Feeds a pre-materialized element sequence into the DAG. The
/// executor polls sources round-robin, giving pipelined interleaving across
/// streams.
class SourceOperator : public Operator {
 public:
  SourceOperator(ExecContext* ctx, std::string label,
                 std::vector<StreamElement> elements)
      : Operator(ctx, std::move(label), /*num_inputs=*/0),
        elements_(std::move(elements)) {}

  /// \brief Push up to `max_elements` downstream; returns the number pushed
  /// (0 once exhausted). Emits EOS after the last element.
  size_t Poll(size_t max_elements);

  bool exhausted() const { return eos_sent_; }

 protected:
  void Process(StreamElement, int) override {}  // sources take no input

 private:
  std::vector<StreamElement> elements_;
  size_t next_ = 0;
  bool eos_sent_ = false;
};

/// \brief Externally-fed source for long-lived (continuous) pipelines: the
/// owner pushes elements as they are admitted instead of pre-materializing
/// the stream. Never emits EOS on its own — call Finish() to end the
/// stream explicitly.
class PushSource : public Operator {
 public:
  explicit PushSource(ExecContext* ctx, std::string label = "push_src")
      : Operator(ctx, std::move(label), /*num_inputs=*/0) {}

  /// \brief Inject one element; it flows through the whole DAG before this
  /// returns (synchronous pipelined execution).
  void Feed(StreamElement elem) {
    if (elem.is_tuple()) {
      ++metrics_.tuples_in;
      ++metrics_.tuples_out;
    } else if (elem.is_sp()) {
      ++metrics_.sps_in;
      ++metrics_.sps_out;
    }
    Emit(std::move(elem));
  }

  /// \brief Inject a micro-batch; it flows through the whole DAG as a batch
  /// before this returns. Order-equivalent to Feed()ing each element.
  void FeedBatch(ElementBatch batch) {
    if (batch.empty()) return;
    ++metrics_.batches_in;
    metrics_.batch_elements_in += static_cast<int64_t>(batch.size());
    // Counts without materializing a columnar batch into rows.
    int64_t tuples = 0, sps = 0;
    batch.CountLive(&tuples, &sps);
    metrics_.tuples_in += tuples;
    metrics_.tuples_out += tuples;
    metrics_.sps_in += sps;
    metrics_.sps_out += sps;
    ForwardBatch(std::move(batch));
  }

  /// \brief Terminate the stream (propagates EOS; stateful downstream
  /// operators flush).
  void Finish() {
    if (!finished_) {
      finished_ = true;
      Emit(StreamElement::EndOfStream(kMaxTimestamp));
    }
  }

  bool finished() const { return finished_; }

 protected:
  void Process(StreamElement, int) override {}

 private:
  bool finished_ = false;
};

/// \brief Terminal operator collecting results for inspection. Results
/// arrive as row elements or whole columnar chunks; chunks stay columnar
/// until an element-level view is requested, so the engine's Tuple-only
/// result pull (TakeTuples) never materializes a StreamElement per result.
class CollectorSink : public Operator {
 public:
  explicit CollectorSink(ExecContext* ctx, std::string label = "sink")
      : Operator(ctx, std::move(label)) {}

  /// \brief Flat element view (built lazily from the chunks; chunks are
  /// left intact).
  const std::vector<StreamElement>& elements() const;

  /// \brief Only the data tuples, in arrival order.
  std::vector<Tuple> Tuples() const;
  /// \brief Only the sps, in arrival order.
  std::vector<SecurityPunctuation> Sps() const;

  /// \brief Drain: return collected tuples and clear everything (used by
  /// long-lived pipelines between result pulls).
  std::vector<Tuple> TakeTuples() {
    std::vector<Tuple> out = Tuples();
    Clear();
    return out;
  }

  void Clear() {
    chunks_.clear();
    flat_.clear();
    flat_valid_ = true;
  }

  /// \brief Chunks retained in columnar form (regression observability for
  /// the no-per-element-re-wrap contract).
  size_t columnar_chunks() const {
    size_t n = 0;
    for (const ElementBatch& c : chunks_) n += c.is_columnar() ? 1 : 0;
    return n;
  }

  /// \brief Retained bytes across all chunks.
  size_t RetainedBytes() const {
    size_t n = 0;
    for (const ElementBatch& c : chunks_) n += c.MemoryBytes();
    return n;
  }

 protected:
  void Process(StreamElement elem, int) override {
    if (elem.is_tuple()) {
      ++metrics_.tuples_in;
    } else if (elem.is_sp()) {
      ++metrics_.sps_in;
    }
    TailRowChunk().push_back(std::move(elem));
    flat_valid_ = false;
  }

  void ProcessBatch(ElementBatch& batch, int) override {
    // No reserve: an exact-fit reserve per batch would defeat push_back's
    // geometric growth (quadratic re-copying at small batch sizes).
    ElementBatch& tail = TailRowChunk();
    for (StreamElement& e : batch.elements()) {
      if (e.is_tuple()) {
        ++metrics_.tuples_in;
      } else if (e.is_sp()) {
        ++metrics_.sps_in;
      }
      tail.push_back(std::move(e));
    }
    flat_valid_ = false;
  }

  bool ProcessColumnar(ElementBatch& batch, ElementBatch* out,
                       int) override {
    (void)out;  // terminal: nothing flows downstream
    int64_t tuples = 0, sps = 0;
    batch.CountLive(&tuples, &sps);
    metrics_.tuples_in += tuples;
    metrics_.sps_in += sps;
    chunks_.push_back(std::move(batch));
    flat_valid_ = false;
    return true;
  }

 private:
  /// \brief The trailing row-representation chunk, created on demand.
  ElementBatch& TailRowChunk() {
    if (chunks_.empty() || chunks_.back().is_columnar()) {
      chunks_.emplace_back();
    }
    return chunks_.back();
  }

  std::vector<ElementBatch> chunks_;
  // Lazily flattened element view for callers that inspect the raw
  // sequence (tests, benches); invalidated by every arrival.
  mutable std::vector<StreamElement> flat_;
  mutable bool flat_valid_ = true;
};

/// \brief Owns a DAG of operators plus its sources, and drives them.
class Pipeline {
 public:
  explicit Pipeline(ExecContext* ctx) : ctx_(ctx) {}

  /// \brief Take ownership of an operator.
  template <typename T, typename... Args>
  T* Add(Args&&... args) {
    auto op = std::make_unique<T>(ctx_, std::forward<Args>(args)...);
    T* raw = op.get();
    operators_.push_back(std::move(op));
    if constexpr (std::is_base_of_v<SourceOperator, T>) {
      sources_.push_back(raw);
    }
    return raw;
  }

  /// \brief Round-robin the sources until all are exhausted (pipelined
  /// execution: every element flows through the whole DAG before the next
  /// source poll).
  void Run(size_t batch_per_poll = 1);

  /// \brief Tag every operator with the query it executes for (audit-event
  /// and registry scoping).
  void SetQueryTag(const std::string& tag);

  /// \brief Publish every operator's cumulative metrics into `registry` as
  /// the live entries of `query` (overwriting the previous harvest).
  /// Duplicate labels are disambiguated with a "#n" suffix in DAG order.
  void HarvestInto(MetricsRegistry* registry, const std::string& query) const;

  const std::vector<std::unique_ptr<Operator>>& operators() const {
    return operators_;
  }
  ExecContext* ctx() const { return ctx_; }

 private:
  ExecContext* ctx_;
  std::vector<std::unique_ptr<Operator>> operators_;
  std::vector<SourceOperator*> sources_;
};

}  // namespace spstream

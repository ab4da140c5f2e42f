// Push-based pipelined operator framework (the CAPE-substitute execution
// model of §IV): operators form a DAG, elements are pushed downstream in
// micro-batches (ElementBatch) as soon as they are produced, and every
// operator tracks its own cost/memory metrics for the benchmark harness.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
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

  /// \brief Push a micro-batch into input `port` — the only way an element
  /// crosses an operator edge. PushBatch times the operator (total_nanos is
  /// its own processing time, downstream excluded), tries ProcessColumnar on
  /// a columnar batch, otherwise runs Process per element, and handles
  /// end-of-stream inline: once *all* ports have seen it, OnAllFinished runs
  /// and EOS propagates. Everything emitted is collected and forwarded as
  /// one batch per output edge; per-edge output order is identical at every
  /// batch size (the batch-equivalence contract).
  void PushBatch(ElementBatch batch, int port = 0);

  const std::string& label() const { return label_; }
  const OperatorMetrics& metrics() const { return metrics_; }

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
  /// \brief Operator-specific processing of a non-EOS element: the row path
  /// and the semantic reference every columnar kernel must match. Consumes
  /// `elem` (taken by rvalue reference so the row loop moves nothing).
  virtual void Process(StreamElement&& elem, int port) = 0;

  /// \brief Optional columnar kernel, tried by PushBatch for columnar
  /// batches without EOS. An override either returns false WITHOUT side
  /// effects (PushBatch falls back to Process, which decays the batch to
  /// rows) or fully consumes `batch`, builds the complete output batch in
  /// `*out` — columnar where possible, so results are never re-wrapped
  /// element by element — and returns true. Output must be
  /// sequence-identical to the Process path.
  virtual bool ProcessColumnar(ElementBatch& batch, ElementBatch* out,
                               int port) {
    (void)batch;
    (void)out;
    (void)port;
    return false;
  }

  /// \brief Called once, after every input port has finished, before EOS
  /// propagates. Stateful operators flush pending results here.
  virtual void OnAllFinished() {}

  /// \brief Append an element to the output of the batch being processed
  /// (forwarded downstream as one batch when the input batch completes).
  /// Only valid inside the hooks PushBatch calls.
  void Emit(StreamElement elem) {
    assert(collect_ != nullptr);
    collect_->push_back(std::move(elem));
  }

  /// \brief Send a batch to all downstream operators (copy for the first
  /// N-1 fan-out edges, move into the last).
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
  // Non-null while PushBatch runs: Emit appends here, so one input batch
  // becomes one output batch per edge.
  ElementBatch* collect_ = nullptr;
};

/// \brief The one source operator: its owner pushes batches into the DAG
/// as they are admitted (the engine's FeedGroup) or as FeedToEnd cuts them
/// from a finite input. Never emits EOS on its own.
class PushSource : public Operator {
 public:
  explicit PushSource(ExecContext* ctx, std::string label = "push_src")
      : Operator(ctx, std::move(label), /*num_inputs=*/0) {}

  /// \brief Inject a micro-batch; it flows through the whole DAG as a batch
  /// before this returns (synchronous pipelined execution).
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

 protected:
  void Process(StreamElement&&, int) override {}
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
  void Process(StreamElement&& elem, int) override {
    if (elem.is_tuple()) {
      ++metrics_.tuples_in;
    } else if (elem.is_sp()) {
      ++metrics_.sps_in;
    }
    TailRowChunk().push_back(std::move(elem));
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

/// \brief Owns a DAG of operators. Its PushSources are fed from outside.
class Pipeline {
 public:
  explicit Pipeline(ExecContext* ctx) : ctx_(ctx) {}

  /// \brief Take ownership of an operator.
  template <typename T, typename... Args>
  T* Add(Args&&... args) {
    auto op = std::make_unique<T>(ctx_, std::forward<Args>(args)...);
    T* raw = op.get();
    operators_.push_back(std::move(op));
    return raw;
  }

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

 private:
  ExecContext* ctx_;
  std::vector<std::unique_ptr<Operator>> operators_;
};

/// \brief One leaf's finite input: the PushSource it enters through and
/// the elements it carries.
struct FiniteInput {
  PushSource* source = nullptr;
  std::vector<StreamElement> elements;
};

/// \brief Give each compiled leaf (`leaves`, as PhysicalPlan::sources lists
/// them) its own copy of its stream from `streams`; a stream read by two
/// leaves (a self-join) is copied for each. NotFound names a stream that
/// `streams` lacks.
Result<std::vector<FiniteInput>> BindInputs(
    const std::vector<std::pair<std::string, PushSource*>>& leaves,
    const std::unordered_map<std::string, std::vector<StreamElement>>&
        streams);

/// \brief Feed finite inputs to their end: round-robin over `inputs` in
/// order, one batch of up to `batch_size` elements (ElementBatch::ForFeed)
/// per input per turn, every element through the whole DAG before the next
/// batch. Each input's last batch ends with its end-of-stream (ts
/// kMaxTimestamp, 0 for an empty input), so each port finishes exactly
/// once. `before_batch`, when set, runs before each batch is cut. The
/// elements are moved out; the caller destroys what is left, so a timer
/// around the call does not count freeing the input.
void FeedToEnd(std::vector<FiniteInput>&& inputs, size_t batch_size,
               const std::function<void()>& before_batch = nullptr);

}  // namespace spstream

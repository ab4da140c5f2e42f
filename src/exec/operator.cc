#include "exec/operator.h"

#include <unordered_map>

#include "common/metrics_registry.h"
#include "common/trace.h"

namespace spstream {

void Operator::Push(StreamElement elem, int port) {
  if (elem.is_end_of_stream()) {
    OnPortFinished(port);
    if (++finished_ports_ >= (num_inputs_ == 0 ? 1 : num_inputs_)) {
      OnAllFinished();
      Emit(std::move(elem));  // propagate EOS exactly once
    }
    return;
  }
  Process(std::move(elem), port);
}

void Operator::Emit(StreamElement elem) {
  if (collect_ != nullptr) {
    // Batch mode: buffer the element; PushBatch forwards everything
    // collected as one output batch when the input batch completes.
    collect_->push_back(std::move(elem));
    return;
  }
  if (outputs_.empty()) return;
  // Copy for all but the last edge; move into the last.
  for (size_t i = 0; i + 1 < outputs_.size(); ++i) {
    outputs_[i].op->Push(elem, outputs_[i].port);
  }
  outputs_.back().op->Push(std::move(elem), outputs_.back().port);
}

void Operator::ProcessBatch(ElementBatch& batch, int port) {
  for (StreamElement& e : batch.elements()) {
    Process(std::move(e), port);
  }
}

namespace {
/// Restores an operator's collect pointer even if Process throws (the
/// engine quarantines the query on exceptions, but the operator must not be
/// left pointing at a dead stack buffer in the meantime).
struct CollectScope {
  ElementBatch** slot;
  ElementBatch* prev;
  CollectScope(ElementBatch** s, ElementBatch* next) : slot(s), prev(*s) {
    *slot = next;
  }
  ~CollectScope() { *slot = prev; }
};
}  // namespace

void Operator::PushBatch(ElementBatch batch, int port) {
  if (batch.empty()) return;
  ++metrics_.batches_in;
  metrics_.batch_elements_in += static_cast<int64_t>(batch.size());
  // Per-operator span (when the current batch's trace is sampled): arg1 =
  // batch size, arg2 = tuples passed downstream, arg3 = tuples dropped
  // (security + predicate) while this batch was processed.
  const bool traced = SP_TRACE_ENABLED() && Tracer::CurrentTrace() != 0;
  const int64_t out_before = traced ? metrics_.tuples_out : 0;
  const int64_t drop_before =
      traced ? metrics_.tuples_dropped_security + metrics_.tuples_dropped_predicate
             : 0;
  TraceSpan span(TraceCat::kOperator, label_.c_str(),
                 traced ? Tracer::CurrentTrace() : 0,
                 static_cast<int64_t>(batch.size()));
  ElementBatch out;
  if (!batch.has_eos() && batch.is_columnar() &&
      ProcessColumnar(batch, &out, port)) {
    // Columnar kernel: `out` was built directly (no collect-mode
    // per-element re-wrap) and forwards below like any collected batch.
  } else {
    CollectScope scope(&collect_, &out);
    if (batch.has_eos()) {
      // Rare, terminal: route through Push so the finished-port accounting
      // stays in one place. Emissions still collect, so downstream keeps
      // receiving batches.
      for (StreamElement& e : batch.elements()) {
        Push(std::move(e), port);
      }
    } else {
      ProcessBatch(batch, port);
    }
  }
  if (traced) {
    span.set_args(static_cast<int64_t>(batch.size()),
                  metrics_.tuples_out - out_before,
                  metrics_.tuples_dropped_security +
                      metrics_.tuples_dropped_predicate - drop_before);
  }
  ForwardBatch(std::move(out));
}

void Operator::ForwardBatch(ElementBatch batch) {
  if (batch.empty()) return;
  if (collect_ != nullptr) {
    for (StreamElement& e : batch.elements()) {
      collect_->push_back(std::move(e));
    }
    return;
  }
  if (outputs_.empty()) return;
  // Copy for all but the last fan-out edge; move into the last.
  for (size_t i = 0; i + 1 < outputs_.size(); ++i) {
    outputs_[i].op->PushBatch(batch, outputs_[i].port);
  }
  outputs_.back().op->PushBatch(std::move(batch), outputs_.back().port);
}

size_t SourceOperator::Poll(size_t max_elements) {
  // One poll = one batch: downstream operators get their batch kernels even
  // for pre-materialized runs (Pipeline::Run's batch_per_poll is the batch
  // size). Order is exactly the per-element order. Multi-element polls ship
  // columnar so the SoA kernels engage; a one-element poll keeps the row
  // transport (same trade-off as the engine feed).
  ElementBatch batch;
  if (max_elements > 1) batch.BeginColumnar();
  batch.reserve(std::min(max_elements, elements_.size() - next_) + 1);
  size_t pushed = 0;
  while (pushed < max_elements && next_ < elements_.size()) {
    StreamElement& e = elements_[next_++];
    if (e.is_tuple()) {
      ++metrics_.tuples_in;
      ++metrics_.tuples_out;
    } else if (e.is_sp()) {
      ++metrics_.sps_in;
      ++metrics_.sps_out;
    }
    batch.push_back(std::move(e));
    ++pushed;
  }
  if (next_ >= elements_.size() && !eos_sent_) {
    eos_sent_ = true;
    const Timestamp ts =
        elements_.empty() ? 0 : kMaxTimestamp;
    // EOS rides at the batch tail; PushBatch routes it through Push so the
    // finished-port accounting fires downstream.
    batch.push_back(StreamElement::EndOfStream(ts));
  }
  if (!batch.empty()) ForwardBatch(std::move(batch));
  return pushed;
}

const std::vector<StreamElement>& CollectorSink::elements() const {
  if (!flat_valid_) {
    flat_.clear();
    for (const ElementBatch& chunk : chunks_) {
      for (const StreamElement& e : chunk.elements()) {
        flat_.push_back(e);
      }
    }
    flat_valid_ = true;
  }
  return flat_;
}

std::vector<Tuple> CollectorSink::Tuples() const {
  std::vector<Tuple> out;
  for (const ElementBatch& chunk : chunks_) {
    if (chunk.is_columnar()) {
      // Columnar fast path: rebuild Tuples straight from the columns —
      // the sink never touches a StreamElement for these results.
      const size_t live = chunk.num_live_rows();
      for (size_t k = 0; k < live; ++k) {
        out.push_back(chunk.MaterializeTuple(chunk.live_row(k)));
      }
    } else {
      for (const StreamElement& e : chunk.elements()) {
        if (e.is_tuple()) out.push_back(e.tuple());
      }
    }
  }
  return out;
}

std::vector<SecurityPunctuation> CollectorSink::Sps() const {
  std::vector<SecurityPunctuation> out;
  for (const ElementBatch& chunk : chunks_) {
    if (chunk.is_columnar()) {
      for (const ElementBatch::Special& s : chunk.specials()) {
        if (s.elem.is_sp()) out.push_back(s.elem.sp());
      }
    } else {
      for (const StreamElement& e : chunk.elements()) {
        if (e.is_sp()) out.push_back(e.sp());
      }
    }
  }
  return out;
}

void Pipeline::SetQueryTag(const std::string& tag) {
  for (const std::unique_ptr<Operator>& op : operators_) {
    op->set_query_tag(tag);
  }
}

void Pipeline::HarvestInto(MetricsRegistry* registry,
                           const std::string& query) const {
  std::unordered_map<std::string, int> seen;
  for (const std::unique_ptr<Operator>& op : operators_) {
    std::string key = op->label();
    const int n = seen[key]++;
    if (n > 0) key += "#" + std::to_string(n);
    registry->UpdateLiveOperator(query, key, op->metrics());
  }
}

void Pipeline::Run(size_t batch_per_poll) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (SourceOperator* src : sources_) {
      if (!src->exhausted()) {
        src->Poll(batch_per_poll);
        progressed = true;
      }
    }
  }
}

}  // namespace spstream

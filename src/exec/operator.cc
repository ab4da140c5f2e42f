#include "exec/operator.h"

#include <algorithm>
#include <unordered_map>

#include "common/metrics_registry.h"
#include "common/trace.h"

namespace spstream {

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
  const int64_t in_size = static_cast<int64_t>(batch.size());
  ++metrics_.batches_in;
  metrics_.batch_elements_in += in_size;
  // Per-operator span (when the current batch's trace is sampled): arg1 =
  // batch size, arg2 = tuples passed downstream, arg3 = tuples dropped
  // (security + predicate) while this batch was processed.
  const bool traced = SP_TRACE_ENABLED() && Tracer::CurrentTrace() != 0;
  const int64_t out_before = traced ? metrics_.tuples_out : 0;
  const int64_t drop_before =
      traced ? metrics_.tuples_dropped_security + metrics_.tuples_dropped_predicate
             : 0;
  TraceSpan span(TraceCat::kOperator, label_.c_str(),
                 traced ? Tracer::CurrentTrace() : 0, in_size);
  ElementBatch out;
  {
    ScopedTimer timer(&metrics_.total_nanos);
    if (batch.has_eos() || !batch.is_columnar() ||
        !ProcessColumnar(batch, &out, port)) {
      // Row path. Emissions collect into `out`; EOS (rare, terminal) is
      // handled in place so it keeps its position in the sequence.
      CollectScope scope(&collect_, &out);
      for (StreamElement& e : batch.elements()) {
        if (!e.is_end_of_stream()) {
          Process(std::move(e), port);
          continue;
        }
        if (++finished_ports_ >= std::max(num_inputs_, 1)) {
          OnAllFinished();
          Emit(std::move(e));  // propagate EOS exactly once
        }
      }
    }
    OnBatchEnd();
  }
  if (traced) {
    span.set_args(in_size, metrics_.tuples_out - out_before,
                  metrics_.tuples_dropped_security +
                      metrics_.tuples_dropped_predicate - drop_before);
  }
  ForwardBatch(std::move(out));
}

void Operator::ForwardBatch(ElementBatch batch) {
  if (batch.empty() || outputs_.empty()) return;
  // Copy for all but the last fan-out edge; move into the last.
  for (size_t i = 0; i + 1 < outputs_.size(); ++i) {
    outputs_[i].op->PushBatch(batch, outputs_[i].port);
  }
  outputs_.back().op->PushBatch(std::move(batch), outputs_.back().port);
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

Result<std::vector<FiniteInput>> BindInputs(
    const std::vector<std::pair<std::string, PushSource*>>& leaves,
    const std::unordered_map<std::string, std::vector<StreamElement>>&
        streams) {
  std::vector<FiniteInput> inputs;
  inputs.reserve(leaves.size());
  for (const auto& [stream, source] : leaves) {
    auto it = streams.find(stream);
    if (it == streams.end()) {
      return Status::NotFound("no input elements supplied for stream '" +
                              stream + "'");
    }
    inputs.push_back(FiniteInput{source, it->second});
  }
  return inputs;
}

void FeedToEnd(std::vector<FiniteInput>&& inputs, size_t batch_size,
               const std::function<void()>& before_batch) {
  batch_size = std::max<size_t>(batch_size, 1);
  // next[i] runs past inputs[i]'s last element once its EOS is sent.
  std::vector<size_t> next(inputs.size(), 0);
  size_t open = inputs.size();
  while (open > 0) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      std::vector<StreamElement>& elems = inputs[i].elements;
      if (next[i] > elems.size()) continue;
      if (before_batch) before_batch();
      const size_t end = std::min(elems.size(), next[i] + batch_size);
      ElementBatch batch =
          ElementBatch::ForFeed(batch_size, end - next[i] + 1);
      for (; next[i] < end; ++next[i]) {
        batch.push_back(std::move(elems[next[i]]));
      }
      if (end == elems.size()) {
        batch.push_back(
            StreamElement::EndOfStream(elems.empty() ? 0 : kMaxTimestamp));
        ++next[i];
        --open;
      }
      inputs[i].source->FeedBatch(std::move(batch));
    }
  }
}

}  // namespace spstream

// Small plumbing operators: stream union, sp stripping (for the
// pre-filtering strategy of §IV.A, whose plans carry no punctuations), and
// a rate meter used by the benchmark harness.
#pragma once

#include "exec/operator.h"

namespace spstream {

/// \brief N-ary stream union: forwards every input element in arrival
/// order. Policies ride along unchanged — each input's sps still precede
/// that input's tuples in the merged output.
class UnionOp : public Operator {
 public:
  UnionOp(ExecContext* ctx, int num_inputs, std::string label = "union")
      : Operator(ctx, std::move(label), num_inputs) {}

 protected:
  void Process(StreamElement&& elem, int) override {
    if (elem.is_tuple()) {
      ++metrics_.tuples_in;
      EmitTuple(std::move(elem.tuple()));
    } else if (elem.is_sp()) {
      ++metrics_.sps_in;
      EmitSp(std::move(elem.sp()));
    } else {
      Emit(std::move(elem));
    }
  }
};

/// \brief Strips security punctuations from the stream. The pre-filtering
/// strategy runs this right after its access-control filter: downstream
/// plans are then plain pipelines. A single allow-all punctuation precedes
/// the first tuple so stateful security-aware operators downstream treat
/// everything that survived the source shield as accessible (which is
/// precisely the pre-filtering contract).
class DropSpsOp : public Operator {
 public:
  explicit DropSpsOp(ExecContext* ctx, std::string label = "drop_sps")
      : Operator(ctx, std::move(label)) {}

 protected:
  void Process(StreamElement&& elem, int) override {
    if (elem.is_sp()) {
      ++metrics_.sps_in;
      return;  // swallowed
    }
    if (elem.is_tuple()) {
      ++metrics_.tuples_in;
      if (!allow_all_sent_) {
        allow_all_sent_ = true;
        SecurityPunctuation allow_all(
            Pattern::Any(), Pattern::Any(), Pattern::Any(), Pattern::Any(),
            Sign::kPositive, /*immutable=*/false, elem.tuple().ts - 1);
        allow_all.SetResolvedRoles(RoleSet::AllOf(*ctx_->roles));
        EmitSp(std::move(allow_all));
      }
      EmitTuple(std::move(elem.tuple()));
    } else {
      Emit(std::move(elem));
    }
  }

 private:
  bool allow_all_sent_ = false;
};

}  // namespace spstream

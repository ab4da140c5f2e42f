// Shared helpers for the spstream test suite: element builders, pipeline
// drivers, and naive reference implementations used by property tests.
#pragma once

#include <gtest/gtest.h>
#include <sched.h>

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "exec/operator.h"
#include "exec/plan_builder.h"
#include "security/role_catalog.h"
#include "security/security_punctuation.h"
#include "stream/stream_element.h"

namespace spstream::sptest {

/// \brief A fully-resolved positive sp covering every object of `stream`
/// with the given role ids, effective at `ts`.
inline SecurityPunctuation MakeSp(const std::string& stream,
                                  std::vector<RoleId> roles, Timestamp ts,
                                  Sign sign = Sign::kPositive) {
  SecurityPunctuation sp(Pattern::Literal(stream), Pattern::Any(),
                         Pattern::Any(), Pattern::Any(), sign,
                         /*immutable=*/false, ts);
  sp.SetResolvedRoles(RoleSet::FromIds(roles));
  return sp;
}

/// \brief Tuple with int64 values.
inline Tuple MakeTuple(TupleId tid, std::vector<int64_t> values,
                       Timestamp ts, StreamId sid = 0) {
  std::vector<Value> vals;
  vals.reserve(values.size());
  for (int64_t v : values) vals.emplace_back(v);
  return Tuple(sid, tid, std::move(vals), ts);
}

/// \brief Run a single chain source -> op -> sink over `elements` and
/// return the sink. The pipeline must outlive result inspection, so this
/// returns the collected elements by value.
struct RunResult {
  std::vector<Tuple> tuples;
  std::vector<SecurityPunctuation> sps;
  std::vector<StreamElement> elements;
};

template <typename MakeOp>
RunResult RunUnary(ExecContext* ctx, std::vector<StreamElement> input,
                   MakeOp&& make_op) {
  Pipeline pipeline(ctx);
  auto* src = pipeline.Add<PushSource>("src");
  Operator* op = make_op(&pipeline);
  auto* sink = pipeline.Add<CollectorSink>();
  src->AddOutput(op);
  op->AddOutput(sink);
  FeedToEnd({{src, std::move(input)}}, /*batch_size=*/1);
  RunResult r;
  r.tuples = sink->Tuples();
  r.sps = sink->Sps();
  r.elements = sink->elements();
  return r;
}

/// \brief Run a binary operator over two element streams.
template <typename MakeOp>
RunResult RunBinary(ExecContext* ctx, std::vector<StreamElement> left,
                    std::vector<StreamElement> right, MakeOp&& make_op) {
  Pipeline pipeline(ctx);
  auto* l = pipeline.Add<PushSource>("left");
  auto* rsrc = pipeline.Add<PushSource>("right");
  Operator* op = make_op(&pipeline);
  auto* sink = pipeline.Add<CollectorSink>();
  l->AddOutput(op, 0);
  rsrc->AddOutput(op, 1);
  op->AddOutput(sink);
  FeedToEnd({{l, std::move(left)}, {rsrc, std::move(right)}},
            /*batch_size=*/1);
  RunResult r;
  r.tuples = sink->Tuples();
  r.sps = sink->Sps();
  r.elements = sink->elements();
  return r;
}

/// \brief Compile `plan` into `pipeline` and feed `inputs` (stream name ->
/// elements) through it to the end at `batch_size`; the plan's one sink
/// holds the results.
inline Result<PhysicalPlan> RunPlan(
    Pipeline* pipeline, const LogicalNodePtr& plan,
    const std::unordered_map<std::string, std::vector<StreamElement>>& inputs,
    const PhysicalPlanOptions& options = {}, size_t batch_size = 1) {
  SP_ASSIGN_OR_RETURN(PhysicalPlan built,
                      BuildPhysicalPlan(pipeline, {plan}, options));
  SP_ASSIGN_OR_RETURN(std::vector<FiniteInput> fed,
                      BindInputs(built.sources, inputs));
  FeedToEnd(std::move(fed), batch_size);
  return built;
}

/// \brief Reference model of a punctuated stream: (tuple, policy-roles)
/// pairs derived with straight-line segment semantics (sps precede their
/// tuples; newer ts overrides; denial-by-default).
struct RefTuple {
  Tuple tuple;
  RoleSet roles;
};

inline std::vector<RefTuple> ReferenceAnnotate(
    const std::vector<StreamElement>& elements,
    const std::string& stream_name) {
  std::vector<RefTuple> out;
  RoleSet positive, negative;
  Timestamp policy_ts = kMinTimestamp;
  std::vector<const SecurityPunctuation*> batch;
  auto batch_roles = [&](const Tuple& t) {
    RoleSet pos, neg;
    bool any = false;
    for (const SecurityPunctuation* sp : batch) {
      if (!sp->AppliesToStream(stream_name)) continue;
      if (!sp->AppliesToTupleId(t.tid)) continue;
      if (!sp->CoversWholeTuple()) continue;
      any = true;
      if (sp->sign() == Sign::kPositive) {
        pos.UnionWith(sp->roles());
      } else {
        neg.UnionWith(sp->roles());
      }
    }
    if (!any) return RoleSet();
    return RoleSet::Difference(pos, neg);
  };
  for (const StreamElement& e : elements) {
    if (e.is_sp()) {
      if (e.sp().ts() > policy_ts) {
        batch.clear();
        policy_ts = e.sp().ts();
      }
      if (e.sp().ts() == policy_ts) batch.push_back(&e.sp());
    } else if (e.is_tuple()) {
      out.push_back(RefTuple{e.tuple(), batch_roles(e.tuple())});
    }
  }
  return out;
}

/// \brief Random punctuated stream for fuzz/property tests: `n` tuples with
/// `cols` int columns in [0, value_range), policy changing every 1..max_seg
/// tuples with roles drawn from [0, role_pool).
inline std::vector<StreamElement> RandomPunctuatedStream(
    Rng* rng, const std::string& stream, size_t n, int cols,
    int64_t value_range, size_t role_pool, size_t max_seg,
    size_t roles_per_policy = 2, Timestamp start_ts = 1) {
  std::vector<StreamElement> out;
  Timestamp ts = start_ts;
  size_t emitted = 0;
  while (emitted < n) {
    std::vector<RoleId> roles;
    for (size_t i = 0; i < roles_per_policy; ++i) {
      roles.push_back(static_cast<RoleId>(rng->NextBounded(role_pool)));
    }
    out.emplace_back(MakeSp(stream, roles, ts));
    const size_t seg = 1 + rng->NextBounded(max_seg);
    for (size_t i = 0; i < seg && emitted < n; ++i, ++emitted) {
      std::vector<int64_t> vals;
      for (int c = 0; c < cols; ++c) {
        vals.push_back(static_cast<int64_t>(rng->NextBounded(
            static_cast<uint64_t>(value_range))));
      }
      out.emplace_back(
          MakeTuple(static_cast<TupleId>(emitted), vals, ts));
      ts += 1;
    }
  }
  return out;
}

/// \brief Pins the calling thread to the CPU it is running on and restores
/// the previous affinity mask on destruction. A ShardManager (or a sharded
/// SpStreamEngine) constructed inside the scope sees one usable CPU, starts
/// no worker thread, and feeds every shard on the calling thread.
class ScopedSingleCpu {
 public:
  ScopedSingleCpu() {
    CPU_ZERO(&saved_);
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~ScopedSingleCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }

  ScopedSingleCpu(const ScopedSingleCpu&) = delete;
  ScopedSingleCpu& operator=(const ScopedSingleCpu&) = delete;

  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace spstream::sptest

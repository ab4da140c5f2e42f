// Compiles logical plans into physical operator pipelines, and builds the
// three access-control placement strategies of §IV.A (pre-, post- and
// intermediate filtering) for comparison.
#pragma once

#include <unordered_map>

#include "common/status.h"
#include "exec/operator.h"
#include "exec/sajoin.h"
#include "query/logical_plan.h"

namespace spstream {

/// \brief Physical compilation knobs.
struct PhysicalPlanOptions {
  enum class JoinImpl { kNestedLoop, kIndex };
  JoinImpl join_impl = JoinImpl::kIndex;
  SaJoinOptions::ProbeMethod probe_method =
      SaJoinOptions::ProbeMethod::kProbeAndFilter;
  bool use_skipping_rule = true;
  bool ss_use_predicate_index = true;
  bool ss_mask_attributes = false;
};

/// \brief Result of compiling one plan: sources to feed and the sink that
/// collects results. All operators are owned by the pipeline.
struct PhysicalPlan {
  std::vector<SourceOperator*> sources;  // one per source leaf, plan order
  CollectorSink* sink = nullptr;
  Operator* root = nullptr;              // operator feeding the sink
  SchemaPtr output_schema;               // schema of the sink's tuples
  std::string output_stream_name;        // logical name of the output
  /// Logical node -> top physical operator of its compiled subtree
  /// (EXPLAIN ANALYZE annotation source). Keys point into the plan tree
  /// passed to the builder.
  std::unordered_map<const LogicalNode*, Operator*> node_ops;
};

/// \brief Compile `plan` into `pipeline`. `inputs[stream]` supplies the
/// element sequence for each source leaf (one SourceOperator per leaf; a
/// stream read by two leaves gets two sources over a copy).
Result<PhysicalPlan> BuildPhysicalPlan(
    Pipeline* pipeline, const LogicalNodePtr& plan,
    const std::unordered_map<std::string, std::vector<StreamElement>>& inputs,
    const PhysicalPlanOptions& options = {});

/// \brief Result of compiling *continuous* plans: externally-fed sources
/// keyed by stream name (one entry per source leaf) and one sink per root.
struct StreamingPhysicalPlan {
  std::vector<std::pair<std::string, PushSource*>> sources;
  std::vector<CollectorSink*> sinks;  // sinks[i] collects roots[i]'s output
  /// Logical node -> top physical operator of its compiled subtree.
  std::unordered_map<const LogicalNode*, Operator*> node_ops;
};

/// \brief Compile `roots` into one DAG with PushSource leaves for long-lived
/// execution: the caller feeds admitted elements incrementally and operator
/// state (policies in force, windows, aggregates) persists between feeds.
/// A subtree reachable from several roots (the §VI.C shared trunk) compiles
/// once and fans out to each root's remaining operators.
Result<StreamingPhysicalPlan> BuildStreamingPhysicalPlan(
    Pipeline* pipeline, const std::vector<LogicalNodePtr>& roots,
    const PhysicalPlanOptions& options = {});

/// \brief §IV.A placement strategies for access-control filtering.
enum class SsPlacement {
  kPreFilter,     ///< SS at each source, sps then stripped; plain plan after
  kPostFilter,    ///< plain plan; SS once, at the very end
  kIntermediate,  ///< SS above each source (plan-embedded, optimizer-movable)
};

/// \brief Wrap a (shield-free) logical plan with the chosen placement of the
/// query's access-control predicate.
LogicalNodePtr ApplySsPlacement(const LogicalNodePtr& plan,
                                const RoleSet& query_roles,
                                SsPlacement placement);

}  // namespace spstream

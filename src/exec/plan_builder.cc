#include "exec/plan_builder.h"

#include <functional>

#include "exec/misc_ops.h"
#include "exec/sa_distinct.h"
#include "exec/sa_groupby.h"
#include "exec/sa_project.h"
#include "exec/sa_select.h"
#include "exec/sajoin.h"
#include "exec/ss_operator.h"

namespace spstream {

namespace {

/// Derived schema and stream-name context of a compiled subtree.
struct SubtreeInfo {
  Operator* top = nullptr;
  SchemaPtr schema;
  std::string stream_name;  // logical name used for DDP stream matching
};

class PlanCompiler {
 public:
  PlanCompiler(Pipeline* pipeline, const PhysicalPlanOptions& options,
               PhysicalPlan* out)
      : pipeline_(pipeline), options_(options), out_(out) {}

  Result<SubtreeInfo> Compile(const LogicalNodePtr& node) {
    auto done = compiled_.find(node.get());
    if (done != compiled_.end()) return done->second;
    SP_ASSIGN_OR_RETURN(SubtreeInfo info, CompileNode(node));
    out_->node_ops[node.get()] = info.top;
    compiled_.emplace(node.get(), info);
    return info;
  }

 private:
  Result<SubtreeInfo> CompileNode(const LogicalNodePtr& node) {
    switch (node->kind) {
      case LogicalNode::Kind::kSource:
        return CompileSource(node);
      case LogicalNode::Kind::kSs:
        return CompileSs(node);
      case LogicalNode::Kind::kSelect:
        return CompileSelect(node);
      case LogicalNode::Kind::kProject:
        return CompileProject(node);
      case LogicalNode::Kind::kJoin:
        return CompileJoin(node);
      case LogicalNode::Kind::kDistinct:
        return CompileDistinct(node);
      case LogicalNode::Kind::kGroupBy:
        return CompileGroupBy(node);
      case LogicalNode::Kind::kUnion:
        return CompileUnion(node);
    }
    return Status::Internal("unknown logical node kind");
  }

  Result<SubtreeInfo> CompileSource(const LogicalNodePtr& node) {
    auto* src = pipeline_->Add<PushSource>("push:" + node->stream_name);
    out_->sources.emplace_back(node->stream_name, src);
    SubtreeInfo info;
    info.top = src;
    info.schema = node->schema;
    info.stream_name = node->stream_name;
    return info;
  }

  Result<SubtreeInfo> CompileSs(const LogicalNodePtr& node) {
    SP_ASSIGN_OR_RETURN(SubtreeInfo child, Compile(node->children[0]));
    // A logical SS predicate list is conjunctive: compile to a cascade of
    // single-predicate shields (Rule 1 made physical).
    Operator* top = child.top;
    for (const RoleSet& pred : node->ss_predicates) {
      SsOptions opts;
      opts.predicates = {pred};
      opts.stream_name = child.stream_name;
      opts.schema = child.schema;
      opts.mask_attributes = options_.ss_mask_attributes;
      auto* ss = pipeline_->Add<SsOperator>(std::move(opts));
      top->AddOutput(ss);
      top = ss;
    }
    if (node->ss_drop_sps) {
      auto* drop = pipeline_->Add<DropSpsOp>();
      top->AddOutput(drop);
      top = drop;
    }
    child.top = top;
    return child;
  }

  Result<SubtreeInfo> CompileSelect(const LogicalNodePtr& node) {
    SP_ASSIGN_OR_RETURN(SubtreeInfo child, Compile(node->children[0]));
    auto* sel = pipeline_->Add<SaSelect>(node->predicate);
    child.top->AddOutput(sel);
    child.top = sel;
    return child;
  }

  Result<SubtreeInfo> CompileProject(const LogicalNodePtr& node) {
    SP_ASSIGN_OR_RETURN(SubtreeInfo child, Compile(node->children[0]));
    auto* proj = pipeline_->Add<SaProject>(node->columns, child.schema);
    child.top->AddOutput(proj);
    child.top = proj;
    child.schema = proj->output_schema();
    return child;
  }

  Result<SubtreeInfo> CompileJoin(const LogicalNodePtr& node) {
    SP_ASSIGN_OR_RETURN(SubtreeInfo left, Compile(node->children[0]));
    SP_ASSIGN_OR_RETURN(SubtreeInfo right, Compile(node->children[1]));
    SaJoinOptions opts;
    opts.window_size = node->window;
    opts.right_window_size =
        node->right_window > 0 ? node->right_window : node->window;
    opts.left_key_col = node->left_key;
    opts.right_key_col = node->right_key;
    opts.left_stream_name = left.stream_name;
    opts.right_stream_name = right.stream_name;
    opts.output_stream_name =
        left.stream_name + "_x_" + right.stream_name;
    opts.probe_method = options_.probe_method;
    opts.use_skipping_rule = options_.use_skipping_rule;
    Operator* join;
    if (options_.join_impl == PhysicalPlanOptions::JoinImpl::kIndex) {
      join = pipeline_->Add<SaJoinIndex>(std::move(opts));
    } else {
      join = pipeline_->Add<SaJoinNl>(std::move(opts));
    }
    left.top->AddOutput(join, 0);
    right.top->AddOutput(join, 1);

    std::vector<Field> fields = left.schema->fields();
    for (const Field& f : right.schema->fields()) fields.push_back(f);
    SubtreeInfo info;
    info.top = join;
    info.stream_name = left.stream_name + "_x_" + right.stream_name;
    info.schema = MakeSchema(info.stream_name, std::move(fields));
    return info;
  }

  Result<SubtreeInfo> CompileDistinct(const LogicalNodePtr& node) {
    SP_ASSIGN_OR_RETURN(SubtreeInfo child, Compile(node->children[0]));
    SaDistinctOptions opts;
    opts.key_col = node->key_col;
    opts.window_size = node->window;
    opts.stream_name = child.stream_name;
    opts.output_stream_name = child.stream_name + "_distinct";
    auto* dist = pipeline_->Add<SaDistinct>(std::move(opts));
    child.top->AddOutput(dist);
    child.top = dist;
    child.stream_name += "_distinct";
    return child;
  }

  Result<SubtreeInfo> CompileGroupBy(const LogicalNodePtr& node) {
    SP_ASSIGN_OR_RETURN(SubtreeInfo child, Compile(node->children[0]));
    SaGroupByOptions opts;
    opts.key_col = node->key_col;
    opts.agg_col = node->agg_col;
    opts.agg_fn = node->agg_fn;
    opts.window_size = node->window;
    opts.stream_name = child.stream_name;
    opts.output_stream_name = child.stream_name + "_agg";
    auto* gb = pipeline_->Add<SaGroupBy>(std::move(opts));
    child.top->AddOutput(gb);
    child.top = gb;
    child.stream_name += "_agg";
    child.schema = MakeSchema(
        child.stream_name,
        {Field{"group_key", ValueType::kNull},
         Field{AggFnToString(node->agg_fn), ValueType::kDouble}});
    return child;
  }

  Result<SubtreeInfo> CompileUnion(const LogicalNodePtr& node) {
    auto* u = pipeline_->Add<UnionOp>(static_cast<int>(node->children.size()));
    SubtreeInfo first;
    for (size_t i = 0; i < node->children.size(); ++i) {
      SP_ASSIGN_OR_RETURN(SubtreeInfo child, Compile(node->children[i]));
      child.top->AddOutput(u, static_cast<int>(i));
      if (i == 0) first = child;
    }
    first.top = u;
    return first;
  }

  Pipeline* pipeline_;
  const PhysicalPlanOptions& options_;
  PhysicalPlan* out_;
  // Memo of compiled subtrees: a node shared by several roots compiles once.
  std::unordered_map<const LogicalNode*, SubtreeInfo> compiled_;
};

}  // namespace

Result<PhysicalPlan> BuildPhysicalPlan(
    Pipeline* pipeline, const std::vector<LogicalNodePtr>& roots,
    const PhysicalPlanOptions& options) {
  PhysicalPlan out;
  PlanCompiler compiler(pipeline, options, &out);
  for (const LogicalNodePtr& root : roots) {
    SP_ASSIGN_OR_RETURN(SubtreeInfo info, compiler.Compile(root));
    out.sinks.push_back(pipeline->Add<CollectorSink>());
    info.top->AddOutput(out.sinks.back());
  }
  return out;
}

LogicalNodePtr ApplySsPlacement(const LogicalNodePtr& plan,
                                const RoleSet& query_roles,
                                SsPlacement placement) {
  LogicalNodePtr result = plan->Clone();
  switch (placement) {
    case SsPlacement::kPostFilter:
      return LogicalNode::Ss({query_roles}, std::move(result));
    case SsPlacement::kPreFilter:
    case SsPlacement::kIntermediate: {
      const bool drop = placement == SsPlacement::kPreFilter;
      std::function<LogicalNodePtr(LogicalNodePtr)> wrap =
          [&](LogicalNodePtr node) -> LogicalNodePtr {
        if (node->kind == LogicalNode::Kind::kSource) {
          auto ss = LogicalNode::Ss({query_roles}, node);
          ss->ss_drop_sps = drop;
          return ss;
        }
        for (LogicalNodePtr& child : node->children) {
          child = wrap(child);
        }
        return node;
      };
      return wrap(std::move(result));
    }
  }
  return result;
}

}  // namespace spstream

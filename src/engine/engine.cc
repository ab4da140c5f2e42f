#include "engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "security/sp_codec.h"
#include "storage/state_codec.h"
#include "stream/element_batch.h"

namespace spstream {

namespace {

/// Source stream names referenced by a plan (leaf scan names).
void CollectSourceStreams(const LogicalNodePtr& node,
                          std::vector<std::string>* out) {
  if (node->kind == LogicalNode::Kind::kSource) {
    out->push_back(node->stream_name);
    return;
  }
  for (const LogicalNodePtr& child : node->children) {
    CollectSourceStreams(child, out);
  }
}

}  // namespace

SpStreamEngine::SpStreamEngine(EngineOptions options)
    : options_(std::move(options)),
      exec_ctx_{&roles_, &streams_, &metrics_,
                options_.enable_audit ? &audit_ : nullptr},
      overload_(OverloadOptions::FromEnv(options_.overload),
                options_.shard_queue_capacity) {
  // Tracing is process-global and sticky (the CLI's \trace and other
  // engines share the Tracer); an engine only ever switches it ON.
  if (options_.trace_sample_n > 0) {
    Tracer::Global().Enable(options_.trace_sample_n);
  }
  if (options_.num_shards > 1) {
    shard_manager_ = std::make_unique<ShardManager>(
        options_.num_shards, options_.shard_queue_capacity);
  }
  if (overload_.options().watchdog && shard_manager_) {
    // Liveness observer only: it samples the shards' progress counters
    // (atomics — safe off-thread) and flags wedges; all recovery happens at
    // the engine's own safe points.
    watchdog_ = std::make_unique<Watchdog>(
        overload_.options(),
        [this] {
          std::vector<ShardProgressSample> out;
          for (size_t i = 0; i < shard_manager_->num_shards(); ++i) {
            const ShardManager::ShardStats s = shard_manager_->Stats(i);
            ShardProgressSample p;
            p.progress = s.tuples_processed + s.sps_processed + s.epochs;
            p.queue_depth = s.queue_depth;
            out.push_back(p);
          }
          return out;
        },
        &metrics_);
    watchdog_->Start();
  }
  if (!options_.data_dir.empty()) {
    auto opened = storage::DurabilityManager::Open(
        options_.data_dir, &metrics_,
        options_.enable_audit ? &audit_ : nullptr);
    if (!opened.ok()) {
      // Fail safe: never run with a data dir we could not read — durability
      // stays OFF so the unreadable state is never overwritten.
      recovery_error_ = opened.status();
    } else {
      durability_ = std::move(opened).value();
      Status st = ApplyRecoveredState();
      if (!st.ok()) {
        recovery_error_ = st;
        for (QueryGroup& g : groups_) ResetGroup(&g, /*reshaped=*/false);
        durability_.reset();
      }
    }
    if (!recovery_error_.ok() && options_.enable_audit) {
      AuditEvent e;
      e.kind = AuditEventKind::kStorage;
      e.scope = "engine";
      e.detail = "recovery failed, durability disabled: " +
                 recovery_error_.ToString();
      audit_.Append(std::move(e));
    }
  }
}

SpStreamEngine::~SpStreamEngine() { Shutdown(); }

void SpStreamEngine::Shutdown() {
  // Join the watchdog before any member it probes can die.
  if (watchdog_) watchdog_->Stop();
  if (!durability_) return;
  // Clean shutdown flushes the audit ring's tail into the WAL so the trail
  // survives the process (docs/DURABILITY.md).
  (void)durability_->FlushAuditTail(audit_);
}

RoleId SpStreamEngine::RegisterRole(const std::string& name) {
  // Log first: RegisterRole has no error channel, and replaying the WAL in
  // order is what reproduces the same dense role ids after a crash.
  if (durability_ && !replaying_) {
    std::string payload;
    PutLengthPrefixed(name, &payload);
    Status st = durability_->LogCatalogRecord(
        storage::WalRecordType::kRoleRegister, std::move(payload));
    if (!st.ok() && options_.enable_audit) {
      AuditEvent e;
      e.kind = AuditEventKind::kStorage;
      e.scope = "engine";
      e.detail = "role '" + name + "' not durable: " + st.ToString();
      audit_.Append(std::move(e));
    }
  }
  return roles_.RegisterRole(name);
}

std::string SpStreamEngine::QueryTag(const QueryState* qs) const {
  return "q" + std::to_string(qs - queries_.data());
}

std::string SpStreamEngine::GroupTag(const QueryGroup& g) const {
  const std::string leader = "q" + std::to_string(g.members[0]);
  return g.members.size() == 1 ? leader : "shared:" + leader;
}

std::string SpStreamEngine::CloneTag(const QueryGroup& g, size_t clone) const {
  const std::string tag = GroupTag(g);
  return g.routing.shardable ? tag + ".shard" + std::to_string(clone) : tag;
}

auto SpStreamEngine::GroupOf(size_t query) const -> const QueryGroup* {
  for (const QueryGroup& g : groups_) {
    if (std::find(g.members.begin(), g.members.end(), query) !=
        g.members.end()) {
      return &g;
    }
  }
  return nullptr;
}

auto SpStreamEngine::GroupOf(size_t query) -> QueryGroup* {
  return const_cast<QueryGroup*>(std::as_const(*this).GroupOf(query));
}

void SpStreamEngine::JoinGroup(size_t query) {
  if (options_.share_plans) {
    for (QueryGroup& g : groups_) {
      // A fenced group takes no newcomers: they would share its quarantine.
      // Equal SQL plans to an equal bare plan: testing it first keeps
      // PlansEqual, which renders predicates as text, off the common path.
      if (g.quarantined ||
          (queries_[g.members[0]].sql != queries_[query].sql &&
           !PlansEqual(queries_[g.members[0]].bare_plan,
                       queries_[query].bare_plan))) {
        continue;
      }
      // New membership: the DAG recompiles, state resets.
      ResetGroup(&g, /*reshaped=*/true);
      g.members.push_back(query);
      return;
    }
  }
  // The newest query has the highest index, so leader order holds.
  QueryGroup g;
  g.members = {query};
  groups_.push_back(std::move(g));
}

void SpStreamEngine::LeaveGroup(size_t query) {
  QueryGroup* g = GroupOf(query);
  if (g == nullptr) return;
  ResetGroup(g, /*reshaped=*/true);
  g->members.erase(std::find(g->members.begin(), g->members.end(), query));
  if (g->members.empty()) groups_.erase(groups_.begin() + (g - groups_.data()));
  // A departing leader hands the lead to the next member.
  std::sort(groups_.begin(), groups_.end(),
            [](const QueryGroup& a, const QueryGroup& b) {
              return a.members[0] < b.members[0];
            });
}

void SpStreamEngine::ResetGroup(QueryGroup* g, bool reshaped) {
  // Fold the live metrics into the retired accumulators first, so lifetime
  // totals survive the rebuild.
  for (size_t c = 0; c < g->pipelines.size(); ++c) {
    const std::string tag = CloneTag(*g, c);
    g->pipelines[c]->HarvestInto(&metrics_, tag);
    metrics_.RetireQuery(tag);
  }
  g->roots.clear();
  g->pipelines.clear();
  g->physicals.clear();
  g->routing = ShardRouting{};
  g->shard_fallback.clear();
  if (reshaped) g->checkpoint_stale = true;
}

void SpStreamEngine::SyncAnalyzerStats() {
  for (const auto& [name, state] : stream_states_) {
    const SpAnalyzerStats& s = state.analyzer->stats();
    const std::string prefix = "analyzer." + name + ".";
    metrics_.SetGauge(prefix + "sps_in", s.sps_in);
    metrics_.SetGauge(prefix + "sps_out", s.sps_out);
    metrics_.SetGauge(prefix + "sps_combined", s.sps_combined);
    metrics_.SetGauge(prefix + "sps_suppressed", s.sps_suppressed);
    metrics_.SetGauge(prefix + "sps_refined_by_server",
                      s.sps_refined_by_server);
    metrics_.SetGauge(prefix + "immutable_preserved", s.immutable_preserved);
  }
}

spstream::MetricsSnapshot SpStreamEngine::SnapshotMetrics() {
  SyncAnalyzerStats();
  metrics_.SetGauge("engine.queries", static_cast<int64_t>(queries_.size()));
  metrics_.SetGauge("engine.queries_quarantined", quarantined_count_);
  metrics_.SetGauge("engine.audit_events", audit_.total());
  metrics_.SetGauge("engine.overload_state",
                    static_cast<int64_t>(overload_.state()));
  metrics_.SetGauge("engine.shed_decisions", overload_.shed_decisions());
  if (watchdog_) {
    metrics_.SetGauge("engine.watchdog_running", watchdog_->running() ? 1 : 0);
  }
  if (shard_manager_) {
    metrics_.SetGauge("engine.shards",
                      static_cast<int64_t>(shard_manager_->num_shards()));
    metrics_.SetGauge("engine.shard_workers",
                      static_cast<int64_t>(shard_manager_->num_workers()));
    for (size_t i = 0; i < shard_manager_->num_shards(); ++i) {
      const ShardManager::ShardStats s = shard_manager_->Stats(i);
      const std::string prefix = "engine.shard" + std::to_string(i) + ".";
      metrics_.SetGauge(prefix + "tuples_processed", s.tuples_processed);
      metrics_.SetGauge(prefix + "sps_processed", s.sps_processed);
      metrics_.SetGauge(prefix + "epochs", s.epochs);
      metrics_.SetGauge(prefix + "queue_depth",
                        static_cast<int64_t>(s.queue_depth));
      metrics_.SetGauge(prefix + "queue_peak",
                        static_cast<int64_t>(s.queue_peak));
    }
  }
  return metrics_.Snapshot();
}

std::string SpStreamEngine::DumpMetrics(MetricsFormat format) {
  return SnapshotMetrics().Render(format);
}

Result<StreamId> SpStreamEngine::RegisterStream(SchemaPtr schema) {
  const std::string name = schema->stream_name();
  std::string payload;
  if (durability_ && !replaying_) storage::PutSchema(*schema, &payload);
  SP_ASSIGN_OR_RETURN(StreamId id, streams_.RegisterStream(std::move(schema)));
  StreamState state;
  state.analyzer = std::make_unique<SpAnalyzer>(&roles_, name);
  stream_states_.emplace(name, std::move(state));
  if (durability_ && !replaying_) {
    SP_RETURN_NOT_OK(durability_->LogCatalogRecord(
        storage::WalRecordType::kStreamRegister, std::move(payload)));
  }
  return id;
}

Status SpStreamEngine::RegisterSubject(
    const std::string& name, const std::vector<std::string>& role_names) {
  if (subjects_.count(name)) {
    return Status::AlreadyExists("subject '" + name + "' already exists");
  }
  std::vector<RoleId> ids;
  ids.reserve(role_names.size());
  for (const std::string& r : role_names) {
    // Subjects may only activate roles that exist (§II.A).
    SP_ASSIGN_OR_RETURN(RoleId id, roles_.Lookup(r));
    ids.push_back(id);
  }
  if (ids.empty()) {
    return Status::InvalidArgument(
        "every query specifier must hold at least one role (SII.A)");
  }
  // Write-ahead: the mutation is validated, so applying after a successful
  // log cannot fail — replay reproduces exactly what was applied.
  if (durability_ && !replaying_) {
    std::string payload;
    PutLengthPrefixed(name, &payload);
    PutVarint(role_names.size(), &payload);
    for (const std::string& r : role_names) PutLengthPrefixed(r, &payload);
    SP_RETURN_NOT_OK(durability_->LogCatalogRecord(
        storage::WalRecordType::kSubjectRegister, std::move(payload)));
  }
  subjects_.emplace(name, Subject(name, std::move(ids)));
  return Status::OK();
}

Status SpStreamEngine::UpdateSubjectRoles(
    const std::string& name, const std::vector<std::string>& role_names) {
  auto sub_it = subjects_.find(name);
  if (sub_it == subjects_.end()) {
    return Status::NotFound("unknown subject: " + name);
  }
  std::vector<RoleId> ids;
  ids.reserve(role_names.size());
  for (const std::string& r : role_names) {
    SP_ASSIGN_OR_RETURN(RoleId id, roles_.Lookup(r));
    ids.push_back(id);
  }
  if (ids.empty()) {
    return Status::InvalidArgument(
        "a subject must keep at least one role");
  }
  if (durability_ && !replaying_) {
    std::string payload;
    PutLengthPrefixed(name, &payload);
    PutVarint(role_names.size(), &payload);
    for (const std::string& r : role_names) PutLengthPrefixed(r, &payload);
    SP_RETURN_NOT_OK(durability_->LogCatalogRecord(
        storage::WalRecordType::kSubjectRoles, std::move(payload)));
  }
  sub_it->second.ReplaceRolesUnchecked(std::move(ids));

  // Re-plan every active query of this subject against the new roles.
  const RoleSet new_roles = RoleSet::FromIds(sub_it->second.roles());
  for (size_t i = 0; i < queries_.size(); ++i) {
    QueryState& qs = queries_[i];
    if (!qs.active || qs.subject != name) continue;
    qs.plan = PlanQuery(qs.bare_plan, new_roles);
    qs.roles = new_roles;
    // The new shield requires a fresh DAG; continuous state resets
    // (windows refill; the next sps re-install policies).
    ResetGroup(GroupOf(i), /*reshaped=*/true);
    if (options_.enable_audit) {
      AuditEvent e;
      e.kind = AuditEventKind::kPlanAdapt;
      e.scope = QueryTag(&qs);
      e.roles = new_roles.ToString(roles_);
      e.detail = "re-planned after role change of subject '" + name + "'";
      audit_.Append(std::move(e));
    }
  }
  return Status::OK();
}

Status SpStreamEngine::ExecuteInsertSp(const std::string& sql) {
  SP_ASSIGN_OR_RETURN(InsertSpStatement stmt, ParseInsertSp(sql));
  auto it = stream_states_.find(stmt.stream);
  if (it == stream_states_.end()) {
    return Status::NotFound("unknown stream: " + stmt.stream);
  }
  Planner planner(&streams_, &roles_);
  SP_ASSIGN_OR_RETURN(SecurityPunctuation sp,
                      planner.BuildSp(stmt, next_default_ts_++));
  return Push(stmt.stream, {StreamElement(std::move(sp))});
}

Status SpStreamEngine::AddServerPolicy(const std::string& stream_name,
                                       SecurityPunctuation sp) {
  auto it = stream_states_.find(stream_name);
  if (it == stream_states_.end()) {
    return Status::NotFound("unknown stream: " + stream_name);
  }
  return it->second.analyzer->AddServerPolicy(std::move(sp));
}

LogicalNodePtr SpStreamEngine::PlanQuery(const LogicalNodePtr& bare,
                                         const RoleSet& roles) const {
  LogicalNodePtr plan =
      ApplySsPlacement(bare, roles, options_.initial_placement);
  if (!options_.optimize_plans) return plan;
  // Every source costs at the default SourceStats (CostModel's fallback).
  CostModel model({}, CostModelOptions{});
  Optimizer optimizer(&model);
  return optimizer.Optimize(plan);
}

Result<QueryId> SpStreamEngine::RegisterQuery(const std::string& subject,
                                              const std::string& sql) {
  auto sub_it = subjects_.find(subject);
  if (sub_it == subjects_.end()) {
    return Status::NotFound("unknown subject: " + subject);
  }
  SP_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));

  Planner planner(&streams_, &roles_);
  const RoleSet query_roles = RoleSet::FromIds(sub_it->second.roles());
  SP_ASSIGN_OR_RETURN(LogicalNodePtr bare, planner.PlanSelect(stmt, RoleSet()));

  QueryState qs;
  qs.subject = subject;
  qs.sql = sql;
  qs.plan = PlanQuery(bare, query_roles);
  qs.roles = query_roles;
  qs.bare_plan = bare;  // shield-free twin: the multi-query sharing key
  CollectSourceStreams(qs.plan, &qs.source_streams);
  for (const std::string& s : qs.source_streams) {
    if (!stream_states_.count(s)) {
      return Status::NotFound("query references unknown stream: " + s);
    }
  }
  if (durability_ && !replaying_) {
    std::string payload;
    PutLengthPrefixed(subject, &payload);
    PutLengthPrefixed(sql, &payload);
    SP_RETURN_NOT_OK(durability_->LogCatalogRecord(
        storage::WalRecordType::kQueryRegister, std::move(payload)));
  }
  // The subject's role assignment freezes while it has registered queries.
  sub_it->second.Freeze();
  queries_.push_back(std::move(qs));
  JoinGroup(queries_.size() - 1);
  return static_cast<QueryId>(queries_.size() - 1);
}

Status SpStreamEngine::DeregisterQuery(QueryId id) {
  SP_ASSIGN_OR_RETURN(QueryState * qs, FindQuery(id));
  if (!qs->active) {
    return Status::InvalidArgument("query already deregistered");
  }
  if (durability_ && !replaying_) {
    std::string payload;
    PutVarint(static_cast<uint64_t>(id), &payload);
    SP_RETURN_NOT_OK(durability_->LogCatalogRecord(
        storage::WalRecordType::kQueryDeregister, std::move(payload)));
  }
  qs->active = false;
  const QueryGroup* g = GroupOf(id);
  if (g != nullptr && g->quarantined) {
    // The gauge tracks quarantined queries still registered; a deregistered
    // one no longer needs operator attention.
    --quarantined_count_;
    metrics_.SetGauge("engine.queries_quarantined", quarantined_count_);
  }
  LeaveGroup(id);
  auto sub_it = subjects_.find(qs->subject);
  if (sub_it != subjects_.end()) sub_it->second.Unfreeze();
  return Status::OK();
}

namespace {

/// Per-node metrics for EXPLAIN ANALYZE: the sum across all DAG clones of
/// the node's physical operator.
using NodeMetricsMap =
    std::unordered_map<const LogicalNode*, OperatorMetrics>;

/// EXPLAIN ANALYZE rendering: the logical tree with each node annotated by
/// the live metrics of the physical operator(s) executing it.
/// Sum of total_nanos across all annotated nodes (denominator of the
/// per-operator time share EXPLAIN ANALYZE prints).
int64_t PlanTotalNanos(const NodeMetricsMap& node_metrics) {
  int64_t total = 0;
  for (const auto& [node, m] : node_metrics) {
    (void)node;
    total += m.total_nanos;
  }
  return total;
}

void RenderAnalyzedPlan(const LogicalNodePtr& node,
                        const NodeMetricsMap& node_metrics,
                        int64_t plan_total_nanos, int indent,
                        std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(node->Describe());
  auto it = node_metrics.find(node.get());
  if (it != node_metrics.end()) {
    const OperatorMetrics& m = it->second;
    std::ostringstream os;
    os << "  [actual: tuples=" << m.tuples_in << "->" << m.tuples_out
       << " sps=" << m.sps_in << "->" << m.sps_out;
    if (m.tuples_dropped_security > 0) {
      os << " sec_drop=" << m.tuples_dropped_security;
    }
    if (m.tuples_dropped_predicate > 0) {
      os << " pred_drop=" << m.tuples_dropped_predicate;
    }
    if (m.policy_installs > 0) os << " policy_installs=" << m.policy_installs;
    if (m.policy_install_failures > 0) {
      os << " policy_install_faults=" << m.policy_install_failures;
    }
    os << " total=" << m.total_nanos / 1e6 << "ms";
    if (plan_total_nanos > 0) {
      // The same per-operator attribution the trace spans carry, folded to
      // a share of the whole plan's processing time.
      char share[32];
      std::snprintf(share, sizeof(share), " share=%.1f%%",
                    100.0 * static_cast<double>(m.total_nanos) /
                        static_cast<double>(plan_total_nanos));
      os << share;
    }
    if (m.join_nanos > 0) os << " join=" << m.join_nanos / 1e6 << "ms";
    if (m.sp_maintenance_nanos > 0) {
      os << " sp_maint=" << m.sp_maintenance_nanos / 1e6 << "ms";
    }
    if (m.tuple_maintenance_nanos > 0) {
      os << " tup_maint=" << m.tuple_maintenance_nanos / 1e6 << "ms";
    }
    if (m.peak_state_bytes > 0) os << " peak_state=" << m.peak_state_bytes;
    if (m.batches_in > 0) {
      os << " batches=" << m.batches_in << " avg_batch=" << std::fixed
         << std::setprecision(1) << m.AvgBatchSize();
    }
    os << "]";
    out->append(os.str());
  }
  out->push_back('\n');
  for (const LogicalNodePtr& child : node->children) {
    RenderAnalyzedPlan(child, node_metrics, plan_total_nanos, indent + 1, out);
  }
}

}  // namespace

Result<std::string> SpStreamEngine::ExplainQuery(QueryId id,
                                                 bool analyze) const {
  SP_ASSIGN_OR_RETURN(const QueryState* qs, FindQuery(id));
  const QueryGroup* g = GroupOf(id);
  // Self-healing annotation (docs/ROBUSTNESS.md): how many watchdog-driven
  // recovery attempts this query's group has consumed, and whether it is
  // now beyond automatic help.
  const bool quarantined = g != nullptr && g->quarantined;
  const std::string quarantine_note =
      quarantined ? "QUARANTINED (fail-closed): " + g->quarantine_reason + "\n"
                  : "";
  std::string recovery_note;
  if (quarantined) {
    const int max_attempts = overload_.options().max_recovery_attempts;
    if (g->permanently_quarantined) {
      recovery_note = "recovery: PERMANENT after " +
                      std::to_string(g->recovery_attempts) +
                      " attempts (only \\recover can resurrect)\n";
    } else if (max_attempts > 0) {
      recovery_note = "recovery: attempt " +
                      std::to_string(g->recovery_attempts) + "/" +
                      std::to_string(max_attempts) +
                      (g->next_recovery_nanos > 0 ? " scheduled (backoff)\n"
                                                  : " pending\n");
    }
  } else if (g != nullptr && g->recovery_attempts > 0) {
    recovery_note = "recovery: healthy after " +
                    std::to_string(g->recovery_attempts) +
                    " attempt(s); state restored from the last durable "
                    "checkpoint\n";
  }
  const std::string fallback_note =
      g != nullptr && !g->shard_fallback.empty()
          ? "sharding: fallback to single-threaded (" + g->shard_fallback +
                ")\n"
          : "";
  if (!analyze) return qs->plan->ToString() + quarantine_note + recovery_note;
  if (g == nullptr || g->pipelines.empty()) {
    // A quarantined query always lands here: its group's DAG is torn down.
    return qs->plan->ToString() +
           (quarantined ? quarantine_note
                        : "(analyze: query has not executed yet)\n") +
           recovery_note + fallback_note;
  }

  // The member's own root: its plan, or its split SS over the shared
  // trunk. Node annotations are summed across the DAG clones; a sharded
  // group then gets one row per shard (docs/OBSERVABILITY.md).
  const size_t member = static_cast<size_t>(
      std::find(g->members.begin(), g->members.end(), id) -
      g->members.begin());
  NodeMetricsMap merged;
  for (const StreamingPhysicalPlan& physical : g->physicals) {
    for (const auto& [node, op] : physical.node_ops) {
      if (op != nullptr) merged[node].Merge(op->metrics());
    }
  }
  std::string out = recovery_note;
  RenderAnalyzedPlan(g->roots[member], merged, PlanTotalNanos(merged), 0,
                     &out);
  out += fallback_note;
  if (!g->routing.shardable) return out;
  std::ostringstream os;
  os << "shards: " << g->pipelines.size() << " (keys:";
  for (const LeafShardKey& key : g->routing.leaf_keys) {
    if (key.key_col == LeafShardKey::kByTupleId) {
      os << " tid";
    } else {
      os << " col" << key.key_col;
    }
  }
  os << ") workers: " << shard_manager_->num_workers() << "\n";
  for (size_t s = 0; s < g->pipelines.size(); ++s) {
    const StreamingPhysicalPlan& physical = g->physicals[s];
    int64_t tuples_in = 0, sps_in = 0, installs = 0;
    for (const auto& [stream, src] : physical.sources) {
      (void)stream;
      tuples_in += src->metrics().tuples_in;
      sps_in += src->metrics().sps_in;
    }
    for (const auto& op : g->pipelines[s]->operators()) {
      installs += op->metrics().policy_installs;
    }
    os << "  shard " << s << ": tuples=" << tuples_in << " sps=" << sps_in
       << " results=" << physical.sinks[member]->metrics().tuples_in
       << " policy_installs=" << installs;
    const ShardManager::ShardStats st = shard_manager_->Stats(s);
    os << " queue_depth=" << st.queue_depth << " queue_peak=" << st.queue_peak
       << "\n";
  }
  out += os.str();
  return out;
}

Status SpStreamEngine::Push(const std::string& stream_name,
                            std::vector<StreamElement> elements) {
  auto it = stream_states_.find(stream_name);
  if (it == stream_states_.end()) {
    return Status::NotFound("unknown stream: " + stream_name);
  }
  StreamState& state = it->second;
  if (overload_.options().enable_shedding) {
    // Admission control: sample pressure against this stream's backlog,
    // then (in kShed only) drop data tuples. Sps/controls are never shed —
    // the PolicyTracker state downstream must track every revocation even
    // while the data plane degrades.
    ObservePressure(state.pending.size());
    (void)ShedAtAdmission(stream_name, &elements);
  }
  for (StreamElement& e : elements) {
    // Sp-batch lifecycle: the admission decision is the first engine-side
    // span of the batch's trace (the wire decode span, when the push came
    // over the network, is its parent via the same deterministic trace id).
    const bool traced_sp =
        e.is_sp() && Tracer::Global().SampleSpBatch(e.ts());
    const Timestamp sp_ts = traced_sp ? e.ts() : 0;
    TraceSpan span(TraceCat::kAnalyzer, "analyzer.admit",
                   traced_sp ? SpBatchTraceId(sp_ts) : 0, sp_ts);
    const size_t before = state.pending.size();
    for (StreamElement& admitted : state.analyzer->Process(std::move(e))) {
      if (durability_ && admitted.is_sp()) {
        // Forensic trail: which sp-batches were admitted rides in the next
        // epoch's group commit (not durable until the epoch is).
        std::string payload;
        PutLengthPrefixed(stream_name, &payload);
        PutVarint(ZigZagEncode(admitted.ts()), &payload);
        durability_->BufferForensic(storage::WalRecordType::kSpAdmitted,
                                    std::move(payload));
      }
      state.pending.push_back(std::move(admitted));
    }
    if (traced_sp) {
      span.set_args(sp_ts,
                    static_cast<int64_t>(state.pending.size() - before));
    }
  }
  return Status::OK();
}

Status SpStreamEngine::Run() {
  const int64_t run_start = NowNanos();
  // One trace per Run() epoch: batches that carry no sampled sp attach
  // their operator/shard spans here. Published engine-wide so shard worker
  // threads (and the net serve loop) can pick it up as their ambient trace.
  const TraceId epoch_trace =
      SP_TRACE_ENABLED() ? EpochTraceId(static_cast<uint64_t>(++run_epoch_seq_))
                         : 0;
  Tracer::Global().SetEpochTrace(epoch_trace);
  ScopedTraceContext trace_ctx(epoch_trace);
  TraceSpan run_span(TraceCat::kEngine, "engine.run", epoch_trace,
                     run_epoch_seq_, static_cast<int64_t>(queries_.size()));
  // Self-healing pass: quarantined queries whose backoff elapsed get one
  // recovery attempt before this epoch executes (safe point — no pipeline
  // is mid-flight).
  MaybeRecoverQuarantined();
  // Flush analyzer tails so trailing sps are visible to the queries.
  for (auto& [name, state] : stream_states_) {
    (void)name;
    for (StreamElement& e : state.analyzer->Flush()) {
      state.pending.push_back(std::move(e));
    }
  }

  for (QueryGroup& g : groups_) {
    // Quarantined groups stay dark until recovered: their DAGs are gone
    // and re-running them would resume under unknown policy state. The
    // engine keeps serving every other group.
    if (g.quarantined) continue;
    SP_RETURN_NOT_OK(RunGroup(&g));
  }
  // Durable commit point: checkpoint this epoch's operator-state deltas and
  // group-commit. Staged output is released only on success — a failed
  // commit discards ALL of it, engine-wide, so a client never sees a result
  // the next recovery won't reproduce (at-most-once). A quarantined group
  // already discarded its own members' output and commits no deltas.
  if (durability_) {
    Status commit = CommitEpochDurable();
    if (commit.ok()) {
      for (QueryState& qs : queries_) {
        for (Tuple& t : qs.staged) {
          if (qs.callback) qs.callback(t);
          qs.results.push_back(std::move(t));
        }
        qs.staged.clear();
      }
    } else {
      for (QueryState& qs : queries_) qs.staged.clear();
      metrics_.AddCounter("storage.epochs_discarded");
      if (options_.enable_audit) {
        AuditEvent e;
        e.kind = AuditEventKind::kStorage;
        e.scope = "engine";
        e.detail = "epoch output discarded (commit failed): " +
                   commit.ToString();
        audit_.Append(std::move(e));
      }
    }
  }
  for (auto& [name, state] : stream_states_) {
    (void)name;
    state.pending.clear();
  }
  SyncAnalyzerStats();
  metrics_.AddCounter("engine.run_epochs");
  last_epoch_nanos_ = NowNanos() - run_start;
  metrics_.RecordLatency("engine.run", last_epoch_nanos_);
  if (options_.epoch_deadline_ms > 0 &&
      last_epoch_nanos_ > options_.epoch_deadline_ms * 1000000) {
    metrics_.AddCounter("engine.epoch_deadline_misses");
  }
  // Re-sample pressure with the fresh epoch duration: a deadline miss holds
  // the controller in kThrottle/kShed even though the backlog just drained.
  if (overload_.options().enable_shedding || options_.epoch_deadline_ms > 0) {
    ObservePressure(0);
  }
  // The epoch trace stays published after the run: the serve loop delivers
  // this epoch's RESULT frames after the engine lock drops, and those sends
  // belong to this epoch's trace. The next Run() overwrites it.
  return Status::OK();
}

Status SpStreamEngine::CompileGroup(QueryGroup* g) {
  if (!g->pipelines.empty()) return Status::OK();
  const QueryState& leader = queries_[g->members[0]];
  std::vector<LogicalNodePtr> roots;
  if (g->members.size() == 1) {
    roots = {leader.plan};
  } else {
    // §VI.C: a merged SS and the shared subplan once, then one split SS per
    // member over the trunk's output.
    std::vector<RoleSet> member_roles;
    for (size_t m : g->members) member_roles.push_back(queries_[m].roles);
    roots = BuildSharedPlan(leader.bare_plan, member_roles).query_roots;
  }
  ShardRouting routing;
  std::string fallback;
  if (shard_manager_) {
    // Split shields are stateless, so the first root's routing is the DAG's.
    routing = AnalyzeShardRouting(roots[0]);
    if (!routing.shardable) fallback = routing.reason;
  }
  const size_t clones = routing.shardable ? shard_manager_->num_shards() : 1;
  const std::string tag = GroupTag(*g);
  std::vector<std::unique_ptr<Pipeline>> pipelines;
  std::vector<StreamingPhysicalPlan> physicals;
  for (size_t c = 0; c < clones; ++c) {
    auto pipeline = std::make_unique<Pipeline>(&exec_ctx_);
    SP_ASSIGN_OR_RETURN(
        StreamingPhysicalPlan physical,
        BuildStreamingPhysicalPlan(pipeline.get(), roots, options_.physical));
    // Audit scope: every clone speaks for the group, except that each split
    // shield speaks for its own query. Per-shard registry keys
    // ("q0.shard1") are applied at harvest time instead.
    pipeline->SetQueryTag(tag);
    if (g->members.size() > 1) {
      for (size_t k = 0; k < roots.size(); ++k) {
        physical.node_ops.at(roots[k].get())
            ->set_query_tag(QueryTag(&queries_[g->members[k]]));
      }
    }
    pipelines.push_back(std::move(pipeline));
    physicals.push_back(std::move(physical));
  }
  if (routing.shardable &&
      physicals[0].sources.size() != routing.leaf_keys.size()) {
    // Router and plan compiler disagree on the leaf list; don't risk a
    // wrong partition — fall back to the first clone, inline.
    routing.shardable = false;
    fallback = "router/compiler leaf-count mismatch";
    pipelines.resize(1);
    physicals.resize(1);
  }
  if (!fallback.empty()) {
    AuditGroup(*g, AuditEventKind::kShardFallback,
               "sharding fallback to single-threaded: " + fallback);
  }
  g->roots = std::move(roots);
  g->pipelines = std::move(pipelines);
  g->physicals = std::move(physicals);
  g->routing = std::move(routing);
  g->shard_fallback = std::move(fallback);
  return Status::OK();
}

Status SpStreamEngine::RunGroup(QueryGroup* g) {
  const int64_t epoch_start = NowNanos();
  SP_RETURN_NOT_OK(CompileGroup(g));
  // Operator state persists, so a policy installed in an earlier epoch
  // still governs this epoch's tuples, for every member alike.
  Histogram tuple_latency;
  const std::string fault_reason = FeedGroup(g, &tuple_latency);
  for (size_t m : g->members) {
    metrics_.MergeTupleLatency(QueryTag(&queries_[m]), tuple_latency);
  }
  if (!fault_reason.empty()) {
    QuarantineGroup(g, fault_reason);
    return Status::OK();
  }
  // Deterministic merge: shard id first, arrival order within the shard.
  for (size_t k = 0; k < g->members.size(); ++k) {
    QueryState* qs = &queries_[g->members[k]];
    for (StreamingPhysicalPlan& physical : g->physicals) {
      for (Tuple& t : physical.sinks[k]->TakeTuples()) {
        DeliverResult(qs, std::move(t));
      }
    }
  }
  const int64_t epoch_nanos = NowNanos() - epoch_start;
  for (size_t m : g->members) {
    metrics_.RecordEpochLatency(QueryTag(&queries_[m]), epoch_nanos);
  }
  for (size_t c = 0; c < g->pipelines.size(); ++c) {
    g->pipelines[c]->HarvestInto(&metrics_, CloneTag(*g, c));
  }
  return Status::OK();
}

void SpStreamEngine::DeliverResult(QueryState* qs, Tuple t) {
  if (durability_) {
    // Held back until this epoch's durable commit (delivered ≡ durable).
    qs->staged.push_back(std::move(t));
    return;
  }
  if (qs->callback) qs->callback(t);
  qs->results.push_back(std::move(t));
}

std::string SpStreamEngine::FeedGroup(QueryGroup* g,
                                      Histogram* tuple_latency) {
  const size_t clones = g->pipelines.size();
  // Tier-1 degradation: under pressure the batches shrink, so sinks drain
  // (and results deliver) at a finer granularity and no shard queue lags
  // the barrier by much.
  const size_t batch_size =
      overload_.EffectiveBatchSize(std::max<size_t>(1, options_.batch_size));
  // Feed columnar above batch size 1 so the kernels engage from the source
  // on; size 1 keeps the row transport (a one-row columnar batch costs more
  // than the element it carries).
  const bool columnar = batch_size > 1;
  // Route this epoch's admitted elements leaf by leaf into one micro-batch
  // per clone: tuples go to their shard (hash of the leaf's shard key), sps
  // and controls to every clone so each clone's policy state converges
  // identically. Equivalence only needs per-clone element order. A batch
  // is handed off whole when it fills or when the leaf's input runs out:
  // fed here for a one-clone group, else routed to its shard.
  for (size_t leaf = 0; leaf < g->physicals[0].sources.size(); ++leaf) {
    const std::string& stream = g->physicals[0].sources[leaf].first;
    const std::vector<StreamElement>& pending =
        stream_states_.at(stream).pending;
    std::vector<ElementBatch> bufs(clones);
    auto begin = [&](size_t c) {
      bufs[c] = ElementBatch();
      if (columnar) bufs[c].BeginColumnar();
      bufs[c].reserve(std::min(batch_size, pending.size()));
    };
    auto flush = [&](size_t c) {
      PushSource* src = g->physicals[c].sources[leaf].second;
      if (clones == 1) {
        inline_feed_.Feed(src, std::move(bufs[c]));
      } else {
        shard_manager_->RouteBatch(c, src, std::move(bufs[c]));
      }
    };
    auto add = [&](size_t c, const StreamElement& e) {
      bufs[c].Append(e);  // copy: several groups read the same input
      if (bufs[c].size() < batch_size) return;
      flush(c);
      begin(c);
    };
    for (size_t c = 0; c < clones; ++c) begin(c);
    for (const StreamElement& e : pending) {
      if (e.is_tuple()) {
        add(clones == 1
                ? 0
                : ShardOf(e.tuple(), g->routing.leaf_keys[leaf], clones),
            e);
      } else {
        for (size_t c = 0; c < clones; ++c) add(c, e);
      }
    }
    for (size_t c = 0; c < clones; ++c) {
      if (!bufs[c].empty()) flush(c);
    }
  }
  std::vector<FaultRecord> faults;
  if (clones == 1) {
    faults = inline_feed_.TakeEpoch(tuple_latency);
  } else {
    // Barrier: every shard drains its share before any sink is read.
    shard_manager_->CompleteEpoch();
    faults = shard_manager_->TakeEpoch(tuple_latency);
  }
  // Supervision: Run feeds and barriers one group at a time, so every
  // fault taken here belongs to exactly this group's epoch.
  std::string reason;
  for (const FaultRecord& f : faults) {
    if (!reason.empty()) reason += "; ";
    reason +=
        "shard " + std::to_string(f.shard) + " " + f.site + ": " + f.detail;
  }
  return reason;
}

void SpStreamEngine::AuditGroup(const QueryGroup& g, AuditEventKind kind,
                                const std::string& detail) {
  if (!options_.enable_audit) return;
  for (size_t m : g.members) {
    AuditEvent e;
    e.kind = kind;
    e.scope = QueryTag(&queries_[m]);
    e.roles = queries_[m].roles.ToString(roles_);
    e.detail = detail;
    e.trace_id = Tracer::Global().epoch_trace();
    audit_.Append(std::move(e));
  }
}

void SpStreamEngine::QuarantineGroup(QueryGroup* g,
                                     const std::string& reason) {
  // Every member is fenced together: they share one DAG, and a clone that
  // went dark mid-epoch may have diverged policy state, so nothing the DAG
  // produced this epoch is deliverable to any of them (fail closed — drop,
  // never leak). Their staged output goes now, the sinks' with the DAG.
  for (size_t m : g->members) queries_[m].staged.clear();
  g->quarantined = true;
  g->quarantine_reason = reason;
  const int64_t fenced = static_cast<int64_t>(g->members.size());
  quarantined_count_ += fenced;
  // Self-healing: schedule a backoff-gated recovery attempt, or give up
  // permanently once the attempt budget is spent.
  const OverloadOptions& oo = overload_.options();
  if (oo.max_recovery_attempts > 0 && !g->permanently_quarantined) {
    if (g->recovery_attempts >= oo.max_recovery_attempts) {
      g->permanently_quarantined = true;
      g->next_recovery_nanos = 0;
      metrics_.AddCounter("engine.permanent_quarantines");
      AuditGroup(*g, AuditEventKind::kRecovery,
                 "permanently quarantined after " +
                     std::to_string(g->recovery_attempts) +
                     " failed recovery attempts");
    } else {
      int64_t backoff_ms =
          oo.recovery_backoff_base_ms *
          (int64_t{1} << std::min(g->recovery_attempts, 20));
      backoff_ms = std::min(backoff_ms, kRecoveryBackoffMaxMs);
      g->next_recovery_nanos = NowNanos() + backoff_ms * 1000000;
    }
  }
  // Incident: snapshot the flight recorder with the epoch's trace id so the
  // spans leading into the quarantine survive for post-mortem.
  Tracer::Global().NoteIncident("query_quarantine",
                                Tracer::Global().epoch_trace());
  // Epoch-consistent teardown: callers reach here only after the shard
  // barrier drained, so the clones are quiescent and safe to destroy. The
  // shape is unchanged, so the group's checkpoint stays restorable.
  ResetGroup(g, /*reshaped=*/false);
  metrics_.AddCounter("engine.query_quarantines", fenced);
  metrics_.SetGauge("engine.queries_quarantined", quarantined_count_);
  AuditGroup(*g, AuditEventKind::kQueryQuarantine, reason);
  if (durability_) {
    // Incident dump: persist the audit tail (including the quarantine event
    // above) now, not at the next clean shutdown — the process may not get
    // one.
    (void)durability_->FlushAuditTail(audit_);
  }
}

Result<bool> SpStreamEngine::IsQuarantined(QueryId id) const {
  SP_RETURN_NOT_OK(FindQuery(id).status());
  const QueryGroup* g = GroupOf(id);
  return g != nullptr && g->quarantined;
}

// ---- overload resilience (docs/ROBUSTNESS.md) ------------------------------

void SpStreamEngine::ObservePressure(size_t pending_backlog) {
  size_t max_queue = 0;
  if (shard_manager_) {
    for (size_t i = 0; i < shard_manager_->num_shards(); ++i) {
      max_queue = std::max(max_queue, shard_manager_->Stats(i).queue_depth);
    }
  }
  const OverloadState prev = overload_.state();
  const OverloadState now = overload_.Observe(
      pending_backlog, max_queue, last_epoch_nanos_, options_.epoch_deadline_ms);
  metrics_.SetGauge("engine.overload_state", static_cast<int64_t>(now));
  if (now != prev) {
    metrics_.AddCounter("engine.overload_transitions");
    // Tier changes are rare lifecycle events — always in the flight
    // recorder, so an incident dump shows when degradation engaged.
    Tracer::Global().FlightMark(TraceCat::kIncident, "overload_state",
                                Tracer::Global().epoch_trace(),
                                static_cast<int64_t>(now),
                                static_cast<int64_t>(pending_backlog));
  }
}

int SpStreamEngine::StreamPriority(const std::string& stream_name) const {
  bool any = false;
  int best = 0;
  for (const QueryGroup& g : groups_) {
    if (g.quarantined) continue;
    for (size_t m : g.members) {
      const QueryState& qs = queries_[m];
      if (std::find(qs.source_streams.begin(), qs.source_streams.end(),
                    stream_name) == qs.source_streams.end()) {
        continue;
      }
      best = any ? std::max(best, qs.priority) : qs.priority;
      any = true;
    }
  }
  return best;
}

int SpStreamEngine::TopPriority() const {
  bool any = false;
  int best = 0;
  for (const QueryGroup& g : groups_) {
    if (g.quarantined) continue;
    for (size_t m : g.members) {
      best = any ? std::max(best, queries_[m].priority) : queries_[m].priority;
      any = true;
    }
  }
  return best;
}

size_t SpStreamEngine::ShedAtAdmission(const std::string& stream_name,
                                       std::vector<StreamElement>* elements) {
  if (overload_.state() != OverloadState::kShed) return 0;
  const int stream_pri = StreamPriority(stream_name);
  const int top_pri = TopPriority();
  size_t shed = 0;
  elements->erase(
      std::remove_if(elements->begin(), elements->end(),
                     [&](const StreamElement& e) {
                       // The invariant: only data tuples are ever shed.
                       // Sps, control boundaries and revocations pass
                       // unconditionally, so downstream policy state never
                       // goes stale-permissive under load.
                       if (!e.is_tuple()) return false;
                       if (!overload_.ShouldShed(stream_pri, top_pri)) {
                         return false;
                       }
                       ++shed;
                       return true;
                     }),
      elements->end());
  if (shed == 0) return 0;
  metrics_.AddCounter("engine.tuples_shed", static_cast<int64_t>(shed));
  Tracer::Global().FlightMark(TraceCat::kIncident, "overload_shed",
                              Tracer::Global().epoch_trace(),
                              static_cast<int64_t>(shed));
  if (options_.enable_audit) {
    // One event per Push call, naming the queries whose input just thinned:
    // a shed is an overload decision, never confusable with a policy
    // denial (those stay AuditEventKind::kDenial, per tuple).
    AuditEvent e;
    e.kind = AuditEventKind::kShed;
    e.stream = stream_name;
    std::string scope;
    for (const QueryGroup& g : groups_) {
      if (g.quarantined) continue;
      for (size_t m : g.members) {
        const QueryState& qs = queries_[m];
        if (std::find(qs.source_streams.begin(), qs.source_streams.end(),
                      stream_name) == qs.source_streams.end()) {
          continue;
        }
        if (!scope.empty()) scope += ",";
        scope += QueryTag(&qs);
      }
    }
    e.scope = scope.empty() ? "engine" : scope;
    e.detail =
        "overload shed " + std::to_string(shed) +
        " data tuples at admission (policy=" +
        (overload_.options().shed_policy == ShedPolicy::kPriority ? "priority"
                                                                  : "random") +
        "); sps admitted losslessly";
    audit_.Append(std::move(e));
  }
  return shed;
}

Status SpStreamEngine::SetQueryPriority(QueryId id, int priority) {
  SP_ASSIGN_OR_RETURN(QueryState * qs, FindQuery(id));
  qs->priority = priority;
  return Status::OK();
}

void SpStreamEngine::MaybeRecoverQuarantined() {
  if (overload_.options().max_recovery_attempts <= 0) return;
  const int64_t now = NowNanos();
  for (QueryGroup& g : groups_) {
    if (!g.quarantined || g.permanently_quarantined) continue;
    if (g.next_recovery_nanos == 0 || now < g.next_recovery_nanos) continue;
    // A failed attempt re-arms its own backoff (or goes permanent) inside
    // RecoverGroup; the engine keeps serving either way.
    (void)RecoverGroup(&g, /*manual=*/false);
  }
}

Status SpStreamEngine::RecoverQuery(QueryId id) {
  SP_ASSIGN_OR_RETURN(QueryState * qs, FindQuery(id));
  if (!qs->active) {
    return Status::InvalidArgument("query is deregistered");
  }
  QueryGroup* g = GroupOf(id);
  if (!g->quarantined) {
    return Status::InvalidArgument("query " + QueryTag(qs) +
                                   " is not quarantined");
  }
  return RecoverGroup(g, /*manual=*/true);
}

Status SpStreamEngine::RecoverGroup(QueryGroup* g, bool manual) {
  if (!manual) ++g->recovery_attempts;
  g->next_recovery_nanos = 0;
  const size_t leader = g->members[0];
  TraceSpan span(TraceCat::kEngine, "engine.recover",
                 Tracer::Global().epoch_trace(),
                 static_cast<int64_t>(leader), g->recovery_attempts);
  const std::string attempt =
      manual ? std::string("manual recovery")
             : "recovery attempt " + std::to_string(g->recovery_attempts);

  // Rebuild the DAG torn down at quarantine time (fresh operators start
  // with deny-all policy trackers — fail closed by construction) and
  // restore operator state from the last durable checkpoint — the same
  // delta chain a process restart would replay, filtered to this group —
  // so windows/aggregates resume where the last commit left them instead
  // of refilling. SS operators restore FAIL-CLOSED by contract (deny-all
  // at the checkpointed ts until a fresh sp-batch arrives).
  Result<std::vector<storage::StateEntry>> blobs =
      durability_ ? durability_->ReadQueryCheckpoint(
                        static_cast<uint32_t>(leader))
                  : Result<std::vector<storage::StateEntry>>(
                        std::vector<storage::StateEntry>{});
  Result<size_t> restored =
      blobs.ok() ? RestoreGroup(g, *blobs) : Result<size_t>(blobs.status());
  if (!restored.ok()) {
    // Don't leave a half-built DAG behind; the group stays quarantined
    // (fail closed) and the attempt is on the record.
    ResetGroup(g, /*reshaped=*/false);
    metrics_.AddCounter("engine.recovery_failures");
    if (!manual &&
        g->recovery_attempts >= overload_.options().max_recovery_attempts) {
      g->permanently_quarantined = true;
      metrics_.AddCounter("engine.permanent_quarantines");
    }
    AuditGroup(*g, AuditEventKind::kRecovery,
               attempt + " failed: " + restored.status().ToString() +
                   (g->permanently_quarantined ? " (now permanent)" : ""));
    return restored.status();
  }

  // Back in service, every member at once. A manual recover also clears
  // the permanent flag (operator override).
  g->quarantined = false;
  g->quarantine_reason.clear();
  g->permanently_quarantined = false;
  const int64_t healed = static_cast<int64_t>(g->members.size());
  quarantined_count_ -= healed;
  metrics_.SetGauge("engine.queries_quarantined", quarantined_count_);
  metrics_.AddCounter("engine.query_recoveries", healed);
  Tracer::Global().FlightMark(TraceCat::kIncident, "query_recovered",
                              Tracer::Global().epoch_trace(),
                              static_cast<int64_t>(leader),
                              g->recovery_attempts);
  AuditGroup(*g, AuditEventKind::kRecovery,
             attempt + " succeeded (" + std::to_string(*restored) +
                 " state blobs restored); policy trackers fail closed until "
                 "the next sp-batch");
  if (durability_) (void)durability_->FlushAuditTail(audit_);
  return Status::OK();
}

Status SpStreamEngine::SubscribeResults(
    QueryId id, std::function<void(const Tuple&)> cb) {
  SP_ASSIGN_OR_RETURN(QueryState * qs, FindQuery(id));
  qs->callback = std::move(cb);
  return Status::OK();
}

// ---- durable state (docs/DURABILITY.md) ------------------------------------

Status SpStreamEngine::CommitEpochDurable() {
  TraceSpan span(TraceCat::kStorage, "storage.commit",
                 Tracer::CurrentTrace(), committed_epochs_ + 1);
  // A reshaped group's entries from its old DAG still sit in the delta
  // chain under its leader's id; a full rebase is what drops them.
  bool full = durability_->WantsFullCheckpoint();
  for (const QueryGroup& g : groups_) full |= g.checkpoint_stale;
  std::vector<storage::StateEntry> entries;
  std::vector<Operator*> durable_ops;
  for (const QueryGroup& g : groups_) {
    if (g.quarantined) continue;
    // A group's entries are keyed by its leader query.
    for (size_t c = 0; c < g.pipelines.size(); ++c) {
      const auto& ops = g.pipelines[c]->operators();
      for (size_t oi = 0; oi < ops.size(); ++oi) {
        Operator* op = ops[oi].get();
        if (!op->HasDurableState()) continue;
        storage::StateEntry entry;
        entry.key.query = static_cast<uint32_t>(g.members[0]);
        entry.key.shard = static_cast<uint32_t>(c);
        entry.key.op_index = static_cast<uint32_t>(oi);
        entry.label = op->label();
        op->CheckpointState(&entry.blob, full);
        durable_ops.push_back(op);
        // An empty blob means "unchanged since the cursor" — elided.
        if (!entry.blob.empty()) entries.push_back(std::move(entry));
      }
    }
  }
  storage::EpochMeta meta;
  meta.epoch = static_cast<uint64_t>(committed_epochs_) + 1;
  meta.next_default_ts = next_default_ts_;
  meta.num_shards = static_cast<int>(options_.num_shards);
  meta.batch_size = options_.batch_size;
  SP_RETURN_NOT_OK(durability_->CommitEpoch(meta, full, entries));
  // The commit point passed: only now may checkpoint cursors advance.
  for (Operator* op : durable_ops) op->OnCheckpointDurable();
  if (full) {
    for (QueryGroup& g : groups_) g.checkpoint_stale = false;
  }
  ++committed_epochs_;
  metrics_.SetGauge("storage.durable_epochs", committed_epochs_);
  return Status::OK();
}

Status SpStreamEngine::ReplayCatalog(
    std::span<const storage::WalRecord> records) {
  using storage::WalRecordType;
  for (const storage::WalRecord& r : records) {
    const std::string_view data = r.payload;
    size_t off = 0;
    switch (static_cast<WalRecordType>(r.type)) {
      case WalRecordType::kRoleRegister: {
        SP_ASSIGN_OR_RETURN(std::string name, GetLengthPrefixed(data, &off));
        (void)RegisterRole(name);
        break;
      }
      case WalRecordType::kStreamRegister: {
        SP_ASSIGN_OR_RETURN(SchemaPtr schema, storage::GetSchema(data, &off));
        auto res = RegisterStream(std::move(schema));
        if (!res.ok()) return res.status();
        break;
      }
      case WalRecordType::kSubjectRegister:
      case WalRecordType::kSubjectRoles: {
        SP_ASSIGN_OR_RETURN(std::string name, GetLengthPrefixed(data, &off));
        SP_ASSIGN_OR_RETURN(uint64_t n, GetVarint(data, &off));
        std::vector<std::string> role_names;
        role_names.reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
          SP_ASSIGN_OR_RETURN(std::string rn, GetLengthPrefixed(data, &off));
          role_names.push_back(std::move(rn));
        }
        if (static_cast<WalRecordType>(r.type) ==
            WalRecordType::kSubjectRegister) {
          SP_RETURN_NOT_OK(RegisterSubject(name, role_names));
        } else {
          SP_RETURN_NOT_OK(UpdateSubjectRoles(name, role_names));
        }
        break;
      }
      case WalRecordType::kQueryRegister: {
        SP_ASSIGN_OR_RETURN(std::string subject,
                            GetLengthPrefixed(data, &off));
        SP_ASSIGN_OR_RETURN(std::string sql, GetLengthPrefixed(data, &off));
        auto res = RegisterQuery(subject, sql);
        if (!res.ok()) return res.status();
        break;
      }
      case WalRecordType::kQueryDeregister: {
        SP_ASSIGN_OR_RETURN(uint64_t id, GetVarint(data, &off));
        SP_RETURN_NOT_OK(DeregisterQuery(static_cast<QueryId>(id)));
        break;
      }
      default:
        // Forensic record types never land in the recovered catalog list.
        return Status::Internal("unexpected catalog record type " +
                                std::to_string(static_cast<int>(r.type)));
    }
  }
  return Status::OK();
}

Status SpStreamEngine::ApplyRecoveredState() {
  storage::RecoveredState& rec = durability_->recovered();
  if (!rec.found) return Status::OK();
  TraceSpan span(TraceCat::kStorage, "storage.recover", Tracer::CurrentTrace(),
                 static_cast<int64_t>(rec.epoch));

  // 1. Replay the catalog in WAL order. The engine's own Register* methods
  // run the real validation/planning, and dense ids (roles, queries) come
  // out identical because the order is identical. The delta chain was cut
  // from the groups the records up to the last commit build; a group that a
  // later record reshapes has none of its current DAG's entries in the chain
  // and starts empty, as the reset left it before the crash.
  replaying_ = true;
  const std::span<const storage::WalRecord> catalog(rec.catalog);
  Status catalog_st = ReplayCatalog(catalog.first(rec.catalog_committed));
  if (catalog_st.ok()) {
    for (QueryGroup& g : groups_) g.checkpoint_stale = false;
    catalog_st = ReplayCatalog(catalog.subspan(rec.catalog_committed));
  }
  replaying_ = false;
  SP_RETURN_NOT_OK(catalog_st);

  committed_epochs_ = static_cast<int64_t>(rec.epoch);
  next_default_ts_ = rec.next_default_ts;
  recovered_sessions_ = std::move(rec.sessions);
  recovered_next_session_id_ = rec.next_session_id;
  metrics_.SetGauge("storage.durable_epochs", committed_epochs_);

  // 2. Operator state. A shard-layout change makes the per-clone blobs
  // meaningless — skip the restore (windows refill; policy trackers
  // re-install from the next sp-batches, denying by default meanwhile).
  const bool layout_matches =
      rec.num_shards == static_cast<int>(options_.num_shards);
  if (!rec.blobs.empty() && layout_matches) {
    for (const storage::StateEntry& e : rec.blobs) {
      if (e.key.query >= queries_.size()) {
        return Status::Internal("checkpoint names unknown query " +
                                std::to_string(e.key.query));
      }
    }
    // Entries of a deregistered query (or of an earlier grouping) have no
    // group led by it and are skipped.
    for (QueryGroup& g : groups_) {
      SP_RETURN_NOT_OK(RestoreGroup(&g, rec.blobs).status());
    }
  }

  metrics_.AddCounter("storage.recoveries");
  if (options_.enable_audit) {
    AuditEvent e;
    e.kind = AuditEventKind::kStorage;
    e.scope = "engine";
    e.detail = "recovered epoch " + std::to_string(rec.epoch) + " (" +
               std::to_string(rec.catalog.size()) + " catalog records, " +
               std::to_string(rec.blobs.size()) + " state blobs" +
               (layout_matches ? "" : ", state skipped: shard layout changed") +
               (rec.tail_torn ? ", torn WAL tail truncated" : "") +
               "); policy trackers fail closed until the next sp-batch";
    audit_.Append(std::move(e));
  }
  return Status::OK();
}

Result<size_t> SpStreamEngine::RestoreGroup(
    QueryGroup* g, const std::vector<storage::StateEntry>& entries) {
  SP_RETURN_NOT_OK(CompileGroup(g));
  // Entries cut from an older shape of the group would restore state its
  // reset already discarded: it stays empty (fail closed).
  if (g->checkpoint_stale) return size_t{0};
  // Apply the delta chain oldest-first; each blob must land on the exact
  // operator it was cut from (label validated — a plan mismatch is loud).
  size_t restored = 0;
  for (const storage::StateEntry& e : entries) {
    if (e.key.query != g->members[0]) continue;
    if (e.key.shard >= g->pipelines.size()) {
      return Status::Internal("checkpoint names unknown shard " +
                              std::to_string(e.key.shard) + " of q" +
                              std::to_string(e.key.query));
    }
    const auto& ops = g->pipelines[e.key.shard]->operators();
    if (e.key.op_index >= ops.size()) {
      return Status::Internal("checkpoint names unknown operator index " +
                              std::to_string(e.key.op_index));
    }
    Operator* op = ops[e.key.op_index].get();
    if (!op->HasDurableState() || op->label() != e.label) {
      return Status::Internal(
          "checkpoint/plan mismatch: expected operator '" + e.label +
          "', found '" + op->label() + "'");
    }
    SP_RETURN_NOT_OK(op->RestoreState(e.blob));
    ++restored;
  }
  // Chain applied: let operators rebuild derived structures (SPIndex etc).
  for (const auto& pipeline : g->pipelines) {
    for (const auto& op : pipeline->operators()) {
      if (op->HasDurableState()) op->OnRestoreComplete();
    }
  }
  return restored;
}

Result<std::vector<Tuple>> SpStreamEngine::Results(QueryId id) const {
  SP_ASSIGN_OR_RETURN(const QueryState* qs, FindQuery(id));
  return qs->results;
}

Result<std::vector<Tuple>> SpStreamEngine::TakeResults(QueryId id) {
  SP_ASSIGN_OR_RETURN(QueryState * qs, FindQuery(id));
  std::vector<Tuple> out = std::move(qs->results);
  qs->results.clear();
  return out;
}

const SpAnalyzerStats* SpStreamEngine::analyzer_stats(
    const std::string& stream) const {
  auto it = stream_states_.find(stream);
  return it == stream_states_.end() ? nullptr
                                    : &it->second.analyzer->stats();
}

auto SpStreamEngine::FindQuery(QueryId id) -> Result<QueryState*> {
  if (id >= queries_.size()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  return &queries_[id];
}

auto SpStreamEngine::FindQuery(QueryId id) const
    -> Result<const QueryState*> {
  if (id >= queries_.size()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  return &queries_[id];
}

}  // namespace spstream

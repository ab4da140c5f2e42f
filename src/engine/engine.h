// SpStreamEngine — the integrated DSMS facade (the "server" of Figure 1).
//
// Ties the whole system together behind one API: role/subject management,
// stream registration, server-side policies, the per-stream SP Analyzer
// admission path, continuous-query registration (CQL text in, subject roles
// inherited, plan optimized), and pipelined execution with per-query result
// sinks. This is the entry point a downstream application would embed.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analyzer/sp_analyzer.h"
#include "common/audit_log.h"
#include "common/metrics_registry.h"
#include "common/status.h"
#include "engine/overload.h"
#include "engine/shard_manager.h"
#include "exec/exec_context.h"
#include "exec/plan_builder.h"
#include "exec/shard_router.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "query/planner.h"
#include "storage/durability.h"

namespace spstream {

/// \brief Identifier of a registered continuous query.
using QueryId = uint32_t;

/// \brief Engine-wide configuration.
struct EngineOptions {
  /// Optimize registered query plans with the Table II rules + §VI.A costs.
  bool optimize_plans = true;
  /// Where the query's Security Shield is initially placed (§IV.A) before
  /// any optimization: at the sources (intermediate, the default), at the
  /// plan root (post-filter), or pre-filtering with sp stripping.
  SsPlacement initial_placement = SsPlacement::kIntermediate;
  /// Multi-query sharing (§VI.C): decides how queries are grouped. Every
  /// query group compiles into one long-lived DAG. On, queries with equal
  /// shield-free plans form one group: a merged SS and the shared subplan
  /// run once, then one split SS and sink per query. Off, every query is a
  /// group of one. Either way the DAG keeps its policies and windows across
  /// Run() epochs, and checkpoints, shards and self-heals the same way.
  bool share_plans = false;
  /// Physical compilation knobs (join implementation, skipping rule, ...).
  PhysicalPlanOptions physical;
  /// Security audit log (policy installs/expirations, denials, re-plans).
  /// Disabling skips all audit-event rendering on the hot path.
  bool enable_audit = true;
  /// Intra-query parallelism: > 1 hash-partitions each query group's tuples
  /// by a plan-derived shard key across this many shards, each running its
  /// own clone of the group's DAG — on one worker thread per shard when the
  /// constructing thread may use two or more CPUs, else on the engine
  /// thread (engine/shard_manager.h). Security punctuations are broadcast
  /// to every shard, so each clone's policy state converges to the
  /// one-clone engine's; the merge sink collects per-shard outputs in
  /// (shard id, arrival order) — the result multiset is identical to a
  /// 1-shard run (tests/shard_equivalence_test). Plans with no safe hash
  /// partition (e.g. conflicting key requirements) fall back to one clone
  /// per group. 1 = every group runs on one clone, on the engine thread.
  size_t num_shards = 1;
  /// Per-shard hand-off queue capacity (elements). Routing blocks when a
  /// shard's queue is full, backpressuring the epoch to the slowest shard.
  size_t shard_queue_capacity = 4096;
  /// Micro-batch size for pushing elements through the operator DAG. Sources
  /// and the shard hand-off accumulate up to this many elements (tuples and
  /// sps interleaved in arrival order) per PushBatch call, amortizing
  /// per-batch dispatch and timer overhead. Batches above 1 ship columnar.
  /// The result sequence is identical at every size
  /// (tests/batch_equivalence_test); 1 means one row batch per element.
  size_t batch_size = 64;
  /// Durable state (docs/DURABILITY.md): non-empty names the data directory
  /// for the write-ahead policy log + incremental window checkpoints. The
  /// constructor replays whatever the directory holds (catalog, sessions,
  /// operator state) and Run() group-commits one checkpoint per epoch;
  /// results are released only after the commit (delivered ≡ durable, so
  /// delivery is at-most-once across a crash). Empty = no persistence.
  std::string data_dir;
  /// Soft wall-clock budget for one Run() epoch, in milliseconds. A
  /// finished epoch that exceeded it saturates the overload controller's
  /// deadline signal (state escalates to kShed), so the next epoch admits
  /// less. 0 = no deadline.
  int64_t epoch_deadline_ms = 0;
  /// Overload resilience: admission-shedding watermarks and policy, the
  /// shard watchdog, and quarantine self-healing (docs/ROBUSTNESS.md,
  /// "Overload and self-healing"). The invariant is *shed data, never shed
  /// security*: sps/controls are always admitted losslessly.
  OverloadOptions overload;
};

/// \brief The integrated stream engine.
class SpStreamEngine {
 public:
  explicit SpStreamEngine(EngineOptions options = {});
  ~SpStreamEngine();

  // ---- catalog management -----------------------------------------------
  /// \brief Register (or look up) a role. With durability on, the
  /// registration is write-ahead logged so recovery reproduces the same
  /// dense role ids.
  RoleId RegisterRole(const std::string& name);

  /// \brief Register a stream; creates its SP Analyzer admission path.
  Result<StreamId> RegisterStream(SchemaPtr schema);

  /// \brief Register a query specifier with its activated roles (§II.A).
  Status RegisterSubject(const std::string& name,
                         const std::vector<std::string>& role_names);

  /// \brief Runtime role-assignment change (the paper's §IX future-work
  /// extension). The base model freezes a subject's roles while it has
  /// registered queries; this override replaces the role set and re-plans
  /// every active query of the subject so their Security Shields enforce
  /// the new predicate from the next Run() on. Accumulated results are
  /// kept (they were authorized under the old assignment).
  Status UpdateSubjectRoles(const std::string& name,
                            const std::vector<std::string>& role_names);

  // ---- policies -----------------------------------------------------------
  /// \brief Execute an INSERT SP statement: the punctuation is admitted
  /// into the named stream's pending input (data-provider policy).
  Status ExecuteInsertSp(const std::string& sql);

  /// \brief Add a server-side policy for a stream; arriving mutable sps are
  /// refined by intersection (§II.B).
  Status AddServerPolicy(const std::string& stream_name,
                         SecurityPunctuation sp);

  // ---- queries -------------------------------------------------------------
  /// \brief Register a continuous SELECT for `subject`. The query inherits
  /// the subject's roles; the subject's role set freezes while registered.
  Result<QueryId> RegisterQuery(const std::string& subject,
                                const std::string& sql);

  /// \brief Deregister a query (unfreezes the subject when it was the
  /// subject's last query).
  Status DeregisterQuery(QueryId id);

  /// \brief The optimized logical plan of a registered query (debugging).
  /// With `analyze` set (EXPLAIN ANALYZE), each plan node is annotated with
  /// the live counters and timings of the physical operator executing it —
  /// tuples/sps in/out, security drops, total/join/sp-maintenance time and
  /// state footprint accumulated so far by the continuous pipeline.
  Result<std::string> ExplainQuery(QueryId id, bool analyze = false) const;

  // ---- data ------------------------------------------------------------
  /// \brief Append raw elements (tuples/sps) to a stream's pending input.
  /// Elements pass through the stream's SP Analyzer on admission.
  Status Push(const std::string& stream_name,
              std::vector<StreamElement> elements);

  /// \brief Run all registered queries over everything pushed so far, then
  /// clear the pending inputs. Results accumulate per query.
  Status Run();

  /// \brief Results of a query accumulated by Run() calls.
  Result<std::vector<Tuple>> Results(QueryId id) const;
  /// \brief Drain (return and clear) a query's accumulated results.
  Result<std::vector<Tuple>> TakeResults(QueryId id);

  /// \brief Push-style delivery: `callback` fires for every result tuple
  /// produced by subsequent Run() calls (in addition to accumulation —
  /// use TakeResults to keep memory bounded, or rely on the callback only
  /// and Drain).
  Status SubscribeResults(QueryId id, std::function<void(const Tuple&)> cb);

  // ---- overload / self-healing (docs/ROBUSTNESS.md) ---------------------
  /// \brief Current degradation tier. Safe to read from other threads (the
  /// net serve loop caches it for shed-before-decode).
  OverloadState overload_state() const { return overload_.state(); }
  /// \brief The controller (watermarks, shed counters) for introspection.
  const OverloadController& overload() const { return overload_; }

  /// \brief Shed priority of a query (ShedPolicy::kPriority protects the
  /// streams feeding the highest-priority queries; default 0). Streams
  /// consumed by a top-priority query are never shed under that policy.
  Status SetQueryPriority(QueryId id, int priority);

  /// \brief Retry a quarantined query NOW (the CLI's `\recover`): rebuild
  /// its group's DAG, restore operator state from the group's last durable
  /// checkpoint when durability is on, and re-arm its policy trackers
  /// fail-closed so nothing delivers until a fresh sp-batch authorizes it.
  /// Every member of the group comes back with it. A manual call
  /// is always allowed — including on a permanently-quarantined query
  /// (operator override) — and does not count against
  /// OverloadOptions::max_recovery_attempts.
  Status RecoverQuery(QueryId id);

  // ---- observability ----------------------------------------------------
  /// \brief Engine-wide metrics: per-query/per-operator counters and
  /// latency histograms, refreshed with the SP Analyzer admission stats.
  /// Keys are "q<id>"; see docs/OBSERVABILITY.md for the taxonomy.
  spstream::MetricsSnapshot SnapshotMetrics();

  /// \brief SnapshotMetrics() rendered as text / JSON / Prometheus.
  std::string DumpMetrics(MetricsFormat format = MetricsFormat::kText);

  /// \brief The live metrics registry (counters update as queries run).
  MetricsRegistry* metrics() { return &metrics_; }

  /// \brief The security audit log (nullptr-safe: always present; empty
  /// when EngineOptions::enable_audit is false).
  AuditLog* audit() { return &audit_; }
  const AuditLog* audit() const { return &audit_; }

  // ---- introspection ----------------------------------------------------
  RoleCatalog* roles() { return &roles_; }
  StreamCatalog* streams() { return &streams_; }
  const SpAnalyzerStats* analyzer_stats(const std::string& stream) const;
  size_t query_count() const { return queries_.size(); }
  /// \brief Whether a query's group is quarantined by the fault supervisor
  /// (false once the query is deregistered).
  Result<bool> IsQuarantined(QueryId id) const;
  /// \brief Queries quarantined so far (gauge engine.queries_quarantined).
  int64_t quarantined_count() const { return quarantined_count_; }

  // ---- durability (docs/DURABILITY.md) ----------------------------------
  /// \brief Epochs committed durably (recovered + this process). 0 when
  /// durability is off.
  int64_t durable_epochs() const { return committed_epochs_; }
  /// \brief Non-OK when crash recovery failed: the engine started EMPTY
  /// with durability DISABLED so it can never overwrite state it could not
  /// read. OK otherwise (including when durability is off).
  const Status& recovery_error() const { return recovery_error_; }
  /// \brief The durability manager, or nullptr. The net server logs session
  /// updates through this directly (leaf mutex — safe off-engine-lock).
  storage::DurabilityManager* durability() { return durability_.get(); }
  /// \brief Net sessions recovered from the WAL (consumed by the server).
  const std::vector<storage::DurableSession>& recovered_sessions() const {
    return recovered_sessions_;
  }
  uint64_t recovered_next_session_id() const {
    return recovered_next_session_id_;
  }
  /// \brief Clean shutdown: flush the audit-log tail into the WAL. Also
  /// runs from the destructor; idempotent.
  void Shutdown();

 private:
  struct StreamState {
    std::unique_ptr<SpAnalyzer> analyzer;
    std::vector<StreamElement> pending;  // admitted, not yet executed
  };
  struct QueryState {
    std::string subject;
    std::string sql;
    LogicalNodePtr plan;       // optimized, shield included
    LogicalNodePtr bare_plan;  // shield-free (sharing key, §VI.C)
    RoleSet roles;             // the query's security predicate
    std::vector<std::string> source_streams;
    std::vector<Tuple> results;
    // With durability on, an epoch's output stages here and is released
    // into `results` (and the callback) only after the epoch's durable
    // commit — a failed commit discards it (at-most-once delivery).
    std::vector<Tuple> staged;
    std::function<void(const Tuple&)> callback;  // optional push delivery
    bool active = true;
    // ShedPolicy::kPriority protection rank (SetQueryPriority).
    int priority = 0;
  };

  /// A query group: 1..N active queries executing one long-lived DAG,
  /// compiled lazily at the group's first Run() and torn down (state reset)
  /// whenever its membership or a member's plan changes. With share_plans
  /// on, members share an equal shield-free plan (§VI.C); otherwise every
  /// group has exactly one member.
  struct QueryGroup {
    std::vector<size_t> members;  // query indexes, ascending; [0] leads
    // One root per member: its optimized plan (a group of one), or its
    // split SS over the shared trunk. Set at compile time; holds the plan
    // nodes that `physicals[i].node_ops` is keyed by.
    std::vector<LogicalNodePtr> roots;
    // One DAG clone, or one per shard when sharded (`routing.shardable`),
    // with the plan-derived per-leaf routing keys.
    std::vector<std::unique_ptr<Pipeline>> pipelines;
    std::vector<PhysicalPlan> physicals;
    ShardRouting routing;
    std::string shard_fallback;  // why sharding was refused, if it was
    // The durable chain's entries under the leader were cut from an older
    // DAG shape (a member joined or left, or a plan changed since the last
    // commit): restore skips them and the next commit is a full rebase.
    bool checkpoint_stale = false;
    // Supervision: a faulted shard or operator fails the whole group, not
    // the engine. A quarantined group stops executing (Run skips it), its
    // faulted epoch's partial output is discarded for every member (fail
    // closed — a clone with diverged policy state must not deliver), and
    // its DAG is torn down. Already-delivered results from earlier epochs
    // stand: they were produced under fully-applied policies.
    bool quarantined = false;
    std::string quarantine_reason;
    // Self-healing (docs/ROBUSTNESS.md): with max_recovery_attempts > 0 the
    // engine retries a quarantined group at the top of Run() once its
    // capped-exponential backoff elapses, restoring operator state from the
    // last durable checkpoint and re-arming policy trackers fail-closed.
    // After max_recovery_attempts re-quarantines it goes dark permanently
    // (only a manual RecoverQuery can resurrect it).
    int recovery_attempts = 0;
    int64_t next_recovery_nanos = 0;  // backoff gate; 0 = no retry scheduled
    bool permanently_quarantined = false;
  };

  /// Compile the group's DAG (and shard clones) if it has none.
  Status CompileGroup(QueryGroup* g);
  /// Execute one epoch of a group: feed its clones, then deliver each
  /// member's results.
  Status RunGroup(QueryGroup* g);
  /// Feed this epoch's admitted elements to the group's clones (tuples by
  /// shard key, sps broadcast) and barrier; folds each fed tuple's latency
  /// into `tuple_latency` and returns the fault reason, empty when clean.
  std::string FeedGroup(QueryGroup* g, Histogram* tuple_latency);
  /// Deliver one result tuple: straight to results/callback, or staged
  /// until the epoch's durable commit when durability is on.
  void DeliverResult(QueryState* qs, Tuple t);
  /// Collect this epoch's operator-state deltas and run the commit
  /// protocol; advances checkpoint cursors only on success.
  Status CommitEpochDurable();
  /// Replay the recovered catalog, rebuild DAGs, apply the delta chain,
  /// and re-arm policy trackers fail-closed.
  Status ApplyRecoveredState();
  Status ReplayCatalog(std::span<const storage::WalRecord> records);
  /// Compile `g` and apply, oldest first, the checkpoint entries keyed by
  /// its leader, each to the operator it was cut from (label validated);
  /// then let every durable operator rebuild derived structures. A group
  /// with a stale checkpoint restores nothing. Returns the number of blobs
  /// restored.
  Result<size_t> RestoreGroup(QueryGroup* g,
                              const std::vector<storage::StateEntry>& entries);
  /// Fail the group closed after a fault: discard its members' epoch
  /// output, tear down its DAG (epoch-consistent: callers already drained
  /// the shard barrier), audit + count every member, and stop executing it.
  /// No other group is touched.
  void QuarantineGroup(QueryGroup* g, const std::string& reason);
  /// Self-healing pass at the top of Run(): retry quarantined groups whose
  /// backoff elapsed.
  void MaybeRecoverQuarantined();
  /// One recovery attempt for a quarantined group (shared by the backoff
  /// loop and the manual RecoverQuery). Rebuilds its DAG, restores the last
  /// durable checkpoint, re-arms fail-closed, audits the outcome.
  Status RecoverGroup(QueryGroup* g, bool manual);
  /// One audit event of `kind` per member of `g`, scoped to the member.
  void AuditGroup(const QueryGroup& g, AuditEventKind kind,
                  const std::string& detail);
  /// Admission-time load shedding: returns the number of data tuples
  /// dropped from `elements` (sps/controls are never touched). Audits and
  /// meters the shed when non-zero.
  size_t ShedAtAdmission(const std::string& stream_name,
                         std::vector<StreamElement>* elements);
  /// Feed the overload controller one pressure sample and publish the
  /// state gauge.
  void ObservePressure(size_t pending_backlog);
  /// Highest shed priority among active queries consuming `stream` (and
  /// the highest across all active queries, for the priority shed policy).
  int StreamPriority(const std::string& stream_name) const;
  int TopPriority() const;
  /// The query plan for `bare` under `roles`: place the SS, then (with
  /// optimize_plans) optimize against the default cost model. A plan is
  /// fixed at registration; only a role change re-plans it.
  LogicalNodePtr PlanQuery(const LogicalNodePtr& bare,
                           const RoleSet& roles) const;

  /// Registry key of a query ("q<id>").
  std::string QueryTag(const QueryState* qs) const;
  /// Registry key of a group's DAG: "q<id>" for a group of one,
  /// "shared:q<leader>" otherwise.
  std::string GroupTag(const QueryGroup& g) const;
  /// Registry key of one DAG clone: the group tag, suffixed ".shard<i>"
  /// when the group runs sharded.
  std::string CloneTag(const QueryGroup& g, size_t clone) const;
  /// The group `query` belongs to (nullptr for a deregistered query).
  QueryGroup* GroupOf(size_t query);
  const QueryGroup* GroupOf(size_t query) const;
  /// Put a freshly registered query into its group (resetting the group
  /// it joins) / take a deregistered one out of its group.
  void JoinGroup(size_t query);
  void LeaveGroup(size_t query);
  /// Retire the group's live metrics and tear down its DAG so the next
  /// Run() recompiles it against the current members and plans. `reshaped`
  /// (membership or a compiled plan changed) also marks the group's
  /// checkpoint entries stale.
  void ResetGroup(QueryGroup* g, bool reshaped);
  /// Publish per-stream SP Analyzer admission stats as registry gauges.
  void SyncAnalyzerStats();

  Result<QueryState*> FindQuery(QueryId id);
  Result<const QueryState*> FindQuery(QueryId id) const;

  EngineOptions options_;
  RoleCatalog roles_;
  StreamCatalog streams_;
  MetricsRegistry metrics_;
  AuditLog audit_;
  /// Long-lived context handed to every pipeline; pipelines persist across
  /// Run() epochs, so the context they point at must outlive them.
  ExecContext exec_ctx_;
  std::unordered_map<std::string, StreamState> stream_states_;
  std::unordered_map<std::string, Subject> subjects_;
  std::vector<QueryState> queries_;
  /// Query groups of the active queries, in leader-index order (the order
  /// Run() executes them).
  std::vector<QueryGroup> groups_;
  int64_t quarantined_count_ = 0;
  /// Run() epochs completed — seeds the per-epoch trace id (EpochTraceId).
  int64_t run_epoch_seq_ = 0;
  Timestamp next_default_ts_ = 1;
  /// Durable state subsystem (null when EngineOptions::data_dir is empty or
  /// recovery failed — see recovery_error()).
  std::unique_ptr<storage::DurabilityManager> durability_;
  int64_t committed_epochs_ = 0;
  Status recovery_error_ = Status::OK();
  /// True while the constructor replays WAL catalog records — suppresses
  /// re-logging the mutations being replayed.
  bool replaying_ = false;
  std::vector<storage::DurableSession> recovered_sessions_;
  uint64_t recovered_next_session_id_ = 1;
  /// Worker-shard pool (null when num_shards <= 1). Declared after
  /// groups_ so destruction joins the workers BEFORE the pipelines they
  /// feed are torn down.
  std::unique_ptr<ShardManager> shard_manager_;
  /// Feed state of the clone of a one-clone group; the engine thread feeds
  /// every such group through it, one at a time.
  CloneFeed inline_feed_;
  /// Overload resilience (docs/ROBUSTNESS.md): pressure state machine fed
  /// by Push/Run, and the optional shard-liveness observer thread. The
  /// watchdog probes shard_manager_, so it is declared after it (destroyed
  /// first) and additionally stopped in Shutdown().
  OverloadController overload_;
  std::unique_ptr<Watchdog> watchdog_;
  /// Wall-clock of the last completed Run() epoch (the deadline signal).
  int64_t last_epoch_nanos_ = 0;
};

}  // namespace spstream

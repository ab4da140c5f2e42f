// spstream_cli — a scriptable shell over SpStreamEngine.
//
// Reads commands from a script file (or stdin), one per line:
//
//   role <name>
//   inherit <senior> <junior>                 # RBAC1 role inheritance
//   stream <name>(<col>:<int|double|string|bool>, ...)
//   subject <name> <role> [<role> ...]
//   update-roles <subject> <role> [...]       # runtime role change (§IX)
//   server <stream> <role-pattern>            # server-side policy
//   query <id> <subject> <SELECT ...>         # register a continuous query
//   INSERT SP INTO STREAM ...                 # the paper's sp declaration
//   tuple <stream> <tid> <ts> <v1> [<v2> ...]
//   run                                       # execute pending input
//   results <id>                              # print & drain a query's rows
//   explain <id>                              # show the optimized plan
//   explain analyze <id>                      # plan + live operator counters
//   metrics [<id>|json|prom]                  # engine metrics (optionally
//                                             #   one query, or an exporter)
//   audit [n]                                 # last n security audit events
//   overload                                  # overload tier, watermarks,
//                                             #   shed counters, quarantine
//   recover <id>                              # manually recover a
//                                             #   quarantined query (clears
//                                             #   a permanent quarantine)
//   faults                                    # fault-site hit/failure stats
//   faults arm <site> <prob> [hit] [max]      # arm a fault site (chaos)
//   faults seed <n>                           # reseed the fault injector
//   faults off                                # disarm every site
//   trace                                     # tracer status + incidents
//   trace on [n]                              # enable tracing (sample 1/n)
//   trace off                                 # disable tracing
//   trace dump <file>                         # write Chrome trace JSON
//                                             #   (open in Perfetto)
//   trace timeline [n]                        # human-readable span timeline
//   serve <port> [seconds]                    # expose this engine over TCP
//                                             #   (port 0 = kernel-chosen;
//                                             #   prints "serving on port N")
//   connect <host>:<port>                     # become a remote client: all
//                                             #   following commands run
//                                             #   against the server
//   # comment / blank lines ignored
//
// Commands may be prefixed with a backslash (\metrics, \audit, ...) in the
// style of interactive database shells.
//
// Example:   build/tools/spstream_cli examples/demo.sps
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "common/fault.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "engine/engine_service.h"
#include "net/client.h"
#include "net/server.h"

namespace spstream {
namespace {

Result<Value> ParseValueToken(const std::string& tok, ValueType type) {
  switch (type) {
    case ValueType::kInt64: {
      try {
        return Value(static_cast<int64_t>(std::stoll(tok)));
      } catch (...) {
        return Status::ParseError("bad int value: " + tok);
      }
    }
    case ValueType::kDouble: {
      try {
        return Value(std::stod(tok));
      } catch (...) {
        return Status::ParseError("bad double value: " + tok);
      }
    }
    case ValueType::kBool:
      return Value(EqualsIgnoreCase(tok, "true"));
    case ValueType::kString:
    case ValueType::kNull:
      return Value(tok);
  }
  return Value(tok);
}

Result<ValueType> ParseTypeName(std::string_view name) {
  if (EqualsIgnoreCase(name, "int") || EqualsIgnoreCase(name, "int64")) {
    return ValueType::kInt64;
  }
  if (EqualsIgnoreCase(name, "double") || EqualsIgnoreCase(name, "float")) {
    return ValueType::kDouble;
  }
  if (EqualsIgnoreCase(name, "string")) return ValueType::kString;
  if (EqualsIgnoreCase(name, "bool")) return ValueType::kBool;
  return Status::ParseError("unknown column type: " + std::string(name));
}

class Shell {
 public:
  explicit Shell(EngineOptions options = {}) : service_(std::move(options)) {
    // With a data dir the engine may have recovered a catalog; rehydrate
    // the shell's stream caches so `tuple` works against recovered streams.
    const Status& rec = engine_.recovery_error();
    if (!rec.ok()) {
      std::cerr << "recovery failed (running without durability): "
                << rec.ToString() << "\n";
    } else if (engine_.durable_epochs() > 0) {
      std::cout << "recovered durable epoch " << engine_.durable_epochs()
                << "\n";
    }
    for (auto& [sid, schema] : service_.ListStreams()) {
      stream_sids_[schema->stream_name()] = sid;
      schemas_[schema->stream_name()] = schema;
    }
    // Recovered queries keep their dense ids but lose the script-side
    // aliases; expose them under the registry's own q<id> names.
    for (QueryId qid = 0; qid < (QueryId)engine_.query_count(); ++qid) {
      query_ids_.emplace("q" + std::to_string(qid), qid);
    }
  }

  int RunScript(std::istream& in) {
    std::string line;
    int lineno = 0;
    int failures = 0;
    while (std::getline(in, line)) {
      ++lineno;
      std::string_view trimmed = Trim(line);
      if (trimmed.empty() || trimmed.front() == '#') continue;
      Status st = Execute(std::string(trimmed));
      if (!st.ok()) {
        std::cerr << "line " << lineno << ": " << st.ToString() << "\n";
        ++failures;
      }
    }
    return failures == 0 ? 0 : 1;
  }

 private:
  Status Execute(const std::string& line) {
    std::istringstream words(line);
    std::string cmd;
    words >> cmd;
    if (!cmd.empty() && cmd.front() == '\\') cmd.erase(0, 1);
    if (EqualsIgnoreCase(cmd, "serve")) {
      return CmdServe(&words);
    }
    if (EqualsIgnoreCase(cmd, "connect")) {
      return CmdConnect(&words);
    }
    if (EqualsIgnoreCase(cmd, "faults")) {
      // Always process-local: chaos-drives the in-process engine/server
      // even when the shell is otherwise in connect mode.
      return CmdFaults(&words);
    }
    if (EqualsIgnoreCase(cmd, "trace")) {
      // Process-local like \faults: the tracer is process-global, so in
      // connect mode this traces the client side of the connection.
      return CmdTrace(&words);
    }
    if (client_) return ExecuteRemote(cmd, &words, line);
    if (EqualsIgnoreCase(cmd, "role")) {
      std::string name;
      words >> name;
      if (name.empty()) return Status::ParseError("role: missing name");
      engine_.RegisterRole(name);
      return Status::OK();
    }
    if (EqualsIgnoreCase(cmd, "inherit")) {
      std::string senior, junior;
      words >> senior >> junior;
      SP_ASSIGN_OR_RETURN(RoleId s, engine_.roles()->Lookup(senior));
      SP_ASSIGN_OR_RETURN(RoleId j, engine_.roles()->Lookup(junior));
      return engine_.roles()->AddInheritance(s, j);
    }
    if (EqualsIgnoreCase(cmd, "update-roles")) {
      std::string name, role;
      words >> name;
      std::vector<std::string> roles;
      while (words >> role) roles.push_back(role);
      return engine_.UpdateSubjectRoles(name, roles);
    }
    if (EqualsIgnoreCase(cmd, "stream")) {
      return CmdStream(line.substr(cmd.size()));
    }
    if (EqualsIgnoreCase(cmd, "subject")) {
      std::string name, role;
      words >> name;
      std::vector<std::string> roles;
      while (words >> role) roles.push_back(role);
      return engine_.RegisterSubject(name, roles);
    }
    if (EqualsIgnoreCase(cmd, "server")) {
      std::string stream, pattern;
      words >> stream >> pattern;
      SP_ASSIGN_OR_RETURN(Pattern role_pattern, Pattern::Compile(pattern));
      SecurityPunctuation sp = SecurityPunctuation::StreamLevel(
          Pattern::Literal(stream), std::move(role_pattern), 0);
      return engine_.AddServerPolicy(stream, std::move(sp));
    }
    if (EqualsIgnoreCase(cmd, "query")) {
      std::string id, subject;
      words >> id >> subject;
      std::string sql;
      std::getline(words, sql);
      SP_ASSIGN_OR_RETURN(QueryId qid,
                          engine_.RegisterQuery(subject,
                                                std::string(Trim(sql))));
      query_ids_[id] = qid;
      std::cout << "registered query " << id << " for " << subject << "\n";
      return Status::OK();
    }
    if (EqualsIgnoreCase(cmd, "insert")) {
      return engine_.ExecuteInsertSp(line);
    }
    if (EqualsIgnoreCase(cmd, "tuple")) {
      return CmdTuple(&words);
    }
    if (EqualsIgnoreCase(cmd, "run")) {
      return engine_.Run();
    }
    if (EqualsIgnoreCase(cmd, "results")) {
      std::string id;
      words >> id;
      auto it = query_ids_.find(id);
      if (it == query_ids_.end()) {
        return Status::NotFound("unknown query id: " + id);
      }
      SP_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                          engine_.TakeResults(it->second));
      std::cout << "results " << id << " (" << rows.size() << " rows):\n";
      for (const Tuple& t : rows) {
        std::cout << "  " << t.ToString() << "\n";
      }
      return Status::OK();
    }
    if (EqualsIgnoreCase(cmd, "explain")) {
      std::string id;
      words >> id;
      bool analyze = false;
      if (EqualsIgnoreCase(id, "analyze")) {
        analyze = true;
        words >> id;
      }
      auto it = query_ids_.find(id);
      if (it == query_ids_.end()) {
        return Status::NotFound("unknown query id: " + id);
      }
      SP_ASSIGN_OR_RETURN(std::string plan,
                          engine_.ExplainQuery(it->second, analyze));
      std::cout << plan;
      return Status::OK();
    }
    if (EqualsIgnoreCase(cmd, "metrics")) {
      return CmdMetrics(&words);
    }
    if (EqualsIgnoreCase(cmd, "audit")) {
      return CmdAudit(&words);
    }
    if (EqualsIgnoreCase(cmd, "overload")) {
      return CmdOverload();
    }
    if (EqualsIgnoreCase(cmd, "recover")) {
      std::string id;
      words >> id;
      auto it = query_ids_.find(id);
      if (it == query_ids_.end()) {
        return Status::NotFound("recover: unknown query id: " + id);
      }
      SP_RETURN_NOT_OK(engine_.RecoverQuery(it->second));
      std::cout << "query " << id << " recovered\n";
      return Status::OK();
    }
    return Status::ParseError("unknown command: " + cmd);
  }

  Status CmdOverload() {
    const OverloadController& ctl = engine_.overload();
    const OverloadOptions& opt = ctl.options();
    std::cout << "overload state: "
              << OverloadStateName(engine_.overload_state()) << "\n"
              << "  shedding: " << (opt.enable_shedding ? "on" : "off")
              << " policy="
              << (opt.shed_policy == ShedPolicy::kPriority ? "priority"
                                                           : "random")
              << " fraction=" << opt.shed_fraction
              << " throttle=batch/" << kThrottleDivisor << "\n"
              << "  watermarks: pending=" << opt.pending_low_watermark << "/"
              << opt.pending_high_watermark
              << " queue=" << ctl.queue_high_watermark() << "\n"
              << "  shed: tuples=" << ctl.tuples_shed()
              << " decisions=" << ctl.shed_decisions() << "\n"
              << "  quarantined: " << engine_.quarantined_count()
              << " (max_recovery_attempts=" << opt.max_recovery_attempts
              << " backoff=" << opt.recovery_backoff_base_ms << ".."
              << kRecoveryBackoffMaxMs << "ms watchdog="
              << (opt.watchdog ? "on" : "off") << ")\n";
    return Status::OK();
  }

  Status CmdFaults(std::istringstream* words) {
    std::string sub;
    *words >> sub;
    FaultInjector& injector = FaultInjector::Global();
    if (sub.empty()) {
      std::cout << "fault injection "
                << (injector.enabled() ? "ARMED" : "idle") << "\n";
      for (const auto& [site, stats] : injector.Snapshot()) {
        std::cout << "  " << site << ": hits=" << stats.hits
                  << " failures=" << stats.failures << "\n";
      }
      return Status::OK();
    }
    if (EqualsIgnoreCase(sub, "off")) {
      injector.DisarmAll();
      std::cout << "all fault sites disarmed\n";
      return Status::OK();
    }
    if (EqualsIgnoreCase(sub, "seed")) {
      uint64_t seed = 0;
      if (!(*words >> seed)) {
        return Status::ParseError("faults seed: missing seed value");
      }
      injector.Reseed(seed);
      std::cout << "fault injector reseeded with " << seed << "\n";
      return Status::OK();
    }
    if (EqualsIgnoreCase(sub, "arm")) {
      std::string site;
      FaultSpec spec;
      if (!(*words >> site >> spec.probability)) {
        return Status::ParseError(
            "usage: faults arm <site> <probability> [trigger_on_hit] "
            "[max_failures]");
      }
      *words >> spec.trigger_on_hit >> spec.max_failures;
      injector.Arm(site, spec);
      std::cout << "armed " << site << " p=" << spec.probability
                << " trigger_on_hit=" << spec.trigger_on_hit
                << " max_failures=" << spec.max_failures << "\n";
      return Status::OK();
    }
    return Status::ParseError("faults: unknown subcommand: " + sub);
  }

  Status CmdMetrics(std::istringstream* words) {
    std::string arg;
    *words >> arg;
    if (arg.empty()) {
      std::cout << engine_.DumpMetrics();
      return Status::OK();
    }
    if (EqualsIgnoreCase(arg, "json")) {
      std::cout << engine_.DumpMetrics(MetricsFormat::kJson) << "\n";
      return Status::OK();
    }
    if (EqualsIgnoreCase(arg, "prom") || EqualsIgnoreCase(arg, "prometheus")) {
      std::cout << engine_.DumpMetrics(MetricsFormat::kPrometheus);
      return Status::OK();
    }
    auto it = query_ids_.find(arg);
    if (it == query_ids_.end()) {
      return Status::NotFound("metrics: unknown query id: " + arg);
    }
    spstream::MetricsSnapshot snap = engine_.SnapshotMetrics();
    const QueryMetricsSnapshot* q =
        snap.FindQuery("q" + std::to_string(it->second));
    if (q == nullptr) {
      std::cout << "no metrics yet for query " << arg << " (run first)\n";
      return Status::OK();
    }
    spstream::MetricsSnapshot one;  // render just this query's slice
    one.queries.push_back(*q);
    one.engine_totals = q->totals;
    std::cout << one.ToText();
    return Status::OK();
  }

  Status CmdAudit(std::istringstream* words) {
    size_t n = 20;
    std::string arg;
    *words >> arg;
    if (!arg.empty()) {
      try {
        n = static_cast<size_t>(std::stoul(arg));
      } catch (...) {
        return Status::ParseError("audit: bad event count: " + arg);
      }
    }
    const AuditLog* log = engine_.audit();
    std::cout << "audit: " << log->total() << " events ("
              << log->CountOf(AuditEventKind::kPolicyInstall) << " installs, "
              << log->CountOf(AuditEventKind::kPolicyExpire) << " expires, "
              << log->CountOf(AuditEventKind::kDenial) << " denied tuples, "
              << log->CountOf(AuditEventKind::kPlanAdapt) << " re-plans, "
              << log->CountOf(AuditEventKind::kShardFallback)
              << " shard fallbacks)\n";
    for (const AuditEvent& e : log->Tail(n)) {
      std::cout << "  " << e.ToString() << "\n";
    }
    return Status::OK();
  }

  Status CmdTrace(std::istringstream* words) {
    std::string sub;
    *words >> sub;
    Tracer& tracer = Tracer::Global();
    if (sub.empty()) {
      std::cout << "tracing "
                << (tracer.enabled()
                        ? "ON (1/" + std::to_string(tracer.sample_n()) +
                              " sp-batches)"
                        : "off")
                << ", " << tracer.Snapshot().size() << " buffered event(s), "
                << tracer.incident_count() << " incident dump(s)\n";
      for (const Tracer::IncidentDump& d : tracer.IncidentDumps()) {
        std::cout << "  incident '" << d.reason << "' trace=0x" << std::hex
                  << d.trace_id << std::dec << " (" << d.events.size()
                  << " flight events)\n";
      }
      return Status::OK();
    }
    if (EqualsIgnoreCase(sub, "on")) {
      size_t n = 1;
      std::string arg;
      *words >> arg;
      if (!arg.empty()) {
        try {
          n = static_cast<size_t>(std::stoul(arg));
        } catch (...) {
          return Status::ParseError("trace on: bad sample rate: " + arg);
        }
        if (n == 0) n = 1;
      }
      tracer.Enable(n);
      std::cout << "tracing enabled (sampling 1/" << n << " sp-batches)\n";
      return Status::OK();
    }
    if (EqualsIgnoreCase(sub, "off")) {
      tracer.Disable();
      std::cout << "tracing disabled (buffered spans kept; 'trace dump' "
                   "still exports them)\n";
      return Status::OK();
    }
    if (EqualsIgnoreCase(sub, "dump")) {
      std::string path;
      *words >> path;
      if (path.empty()) return Status::ParseError("trace dump: missing file");
      const std::vector<TraceEvent> events = tracer.Snapshot();
      std::ofstream out(path);
      if (!out) return Status::Internal("trace dump: cannot open " + path);
      out << ChromeTraceJson(events);
      std::cout << "wrote " << events.size() << " trace event(s) to " << path
                << " (load in Perfetto / chrome://tracing)\n";
      return Status::OK();
    }
    if (EqualsIgnoreCase(sub, "timeline")) {
      size_t n = 40;
      std::string arg;
      *words >> arg;
      if (!arg.empty()) {
        try {
          n = static_cast<size_t>(std::stoul(arg));
        } catch (...) {
          return Status::ParseError("trace timeline: bad row count: " + arg);
        }
      }
      std::cout << RenderTimeline(tracer.Snapshot(), n);
      return Status::OK();
    }
    return Status::ParseError("trace: unknown subcommand: " + sub);
  }

  Status CmdServe(std::istringstream* words) {
    if (client_) {
      return Status::InvalidArgument("serve: already in remote (connect) mode");
    }
    int port = -1;
    int seconds = 0;  // 0 = serve until the process is killed
    *words >> port >> seconds;
    if (port < 0 || port > 65535) {
      return Status::ParseError("serve: expected a port (0..65535)");
    }
    StreamServer server(&service_);
    SP_RETURN_NOT_OK(server.Start(static_cast<uint16_t>(port)));
    std::cout << "serving on port " << server.port() << "\n" << std::flush;
    if (seconds > 0) {
      std::this_thread::sleep_for(std::chrono::seconds(seconds));
    } else {
      for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
    }
    server.Stop();
    std::cout << "serve: stopped (" << server.connections_accepted()
              << " connections, " << server.evictions() << " evictions)\n";
    return Status::OK();
  }

  Status CmdConnect(std::istringstream* words) {
    std::string target;
    *words >> target;
    const size_t colon = target.rfind(':');
    if (colon == std::string::npos) {
      return Status::ParseError("connect: expected <host>:<port>");
    }
    int port = 0;
    try {
      port = std::stoi(target.substr(colon + 1));
    } catch (...) {
      return Status::ParseError("connect: bad port in " + target);
    }
    auto client = std::make_unique<StreamClient>();
    SP_RETURN_NOT_OK(client->Connect(target.substr(0, colon),
                                     static_cast<uint16_t>(port),
                                     "spstream-cli"));
    client_ = std::move(client);
    std::cout << "connected to " << target << "\n";
    return Status::OK();
  }

  /// Remote mode: the same command language, executed against the server.
  Status ExecuteRemote(const std::string& cmd, std::istringstream* words,
                       const std::string& line) {
    if (EqualsIgnoreCase(cmd, "role")) {
      std::string name;
      *words >> name;
      return client_->RegisterRole(name).status();
    }
    if (EqualsIgnoreCase(cmd, "stream")) {
      return CmdStream(line.substr(cmd.size()));
    }
    if (EqualsIgnoreCase(cmd, "subject")) {
      std::string name, role;
      *words >> name;
      std::vector<std::string> roles;
      while (*words >> role) roles.push_back(role);
      return client_->RegisterSubject(name, roles);
    }
    if (EqualsIgnoreCase(cmd, "query")) {
      std::string id, subject;
      *words >> id >> subject;
      std::string sql;
      std::getline(*words, sql);
      SP_ASSIGN_OR_RETURN(uint64_t qid,
                          client_->RegisterQuery(subject,
                                                 std::string(Trim(sql))));
      SP_RETURN_NOT_OK(client_->Subscribe(qid));
      query_ids_[id] = static_cast<QueryId>(qid);
      std::cout << "registered query " << id << " for " << subject << "\n";
      return Status::OK();
    }
    if (EqualsIgnoreCase(cmd, "insert")) {
      return client_->InsertSp(line);
    }
    if (EqualsIgnoreCase(cmd, "tuple")) {
      return CmdTuple(words);
    }
    if (EqualsIgnoreCase(cmd, "run")) {
      return client_->Run();
    }
    if (EqualsIgnoreCase(cmd, "results")) {
      std::string id;
      *words >> id;
      auto it = query_ids_.find(id);
      if (it == query_ids_.end()) {
        return Status::NotFound("unknown query id: " + id);
      }
      // Run() banks every result its epoch produced before acking, so a
      // drain here is deterministic.
      std::vector<Tuple> rows = client_->TakeResults(it->second);
      std::cout << "results " << id << " (" << rows.size() << " rows):\n";
      for (const Tuple& t : rows) {
        std::cout << "  " << t.ToString() << "\n";
      }
      return Status::OK();
    }
    if (EqualsIgnoreCase(cmd, "disconnect")) {
      client_->Close();
      client_.reset();
      std::cout << "disconnected\n";
      return Status::OK();
    }
    return Status::ParseError("command not available in remote mode: " + cmd);
  }

  Status CmdStream(const std::string& rest) {
    const std::string_view spec = Trim(rest);
    const size_t open = spec.find('(');
    if (open == std::string_view::npos || spec.back() != ')') {
      return Status::ParseError("stream: expected name(col:type, ...)");
    }
    const std::string name(Trim(spec.substr(0, open)));
    std::vector<Field> fields;
    for (const std::string& piece :
         Split(spec.substr(open + 1, spec.size() - open - 2), ',')) {
      auto parts = Split(Trim(piece), ':');
      if (parts.size() != 2) {
        return Status::ParseError("stream: bad column spec '" + piece + "'");
      }
      SP_ASSIGN_OR_RETURN(ValueType type, ParseTypeName(Trim(parts[1])));
      fields.push_back(Field{std::string(Trim(parts[0])), type});
    }
    if (client_) {
      // Adopt a stream the server already announced in the HELLO handshake;
      // register it remotely otherwise.
      Result<SchemaPtr> known = client_->SchemaOf(name);
      if (known.ok()) {
        stream_sids_[name] = *client_->StreamIdOf(name);
        schemas_[name] = *known;
        return Status::OK();
      }
      SP_ASSIGN_OR_RETURN(
          StreamId sid, client_->RegisterStream(MakeSchema(name, fields)));
      stream_sids_[name] = sid;
      schemas_[name] = *client_->SchemaOf(name);
      return Status::OK();
    }
    SP_ASSIGN_OR_RETURN(StreamId id,
                        engine_.RegisterStream(MakeSchema(name, fields)));
    stream_sids_[name] = id;
    schemas_[name] = *engine_.streams()->LookupSchema(name);
    return Status::OK();
  }

  Status CmdTuple(std::istringstream* words) {
    std::string stream;
    TupleId tid;
    Timestamp ts;
    *words >> stream >> tid >> ts;
    auto schema_it = schemas_.find(stream);
    if (schema_it == schemas_.end()) {
      return Status::NotFound("unknown stream: " + stream);
    }
    const Schema& schema = *schema_it->second;
    std::vector<Value> values;
    std::string tok;
    size_t col = 0;
    while (*words >> tok) {
      if (col >= schema.num_fields()) {
        return Status::ParseError("tuple: too many values for " + stream);
      }
      SP_ASSIGN_OR_RETURN(Value v,
                          ParseValueToken(tok, schema.field(col).type));
      values.push_back(std::move(v));
      ++col;
    }
    if (col != schema.num_fields()) {
      return Status::ParseError("tuple: expected " +
                                std::to_string(schema.num_fields()) +
                                " values for " + stream);
    }
    Tuple t(stream_sids_[stream], tid, std::move(values), ts);
    std::vector<StreamElement> batch;
    batch.emplace_back(std::move(t));
    if (client_) return client_->Push(stream, std::move(batch));
    return engine_.Push(stream, std::move(batch));
  }

  // Local mode works on the service's engine directly (the shell is
  // single-threaded until `serve` spins up server threads, which then go
  // through the same service).
  EngineService service_;
  SpStreamEngine& engine_ = *service_.UnsafeEngine();
  std::unique_ptr<StreamClient> client_;  // non-null => remote (connect) mode
  std::unordered_map<std::string, QueryId> query_ids_;
  std::unordered_map<std::string, StreamId> stream_sids_;
  std::unordered_map<std::string, SchemaPtr> schemas_;
};

}  // namespace
}  // namespace spstream

int main(int argc, char** argv) {
  spstream::EngineOptions options;
  // --data-dir <path> (or SPSTREAM_DATA_DIR) switches on the durable state
  // subsystem: WAL + checkpoints live there and a restart recovers from it.
  if (const char* env = std::getenv("SPSTREAM_DATA_DIR")) {
    options.data_dir = env;
  }
  std::string script;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--data-dir" && i + 1 < argc) {
      options.data_dir = argv[++i];
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      options.data_dir = arg.substr(std::string("--data-dir=").size());
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: spstream_cli [--data-dir <dir>] [script.sps]\n"
                   "  --data-dir <dir>  durable state directory (WAL + "
                   "checkpoints); also SPSTREAM_DATA_DIR\n"
                   "  without a script, commands are read from stdin\n";
      return 0;
    } else {
      script = arg;
    }
  }
  spstream::Shell shell(std::move(options));
  if (!script.empty()) {
    std::ifstream file(script);
    if (!file) {
      std::cerr << "cannot open " << script << "\n";
      return 1;
    }
    return shell.RunScript(file);
  }
  return shell.RunScript(std::cin);
}

#include "baselines/enforcement.h"

#include <deque>
#include <sstream>

#include "common/metrics.h"
#include "exec/policy_tracker.h"
#include "exec/sa_project.h"
#include "exec/sa_select.h"
#include "exec/ss_operator.h"
#include "security/sp_codec.h"

namespace spstream {

std::string EnforcementResult::ToString() const {
  std::ostringstream os;
  os << mechanism << ": in=" << tuples_in << " out=" << tuples_out
     << " elapsed_ms=" << elapsed_ms
     << " output_rate=" << output_rate_per_ms << "/ms"
     << " cost_per_tuple_us=" << cost_per_tuple_us
     << " policy_mem_bytes=" << policy_memory_bytes;
  return os.str();
}

namespace {

void FillRates(EnforcementResult* r, int64_t elapsed_nanos) {
  r->elapsed_ms = static_cast<double>(elapsed_nanos) / 1e6;
  if (r->elapsed_ms > 0) {
    r->output_rate_per_ms =
        static_cast<double>(r->tuples_out) / r->elapsed_ms;
  }
  if (r->tuples_in > 0) {
    r->cost_per_tuple_us = static_cast<double>(elapsed_nanos) / 1e3 /
                           static_cast<double>(r->tuples_in);
  }
}

}  // namespace

namespace {

/// The store-and-probe access-control filter as an engine operator: every
/// arriving sp updates the central policy table; every tuple access probes
/// it. Sps do not flow downstream (the table is the policy medium).
class StoreProbeFilter : public Operator {
 public:
  StoreProbeFilter(ExecContext* ctx, PolicyStore* store,
                   std::string stream_name, RoleSet query_roles)
      : Operator(ctx, "store_probe"),
        store_(store),
        stream_name_(std::move(stream_name)),
        query_roles_(std::move(query_roles)) {}

 protected:
  void Process(StreamElement&& elem, int) override {
    if (elem.is_sp()) {
      ++metrics_.sps_in;
      (void)store_->Apply(std::move(elem.sp()));  // central-table update
      return;
    }
    if (!elem.is_tuple()) {
      Emit(std::move(elem));
      return;
    }
    ++metrics_.tuples_in;
    const Tuple& t = elem.tuple();
    if (!store_->Probe(stream_name_, t.tid, query_roles_)) {
      ++metrics_.tuples_dropped_security;
      return;
    }
    EmitTuple(std::move(elem.tuple()));
  }

 private:
  PolicyStore* store_;
  std::string stream_name_;
  RoleSet query_roles_;
};

}  // namespace

EnforcementResult StoreAndProbeDriver::Run(
    const EnforcementWorkload& workload, const EnforcementQuery& query) {
  EnforcementResult r;
  r.mechanism = "store-and-probe";
  PolicyStore store(catalog_);
  RoleCatalog* catalog = const_cast<RoleCatalog*>(catalog_);
  StreamCatalog streams;
  ExecContext ctx{catalog, &streams};
  Pipeline pipeline(&ctx);
  auto* src = pipeline.Add<PushSource>("src");
  auto* filter = pipeline.Add<StoreProbeFilter>(
      &store, workload.stream_name, query.query_roles);
  src->AddOutput(filter);
  Operator* top = filter;
  if (query.select_predicate) {
    auto* sel = pipeline.Add<SaSelect>(query.select_predicate);
    top->AddOutput(sel);
    top = sel;
  }
  auto* proj =
      pipeline.Add<SaProject>(query.project_columns, workload.schema);
  top->AddOutput(proj);
  auto* sink = pipeline.Add<CollectorSink>();
  proj->AddOutput(sink);

  std::vector<FiniteInput> inputs;
  inputs.push_back(FiniteInput{src, workload.elements});
  int64_t elapsed = 0;
  {
    ScopedTimer timer(&elapsed);
    FeedToEnd(std::move(inputs), /*batch_size=*/256);
  }
  r.tuples_in = filter->metrics().tuples_in;
  r.tuples_out = proj->metrics().tuples_out;
  FillRates(&r, elapsed);
  r.policy_memory_bytes = store.PolicyMetadataBytes();
  return r;
}

namespace {

/// Encode a role set as the embedded policy blob carried in the tuple's
/// extra field (delta varints over ascending role ids).
std::string EncodePolicyBlob(const RoleSet& roles) {
  std::string blob;
  RoleId prev = 0;
  roles.ForEach([&](RoleId id) {
    PutVarint(id - prev, &blob);
    prev = id;
  });
  return blob;
}

/// Does the embedded policy blob authorize any of `query_roles`?
bool BlobAuthorizes(const std::string& blob, const RoleSet& query_roles) {
  size_t off = 0;
  RoleId cur = 0;
  while (off < blob.size()) {
    auto delta = GetVarint(blob, &off);
    if (!delta.ok()) return false;
    cur += static_cast<RoleId>(*delta);
    if (query_roles.Contains(cur)) return true;
  }
  return false;
}

/// Per-tuple access-control filter of the tuple-embedded mechanism: decodes
/// the policy field of EVERY tuple and checks the query's roles against it.
/// No punctuation sharing, no per-segment short-circuit.
class EmbeddedPolicyFilter : public Operator {
 public:
  EmbeddedPolicyFilter(ExecContext* ctx, RoleSet query_roles, int policy_col)
      : Operator(ctx, "embedded_filter"),
        query_roles_(std::move(query_roles)),
        policy_col_(policy_col) {}

 protected:
  void Process(StreamElement&& elem, int) override {
    if (!elem.is_tuple()) {
      Emit(std::move(elem));
      return;
    }
    ++metrics_.tuples_in;
    const Tuple& t = elem.tuple();
    const size_t col = static_cast<size_t>(policy_col_);
    if (col >= t.values.size() || !t.values[col].is_string() ||
        !BlobAuthorizes(t.values[col].str(), query_roles_)) {
      ++metrics_.tuples_dropped_security;
      return;
    }
    EmitTuple(std::move(elem.tuple()));
  }

 private:
  RoleSet query_roles_;
  int policy_col_;
};

}  // namespace

EnforcementResult TupleEmbeddedDriver::Run(
    const EnforcementWorkload& workload, const EnforcementQuery& query) {
  EnforcementResult r;
  r.mechanism = "tuple-embedded";
  // Phase 1 (at the data source, not timed as server work): embed the
  // policy into every tuple as an extra field — §I.C's "extra tuple fields
  // ... for meta-data". Adjacent tuples with identical policies still each
  // carry their own copy.
  std::vector<StreamElement> stream;
  stream.reserve(workload.elements.size());
  {
    PolicyTracker tracker(const_cast<RoleCatalog*>(catalog_),
                          workload.stream_name);
    for (const StreamElement& elem : workload.elements) {
      if (elem.is_sp()) {
        tracker.OnSp(elem.sp());
      } else if (elem.is_tuple()) {
        PolicyPtr p = tracker.PolicyFor(elem.tuple());
        Tuple t = elem.tuple();
        t.values.emplace_back(EncodePolicyBlob(p->allowed()));
        stream.emplace_back(std::move(t));
      }
    }
  }
  const int policy_col =
      static_cast<int>(workload.schema->num_fields());

  // Phase 2 (timed): the same engine as the sp mechanism, but with the
  // per-tuple policy filter and the policy field carried through every
  // operator (projection keeps it: results stay policy-tagged).
  RoleCatalog* catalog = const_cast<RoleCatalog*>(catalog_);
  StreamCatalog streams;
  ExecContext ctx{catalog, &streams};
  Pipeline pipeline(&ctx);
  auto* src = pipeline.Add<PushSource>("src");
  auto* filter = pipeline.Add<EmbeddedPolicyFilter>(query.query_roles,
                                                    policy_col);
  src->AddOutput(filter);
  Operator* top = filter;
  if (query.select_predicate) {
    auto* sel = pipeline.Add<SaSelect>(query.select_predicate);
    top->AddOutput(sel);
    top = sel;
  }
  std::vector<int> cols = query.project_columns;
  cols.push_back(policy_col);  // the embedded policy travels with results
  std::vector<Field> embedded_fields = workload.schema->fields();
  embedded_fields.push_back(Field{"__policy", ValueType::kString});
  SchemaPtr embedded_schema = MakeSchema(workload.stream_name + "_embedded",
                                         std::move(embedded_fields));
  auto* proj = pipeline.Add<SaProject>(cols, embedded_schema);
  top->AddOutput(proj);
  auto* sink = pipeline.Add<CollectorSink>();
  proj->AddOutput(sink);

  std::vector<FiniteInput> inputs;
  inputs.push_back(FiniteInput{src, std::move(stream)});
  int64_t elapsed = 0;
  {
    ScopedTimer timer(&elapsed);
    FeedToEnd(std::move(inputs), /*batch_size=*/256);
  }
  r.tuples_in = filter->metrics().tuples_in;
  r.tuples_out = proj->metrics().tuples_out;
  FillRates(&r, elapsed);
  r.policy_memory_bytes =
      PeakTransitPolicyBytes(workload.elements, /*embedded=*/true);
  return r;
}

EnforcementResult SpFrameworkDriver::Run(const EnforcementWorkload& workload,
                                         const EnforcementQuery& query) {
  EnforcementResult r;
  r.mechanism = "security-punctuations";
  ExecContext ctx{catalog_, streams_};
  Pipeline pipeline(&ctx);
  auto* src = pipeline.Add<PushSource>("src");
  SsOptions ss_opts;
  ss_opts.predicates = {query.query_roles};
  ss_opts.stream_name = workload.stream_name;
  ss_opts.schema = workload.schema;
  auto* ss = pipeline.Add<SsOperator>(std::move(ss_opts));
  src->AddOutput(ss);
  Operator* top = ss;
  SaSelect* sel = nullptr;
  if (query.select_predicate) {
    sel = pipeline.Add<SaSelect>(query.select_predicate);
    top->AddOutput(sel);
    top = sel;
  }
  auto* proj =
      pipeline.Add<SaProject>(query.project_columns, workload.schema);
  top->AddOutput(proj);
  auto* sink = pipeline.Add<CollectorSink>();
  proj->AddOutput(sink);

  std::vector<FiniteInput> inputs;
  inputs.push_back(FiniteInput{src, workload.elements});
  int64_t elapsed = 0;
  {
    ScopedTimer timer(&elapsed);
    FeedToEnd(std::move(inputs), /*batch_size=*/256);
  }
  r.tuples_in = ss->metrics().tuples_in;
  r.tuples_out = proj->metrics().tuples_out;
  FillRates(&r, elapsed);
  r.policy_memory_bytes =
      PeakTransitPolicyBytes(workload.elements, /*embedded=*/false);
  return r;
}

size_t PeakTransitPolicyBytes(const std::vector<StreamElement>& elements,
                              bool embedded, size_t span) {
  // Sliding window of `span` elements; track policy bytes contributed by
  // each element: an sp contributes its compact encoded size once; with the
  // embedded model every *tuple* instead carries its segment policy's size
  // as its own private field.
  size_t peak = 0, current = 0;
  std::deque<size_t> contrib;
  size_t current_policy_bytes = 0;
  for (const StreamElement& e : elements) {
    size_t c = 0;
    if (e.is_sp()) {
      const size_t sp_bytes = EncodedSpSize(e.sp());
      current_policy_bytes = sp_bytes;
      if (!embedded) c = sp_bytes;
    } else if (e.is_tuple() && embedded) {
      c = current_policy_bytes;
    }
    contrib.push_back(c);
    current += c;
    if (contrib.size() > span) {
      current -= contrib.front();
      contrib.pop_front();
    }
    peak = std::max(peak, current);
  }
  return peak;
}

}  // namespace spstream

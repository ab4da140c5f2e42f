// Figure 9 — SAJoin with varying sp (policy-compatibility) selectivity:
// nested-loop vs index SAJoin, with the per-100-tuples cost broken into
// total / join / sp-maintenance / tuple-maintenance, at
// σ_sp ∈ {0, 0.1, 0.5, 1}.
//
// Plus two ablations from §V.B:
//   A2  the Lemma 5.1 skipping rule (vs naive per-shared-role probing)
//   A3  probe-and-filter vs filter-and-probe nested-loop ordering
#include "bench_util.h"
#include "exec/sajoin.h"
#include "workload/policy_gen.h"

namespace spstream::bench {
namespace {

constexpr size_t kTuplesPerStream = 20000;
constexpr Timestamp kWindow = 300;

struct JoinRun {
  double total_ms;
  double join_ms;
  double sp_maint_ms;
  double tuple_maint_ms;
  int64_t results;
  int64_t segments_processed = 0;
};

JoinRun RunJoin(const JoinWorkload& wl, RoleCatalog* roles, bool index,
                SaJoinOptions::ProbeMethod probe, bool skipping) {
  StreamCatalog streams;
  ExecContext ctx{roles, &streams};
  Pipeline pipeline(&ctx);
  auto* l = pipeline.Add<PushSource>("l");
  auto* r = pipeline.Add<PushSource>("r");
  SaJoinOptions o;
  o.window_size = kWindow;
  o.left_key_col = 0;
  o.right_key_col = 0;
  o.left_stream_name = "s1";
  o.right_stream_name = "s2";
  o.probe_method = probe;
  o.use_skipping_rule = skipping;
  SaJoinBase* join;
  SaJoinIndex* idx_join = nullptr;
  if (index) {
    idx_join = pipeline.Add<SaJoinIndex>(o);
    join = idx_join;
  } else {
    join = pipeline.Add<SaJoinNl>(o);
  }
  auto* sink = pipeline.Add<CollectorSink>();
  l->AddOutput(join, 0);
  r->AddOutput(join, 1);
  join->AddOutput(sink);
  std::vector<FiniteInput> inputs;
  inputs.push_back(FiniteInput{l, wl.left});
  inputs.push_back(FiniteInput{r, wl.right});
  FeedToEnd(std::move(inputs), 256);

  // Cost breakdown via the harvested registry slice (the engine-facing
  // metrics surface); segments_processed stays operator-local — it is a
  // join-implementation detail, not an OperatorMetrics field.
  QueryMetricsSnapshot snap = HarvestPipeline(pipeline, "fig9");
  const OperatorMetrics& m =
      OpMetrics(snap, index ? "sajoin_index" : "sajoin_nl");
  JoinRun run;
  run.total_ms = MsPer100Tuples(m.total_nanos, m.tuples_in);
  run.join_ms = MsPer100Tuples(m.join_nanos, m.tuples_in);
  run.sp_maint_ms = MsPer100Tuples(m.sp_maintenance_nanos, m.tuples_in);
  run.tuple_maint_ms = MsPer100Tuples(m.tuple_maintenance_nanos, m.tuples_in);
  run.results = m.tuples_out;
  if (idx_join) run.segments_processed = idx_join->segments_processed();
  return run;
}

JoinWorkload MakeWorkload(RoleCatalog* roles, double sigma,
                          size_t roles_per_policy = 3) {
  JoinWorkloadOptions opts;
  opts.tuples_per_stream = kTuplesPerStream;
  opts.tuples_per_sp = 10;
  opts.sp_selectivity = sigma;
  opts.join_key_cardinality = 500;
  opts.roles_per_policy = roles_per_policy;
  opts.seed = 2008;
  return GenerateJoinWorkload(roles, opts);
}

void SelectivitySweep() {
  PrintHeader("Figure 9",
              "SAJoin cost breakdown (ms per 100 tuples) vs sp selectivity");
  PrintLegend("variant", {"total", "join", "sp-maint", "tuple-maint",
                          "results"});
  for (double sigma : {0.0, 0.1, 0.5, 1.0}) {
    RoleCatalog roles;
    JoinWorkload wl = MakeWorkload(&roles, sigma);
    JoinRun nl = RunJoin(wl, &roles, /*index=*/false,
                         SaJoinOptions::ProbeMethod::kProbeAndFilter, true);
    JoinRun idx = RunJoin(wl, &roles, /*index=*/true,
                          SaJoinOptions::ProbeMethod::kProbeAndFilter, true);
    std::cout << "-- s_sp = " << sigma << "\n";
    PrintRow("nested-loop", {nl.total_ms, nl.join_ms, nl.sp_maint_ms,
                             nl.tuple_maint_ms,
                             static_cast<double>(nl.results)},
             4);
    PrintRow("index", {idx.total_ms, idx.join_ms, idx.sp_maint_ms,
                       idx.tuple_maint_ms,
                       static_cast<double>(idx.results)},
             4);
  }
}

void SkippingRuleAblation() {
  PrintHeader("Ablation A2 (Lemma 5.1)",
              "index SAJoin with/without the skipping rule, overlapping "
              "3-role policies");
  PrintLegend("variant",
              {"total", "join", "segs-probed", "results"});
  RoleCatalog roles;
  // All policies share 3 roles: the worst case the skipping rule targets.
  JoinWorkloadOptions opts;
  opts.tuples_per_stream = kTuplesPerStream;
  opts.tuples_per_sp = 10;
  opts.sp_selectivity = 1.0;
  opts.join_key_cardinality = 500;
  opts.roles_per_policy = 1;
  opts.seed = 7;
  JoinWorkload wl = GenerateJoinWorkload(&roles, opts);
  // Re-tag every sp with an identical 3-role policy to maximize overlap.
  RoleSet three;
  three.Insert(roles.RegisterRole("x1"));
  three.Insert(roles.RegisterRole("x2"));
  three.Insert(roles.RegisterRole("x3"));
  for (auto* stream : {&wl.left, &wl.right}) {
    for (StreamElement& e : *stream) {
      if (e.is_sp()) e.sp().SetResolvedRoles(three);
    }
  }
  JoinRun with = RunJoin(wl, &roles, true,
                         SaJoinOptions::ProbeMethod::kProbeAndFilter, true);
  JoinRun without = RunJoin(
      wl, &roles, true, SaJoinOptions::ProbeMethod::kProbeAndFilter, false);
  PrintRow("skipping-rule",
           {with.total_ms, with.join_ms,
            static_cast<double>(with.segments_processed),
            static_cast<double>(with.results)},
           4);
  PrintRow("naive (no rule)",
           {without.total_ms, without.join_ms,
            static_cast<double>(without.segments_processed),
            static_cast<double>(without.results)},
           4);
}

void ProbeOrderAblation() {
  PrintHeader("Ablation A3 (SV.B.1)",
              "nested-loop probe-and-filter vs filter-and-probe");
  PrintLegend("s_sp", {"PF total", "PF join", "FP total", "FP join"});
  for (double sigma : {0.0, 0.1, 0.5, 1.0}) {
    RoleCatalog roles;
    JoinWorkload wl = MakeWorkload(&roles, sigma);
    JoinRun pf = RunJoin(wl, &roles, false,
                         SaJoinOptions::ProbeMethod::kProbeAndFilter, true);
    JoinRun fp = RunJoin(wl, &roles, false,
                         SaJoinOptions::ProbeMethod::kFilterAndProbe, true);
    PrintRow(std::to_string(sigma),
             {pf.total_ms, pf.join_ms, fp.total_ms, fp.join_ms}, 4);
  }
}

}  // namespace
}  // namespace spstream::bench

int main() {
  std::cout << "Reproduction of Figure 9: SAJoin with varying sp "
               "selectivity\n(two streams x "
            << spstream::bench::kTuplesPerStream
            << " tuples, window=" << spstream::bench::kWindow
            << ", equijoin)\n";
  spstream::bench::SelectivitySweep();
  spstream::bench::SkippingRuleAblation();
  spstream::bench::ProbeOrderAblation();
  return 0;
}

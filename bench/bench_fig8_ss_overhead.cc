// Figure 8 — overhead of the Security Shield operator, measured inside the
// select-project location query plan:
//
//   8a  per-operator cost (project / select / SS) vs sp:tuple ratio
//   8b  per-operator cost vs query-specifier role count R {1,10,50,100,500}
#include "bench_util.h"
#include "exec/sa_project.h"
#include "exec/sa_select.h"
#include "exec/ss_operator.h"

namespace spstream::bench {
namespace {

constexpr size_t kUpdates = 60000;

struct OpCosts {
  double project_ms;
  double select_ms;
  double ss_ms;
};

/// Run source -> SS -> select -> project -> sink and report per-operator
/// processing time per 100 tuples (ms).
OpCosts RunPlan(RoleCatalog* roles, StreamCatalog* streams,
                const EnforcementWorkload& wl,
                std::vector<RoleSet> predicates,
                bool use_predicate_index = true) {
  ExecContext ctx{roles, streams};
  Pipeline pipeline(&ctx);
  auto* src = pipeline.Add<PushSource>("src");
  SsOptions ss_opts;
  ss_opts.predicates = std::move(predicates);
  ss_opts.stream_name = wl.stream_name;
  ss_opts.schema = wl.schema;
  ss_opts.use_predicate_index = use_predicate_index;
  auto* ss = pipeline.Add<SsOperator>(std::move(ss_opts));
  auto* sel = pipeline.Add<SaSelect>(Expr::Compare(
      Expr::CmpOp::kLe,
      Expr::Distance(Expr::Column(1), Expr::Column(2),
                     Expr::Literal(Value(1450.0)),
                     Expr::Literal(Value(1450.0))),
      Expr::Literal(Value(1200.0))));
  auto* proj =
      pipeline.Add<SaProject>(std::vector<int>{0, 1, 2}, wl.schema);
  auto* sink = pipeline.Add<CollectorSink>();
  src->AddOutput(ss);
  ss->AddOutput(sel);
  sel->AddOutput(proj);
  proj->AddOutput(sink);
  std::vector<FiniteInput> inputs;
  inputs.push_back(FiniteInput{src, wl.elements});
  FeedToEnd(std::move(inputs), 256);

  // Per-operator costs come out of the harvested registry slice, the same
  // surface \metrics reads, not the raw operator pointers.
  QueryMetricsSnapshot snap = HarvestPipeline(pipeline, "fig8");
  const int64_t n = static_cast<int64_t>(kUpdates);
  return OpCosts{MsPer100Tuples(OpMetrics(snap, "project").total_nanos, n),
                 MsPer100Tuples(OpMetrics(snap, "select").total_nanos, n),
                 MsPer100Tuples(OpMetrics(snap, "SS").total_nanos, n)};
}

void RatioSweep() {
  PrintHeader("Figure 8a",
              "operator cost (ms per 100 tuples) vs sp:tuple ratio");
  PrintLegend("sp:tuple", {"project", "select", "SS"});
  for (int k : {1, 10, 25, 50, 100}) {
    RoleCatalog roles;
    StreamCatalog streams;
    EnforcementWorkload wl = MakeLocationWorkload(
        &roles, kUpdates, k, /*roles_per_policy=*/2, /*role_pool=*/100);
    auto r1 = roles.Lookup("r1").value();
    auto r2 = roles.Lookup("r2").value();
    OpCosts c = RunPlan(&roles, &streams, wl,
                        {RoleSet::FromIds({r1, r2})});
    PrintRow("1/" + std::to_string(k),
             {c.project_ms, c.select_ms, c.ss_ms}, 4);
  }
}

void RoleCountSweep() {
  PrintHeader("Figure 8b",
              "operator cost (ms per 100 tuples) vs SS state role count R");
  PrintLegend("role count", {"project", "select", "SS", "SS(no idx)"});
  for (size_t r : {size_t{1}, size_t{10}, size_t{50}, size_t{100},
                   size_t{500}}) {
    RoleCatalog roles;
    StreamCatalog streams;
    const size_t pool = std::max<size_t>(600, r + 1);
    EnforcementWorkload wl = MakeLocationWorkload(
        &roles, kUpdates, /*tuples_per_sp=*/10, /*roles_per_policy=*/2,
        /*role_pool=*/pool);
    // SS state: R query specifiers, one single-role predicate each (the
    // paper's "roles of query specifiers who want to access the results").
    std::vector<RoleSet> preds;
    preds.reserve(r);
    for (size_t i = 0; i < r; ++i) {
      preds.push_back(RoleSet::Of(static_cast<RoleId>(i)));
    }
    OpCosts with_index = RunPlan(&roles, &streams, wl, preds, true);
    OpCosts no_index = RunPlan(&roles, &streams, wl, preds, false);
    PrintRow("R=" + std::to_string(r),
             {with_index.project_ms, with_index.select_ms,
              with_index.ss_ms, no_index.ss_ms},
             4);
  }
}

}  // namespace
}  // namespace spstream::bench

int main() {
  std::cout << "Reproduction of Figure 8: Security Shield operator "
               "overhead\n(select-project location query, "
            << spstream::bench::kUpdates << " updates)\n";
  spstream::bench::RatioSweep();
  spstream::bench::RoleCountSweep();
  return 0;
}

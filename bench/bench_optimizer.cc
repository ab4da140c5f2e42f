// Ablations A4 and A5 — security-aware optimization (§VI):
//
//   A4  multi-query sharing: N queries over one subplan executed as
//       (a) N independent plans vs (b) one shared trunk behind a merged SS
//       with per-query split shields (Rule 1 merge/split).
//   A5  cost-model fidelity: does the §VI.A model rank candidate plans in
//       the same order as measured execution time? Each candidate is timed
//       in kFidelityRounds interleaved rounds (every round runs every
//       candidate once, the starting candidate rotating) and ranked by its
//       median; the min-max spread shows how far host noise reaches.
#include <algorithm>

#include "bench_util.h"
#include "exec/plan_builder.h"
#include "exec/ss_operator.h"
#include "optimizer/optimizer.h"
#include "workload/policy_gen.h"

namespace spstream::bench {
namespace {

constexpr size_t kTuples = 20000;
constexpr size_t kFidelityRounds = 7;

double RunPlanMs(ExecContext* ctx,
                 const std::unordered_map<std::string,
                                          std::vector<StreamElement>>& inputs,
                 const LogicalNodePtr& plan) {
  Pipeline pipeline(ctx);
  double ms = 0;
  RunTimed(&pipeline, plan, inputs, &ms);
  return ms;
}

void SharingAblation() {
  PrintHeader("Ablation A4 (SVI.C)",
              "multi-query sharing via SS merge/split (total ms, N queries "
              "over one select subplan)");
  PrintLegend("N queries", {"independent", "shared trunk", "speedup x"});

  RoleCatalog roles;
  StreamCatalog streams;
  auto ids = roles.RegisterSyntheticRoles(64);
  EnforcementWorkload wl = MakeLocationWorkload(
      &roles, kTuples, /*tuples_per_sp=*/10, /*roles_per_policy=*/2,
      /*role_pool=*/64);
  (void)streams.RegisterStream(wl.schema);
  ExecContext ctx{&roles, &streams};
  std::unordered_map<std::string, std::vector<StreamElement>> inputs{
      {"Location", wl.elements}};

  auto subplan = LogicalNode::Select(
      Expr::Compare(Expr::CmpOp::kGt, Expr::Column(3),
                    Expr::Literal(Value(12.0))),
      LogicalNode::Source("Location", wl.schema));

  Rng rng(9);
  for (size_t n : {2, 4, 8, 16}) {
    std::vector<RoleSet> query_roles;
    for (size_t i = 0; i < n; ++i) {
      query_roles.push_back(RoleSet::Of(ids[rng.NextBounded(64)]));
    }

    // (a) independent: each query runs its own shielded plan.
    double independent_ms = 0;
    for (const RoleSet& q : query_roles) {
      independent_ms +=
          RunPlanMs(&ctx, inputs, LogicalNode::Ss({q}, subplan->Clone()));
    }

    // (b) shared: one trunk (merged SS + subplan) executed once, plus the
    // cheap per-query split shields over the trunk's (small) output.
    SharedPlan shared = BuildSharedPlan(subplan, query_roles);
    Pipeline trunk_pipeline(&ctx);
    double shared_ms = 0;
    std::vector<StreamElement> trunk_out =
        RunTimed(&trunk_pipeline, shared.trunk, inputs, &shared_ms)
            .sinks[0]
            ->elements();
    // Split shields re-filter the trunk output per query.
    for (const RoleSet& q : query_roles) {
      Pipeline split(&ctx);
      auto* src = split.Add<PushSource>("trunk");
      SsOptions o;
      o.predicates = {q};
      o.stream_name = "Location";
      o.schema = wl.schema;
      auto* ss = split.Add<SsOperator>(std::move(o));
      auto* sink = split.Add<CollectorSink>();
      src->AddOutput(ss);
      ss->AddOutput(sink);
      std::vector<FiniteInput> fed;
      fed.push_back(FiniteInput{src, trunk_out});
      int64_t elapsed = 0;
      {
        ScopedTimer timer(&elapsed);
        FeedToEnd(std::move(fed), 256);
      }
      shared_ms += elapsed / 1e6;
    }
    PrintRow("N=" + std::to_string(n),
             {independent_ms, shared_ms,
              shared_ms > 0 ? independent_ms / shared_ms : 0},
             2);
  }
}

void CostModelFidelity() {
  PrintHeader("Ablation A5 (SVI.A)",
              "cost-model rank fidelity over SS-placement candidates");
  PrintLegend("candidate", {"predicted cost", "median ms", "min ms",
                            "max ms"});

  RoleCatalog roles;
  StreamCatalog streams;
  JoinWorkloadOptions wopts;
  wopts.tuples_per_stream = 6000;
  wopts.sp_selectivity = 0.15;
  wopts.seed = 77;
  JoinWorkload wl = GenerateJoinWorkload(&roles, wopts);
  (void)streams.RegisterStream(wl.left_schema);
  (void)streams.RegisterStream(wl.right_schema);
  ExecContext ctx{&roles, &streams};
  std::unordered_map<std::string, std::vector<StreamElement>> inputs{
      {"s1", wl.left}, {"s2", wl.right}};

  RoleSet q = RoleSet::Of(roles.Lookup("g_shared").value());
  auto base = LogicalNode::Ss(
      {q}, LogicalNode::Join(0, 0, /*window=*/200,
                             LogicalNode::Source("s1", wl.left_schema),
                             LogicalNode::Source("s2", wl.right_schema)));

  CostModelOptions mopts;
  mopts.ss_selectivity = 0.15;
  mopts.sp_selectivity = 0.15;
  CostModel model({{"s1", SourceStats{100, 10}},
                   {"s2", SourceStats{100, 10}}},
                  mopts);

  std::vector<std::pair<std::string, LogicalNodePtr>> candidates = {
      {"post (SS@root)", base},
      {"push both sides", PushSsOverBinary(base, true, true)},
      {"push left only", PushSsOverBinary(base, true, false)},
      {"push right only", PushSsOverBinary(base, false, true)},
  };

  struct Scored {
    std::string name;
    LogicalNodePtr plan;
    double predicted;
    std::vector<double> ms;  // one per round
    double measured = 0;     // median of ms
  };
  std::vector<Scored> scored;
  for (auto& [name, plan] : candidates) {
    if (!plan) continue;
    scored.push_back(Scored{name, plan, model.PlanCost(plan), {}});
  }
  for (size_t round = 0; round < kFidelityRounds; ++round) {
    for (size_t k = 0; k < scored.size(); ++k) {
      Scored& s = scored[(round + k) % scored.size()];
      s.ms.push_back(RunPlanMs(&ctx, inputs, s.plan));
    }
  }
  for (Scored& s : scored) {
    std::sort(s.ms.begin(), s.ms.end());
    s.measured = s.ms[s.ms.size() / 2];
    PrintRow(s.name, {s.predicted, s.measured, s.ms.front(), s.ms.back()},
             3);
  }

  // Rank agreement between prediction and measurement (Spearman-ish).
  auto rank_of = [&](auto key) {
    std::vector<size_t> idx(scored.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](size_t a, size_t b) { return key(a) < key(b); });
    std::vector<size_t> rank(scored.size());
    for (size_t pos = 0; pos < idx.size(); ++pos) rank[idx[pos]] = pos;
    return rank;
  };
  auto pr = rank_of([&](size_t i) { return scored[i].predicted; });
  auto mr = rank_of([&](size_t i) { return scored[i].measured; });
  size_t agreements = 0;
  for (size_t i = 0; i < scored.size(); ++i) {
    if (pr[i] == mr[i]) ++agreements;
  }
  const Scored& cheapest_predicted = *std::min_element(
      scored.begin(), scored.end(),
      [](auto& a, auto& b) { return a.predicted < b.predicted; });
  const Scored& cheapest = *std::min_element(
      scored.begin(), scored.end(),
      [](auto& a, auto& b) { return a.measured < b.measured; });
  std::cout << "rank agreement: " << agreements << "/" << scored.size()
            << " candidates ranked identically by median; cheapest "
               "predicted = '"
            << cheapest_predicted.name << "', cheapest measured = '"
            << cheapest.name << "'\n";
  // Host noise decides between candidates whose spreads overlap.
  for (const Scored& s : scored) {
    if (&s != &cheapest && s.ms.front() <= cheapest.ms.back()) {
      std::cout << "  '" << s.name << "' overlaps the cheapest's spread: "
                << "their order is not resolved\n";
    }
  }
}

}  // namespace
}  // namespace spstream::bench

int main() {
  std::cout << "Ablations A4/A5: security-aware optimization\n";
  spstream::bench::SharingAblation();
  spstream::bench::CostModelFidelity();
  return 0;
}

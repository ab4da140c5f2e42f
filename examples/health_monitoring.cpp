// Health monitoring — the paper's motivating Example 2 and Figure 4
// environment: a patient streams vitals; only his general physician may
// read them — until his vital signs spike, when a newer-timestamped sp
// escalates access so ER staff (hospital employees) also see the stream.
// The hospital server additionally refines provider policies through the
// SP Analyzer, and an attribute-level policy hides the temperature column
// from everyone but doctors and nurses.
#include <iostream>

#include "analyzer/sp_analyzer.h"
#include "exec/plan_builder.h"
#include "exec/ss_operator.h"
#include "query/parser.h"
#include "query/planner.h"
#include "workload/health_streams.h"

using namespace spstream;

int main() {
  RoleCatalog roles;
  HospitalRoles hospital = RegisterHospitalRoles(&roles);
  StreamCatalog streams;
  for (const SchemaPtr& s : {HeartRateSchema(), BodyTemperatureSchema(),
                             BreathingRateSchema()}) {
    if (auto st = streams.RegisterStream(s); !st.ok()) {
      std::cerr << st.status().ToString() << "\n";
      return 1;
    }
  }

  // --- Generate the vitals streams with escalation -------------------------
  HealthStreamOptions opts;
  opts.num_patients = 5;
  opts.updates_per_patient = 200;
  opts.emergency_prob = 0.02;
  opts.seed = 41;
  HealthWorkload wl = GenerateHealthWorkload(&roles, opts);

  // --- Server-side refinement through the SP Analyzer ----------------------
  // Hospital policy: HeartRate is never exposed beyond clinical roles,
  // whatever the patient grants.
  SpAnalyzer analyzer(&roles, "HeartRate");
  SecurityPunctuation server = SecurityPunctuation::StreamLevel(
      Pattern::Literal("HeartRate"), Pattern::Compile("GP|D|ND|E").value(),
      0);
  if (auto st = analyzer.AddServerPolicy(server); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::vector<StreamElement> heart_rate;
  for (StreamElement& e : wl.heart_rate) {
    for (StreamElement& fwd : analyzer.Process(std::move(e))) {
      heart_rate.push_back(std::move(fwd));
    }
  }
  std::cout << "admitted HeartRate stream: " << analyzer.stats().sps_in
            << " sps in, " << analyzer.stats().sps_out << " out ("
            << analyzer.stats().sps_combined << " combined, "
            << analyzer.stats().sps_refined_by_server
            << " refined by the hospital policy)\n";

  // --- Queries per subject --------------------------------------------------
  Planner planner(&streams, &roles);
  auto query = ParseSelect(
      "SELECT patient_id, beats_per_min FROM HeartRate "
      "WHERE beats_per_min > 120");
  if (!query.ok()) {
    std::cerr << query.status().ToString() << "\n";
    return 1;
  }

  ExecContext ctx{&roles, &streams};
  struct Subject {
    const char* name;
    RoleId role;
  };
  for (Subject s : {Subject{"general physician", hospital.general_physician},
                    Subject{"ER staff (employee)", hospital.employee},
                    Subject{"dermatologist", hospital.dermatologist}}) {
    auto plan = planner.PlanSelect(*query, RoleSet::Of(s.role));
    if (!plan.ok()) {
      std::cerr << plan.status().ToString() << "\n";
      return 1;
    }
    Pipeline pipeline(&ctx);
    auto built = BuildPhysicalPlan(&pipeline, {*plan});
    if (!built.ok()) {
      std::cerr << built.status().ToString() << "\n";
      return 1;
    }
    auto inputs = BindInputs(built->sources, {{"HeartRate", heart_rate}});
    if (!inputs.ok()) {
      std::cerr << inputs.status().ToString() << "\n";
      return 1;
    }
    FeedToEnd(std::move(*inputs), /*batch_size=*/64);
    std::cout << "\ntachycardia alerts visible to " << s.name << ": "
              << built->sinks[0]->Tuples().size() << "\n";
  }

  // --- Attribute-level masking ----------------------------------------------
  // Policy: temperature readable by D or ND only; the row itself readable
  // by every hospital employee. An employee's shield masks the column.
  std::cout << "\n--- attribute-granularity masking on BodyTemperature ---\n";
  SecurityPunctuation row_grant(
      Pattern::Literal("BodyTemperature"), Pattern::Any(), Pattern::Any(),
      Pattern::Compile("E|D|ND").value(), Sign::kPositive, false, 1);
  row_grant.ResolveRoles(roles);
  SecurityPunctuation temp_deny(
      Pattern::Literal("BodyTemperature"), Pattern::Any(),
      Pattern::Literal("temperature"), Pattern::Literal("E"),
      Sign::kNegative, false, 1);
  temp_deny.ResolveRoles(roles);

  std::vector<StreamElement> temps;
  temps.emplace_back(row_grant);
  temps.emplace_back(temp_deny);
  temps.emplace_back(Tuple(1, 120, {Value(120), Value(101.3)}, 1));

  for (Subject s : {Subject{"nurse on duty", hospital.nurse_on_duty},
                    Subject{"employee", hospital.employee}}) {
    Pipeline pipeline(&ctx);
    auto* src = pipeline.Add<PushSource>("src");
    SsOptions sso;
    sso.predicates = {RoleSet::Of(s.role)};
    sso.stream_name = "BodyTemperature";
    sso.schema = BodyTemperatureSchema();
    sso.mask_attributes = true;
    auto* ss = pipeline.Add<SsOperator>(std::move(sso));
    auto* sink = pipeline.Add<CollectorSink>();
    src->AddOutput(ss);
    ss->AddOutput(sink);
    FeedToEnd({{src, temps}}, /*batch_size=*/1);
    for (const Tuple& t : sink->Tuples()) {
      std::cout << "  " << s.name << " sees: patient "
                << t.values[0].ToString() << ", temperature "
                << t.values[1].ToString() << "\n";
    }
  }
  std::cout << "\nThe nurse reads 101.3F; the generic employee receives the "
               "row with the\ntemperature masked to NULL — one stream, two "
               "views, zero server round-trips.\n";
  return 0;
}

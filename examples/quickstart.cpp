// Quickstart: the smallest end-to-end spstream program.
//
// 1. Register roles and a stream.
// 2. Declare access-control policies with the paper's INSERT SP syntax.
// 3. Register a continuous query; its Security Shield inherits the query
//    specifier's roles.
// 4. Push a punctuated stream through the compiled plan and print what each
//    subject is allowed to see.
#include <iostream>

#include "exec/plan_builder.h"
#include "query/parser.h"
#include "query/planner.h"

using namespace spstream;

int main() {
  // --- Catalogs -----------------------------------------------------------
  RoleCatalog roles;
  const RoleId doctor = roles.RegisterRole("doctor");
  const RoleId insurer = roles.RegisterRole("insurer");
  (void)doctor;
  (void)insurer;

  StreamCatalog streams;
  SchemaPtr schema = MakeSchema(
      "Vitals", {Field{"patient_id", ValueType::kInt64},
                 Field{"heart_rate", ValueType::kInt64}});
  if (auto st = streams.RegisterStream(schema); !st.ok()) {
    std::cerr << st.status().ToString() << "\n";
    return 1;
  }

  Planner planner(&streams, &roles);

  // --- Policies, in the paper's CQL extension ------------------------------
  auto sp_stmt = ParseInsertSp(
      "INSERT SP INTO STREAM Vitals "
      "LET DDP = (Vitals, *, *), SRP = (RBAC, doctor), TS = 1");
  if (!sp_stmt.ok()) {
    std::cerr << sp_stmt.status().ToString() << "\n";
    return 1;
  }
  auto sp = planner.BuildSp(*sp_stmt, /*default_ts=*/1);
  if (!sp.ok()) {
    std::cerr << sp.status().ToString() << "\n";
    return 1;
  }
  std::cout << "policy: " << sp->ToString() << "\n";

  // --- The punctuated stream ----------------------------------------------
  std::vector<StreamElement> elements;
  elements.emplace_back(*sp);  // the sp precedes the tuples it governs
  elements.emplace_back(Tuple(0, 120, {Value(120), Value(72)}, 1));
  elements.emplace_back(Tuple(0, 121, {Value(121), Value(95)}, 2));

  // --- A continuous query per subject --------------------------------------
  auto query = ParseSelect(
      "SELECT patient_id, heart_rate FROM Vitals WHERE heart_rate > 80");
  if (!query.ok()) {
    std::cerr << query.status().ToString() << "\n";
    return 1;
  }

  ExecContext ctx{&roles, &streams};
  for (const char* subject : {"doctor", "insurer"}) {
    auto role = roles.Lookup(subject);
    auto plan = planner.PlanSelect(*query, RoleSet::Of(*role));
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
    auto inputs = BindInputs(built->sources, {{"Vitals", elements}});
    if (!inputs.ok()) {
      std::cerr << inputs.status().ToString() << "\n";
      return 1;
    }
    FeedToEnd(std::move(*inputs), /*batch_size=*/1);
    std::cout << "\nresults for subject '" << subject << "':\n";
    const auto tuples = built->sinks[0]->Tuples();
    if (tuples.empty()) {
      std::cout << "  (access denied - nothing)\n";
    }
    for (const Tuple& t : tuples) {
      std::cout << "  " << t.ToString() << "\n";
    }
  }
  std::cout << "\nThe doctor sees the elevated reading; the insurer sees "
               "nothing - denial by default,\nenforced in-stream by the "
               "security punctuation.\n";
  return 0;
}

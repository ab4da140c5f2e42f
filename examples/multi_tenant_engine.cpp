// Multi-tenant engine demo: the integrated SpStreamEngine facade running
// several continuous queries for different subjects over one punctuated
// stream, with server-side policy refinement, an incremental policy change
// (§IX extension), and a runtime role-assignment change (§IX extension).
#include <iostream>

#include "engine/engine.h"

using namespace spstream;

namespace {

Tuple Reading(TupleId patient, int64_t bpm, Timestamp ts) {
  return Tuple(0, patient,
               {Value(static_cast<int64_t>(patient)), Value(bpm)}, ts);
}

// Set by Check and Report on the first failed call; main returns 1 then.
bool failed = false;

void Check(const Status& st) {
  if (st.ok()) return;
  std::cerr << st.ToString() << "\n";
  failed = true;
}

void Report(SpStreamEngine& engine, QueryId q, const std::string& who) {
  auto results = engine.TakeResults(q);
  if (!results.ok()) {
    Check(results.status());
    return;
  }
  std::cout << "  " << who << " received " << results->size()
            << " tuple(s)";
  if (!results->empty()) {
    std::cout << " (first: " << results->front().ToString() << ")";
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  SpStreamEngine engine;
  engine.RegisterRole("GP");
  engine.RegisterRole("ND");
  engine.RegisterRole("E");

  if (auto st = engine.RegisterStream(MakeSchema(
          "Vitals", {Field{"patient_id", ValueType::kInt64},
                     Field{"bpm", ValueType::kInt64}}));
      !st.ok()) {
    std::cerr << st.status().ToString() << "\n";
    return 1;
  }

  // Hospital-wide server policy: Vitals never leaves clinical roles.
  SecurityPunctuation server = SecurityPunctuation::StreamLevel(
      Pattern::Literal("Vitals"), Pattern::Compile("GP|ND").value(), 0);
  Check(engine.AddServerPolicy("Vitals", server));

  Check(engine.RegisterSubject("alice_gp", {"GP"}));
  Check(engine.RegisterSubject("bob_nurse", {"ND"}));
  Check(engine.RegisterSubject("carol_admin", {"E"}));

  auto q_alice = engine.RegisterQuery(
      "alice_gp", "SELECT patient_id, bpm FROM Vitals WHERE bpm > 100");
  auto q_bob = engine.RegisterQuery("bob_nurse",
                                    "SELECT patient_id, bpm FROM Vitals");
  auto q_carol = engine.RegisterQuery("carol_admin",
                                      "SELECT patient_id FROM Vitals");
  if (!q_alice.ok() || !q_bob.ok() || !q_carol.ok()) {
    std::cerr << "query registration failed\n";
    return 1;
  }
  std::cout << "plan for alice:\n" << *engine.ExplainQuery(*q_alice);

  // ---- epoch 1: patient grants GP and the (server-blocked) employee ------
  Check(engine.ExecuteInsertSp(
      "INSERT SP INTO STREAM Vitals "
      "LET DDP = (Vitals, *, *), SRP = (RBAC, GP|E), TS = 1"));
  Check(engine.Push("Vitals", {StreamElement(Reading(120, 110, 1)),
                               StreamElement(Reading(121, 80, 2))}));
  Check(engine.Run());
  std::cout << "\nepoch 1 (policy GP|E, server clamps to GP|ND):\n";
  Report(engine, *q_alice, "alice (GP, bpm>100)");
  Report(engine, *q_bob, "bob   (ND)");
  Report(engine, *q_carol, "carol (E)  [server policy blocks employees]");

  // ---- epoch 2: incremental delta adds the nurse role (§IX) ---------------
  // Base policy (GP only), then a delta sp that EDITS it (+ND) instead of
  // overriding — both ride the stream ahead of the reading.
  Check(engine.ExecuteInsertSp(
      "INSERT SP INTO STREAM Vitals "
      "LET DDP = (Vitals, *, *), SRP = (RBAC, GP), TS = 9"));
  Check(engine.ExecuteInsertSp(
      "INSERT SP INTO STREAM Vitals "
      "LET DDP = (Vitals, *, *), SRP = (RBAC, ND), SIGN = positive, "
      "INCREMENTAL = true, TS = 10"));
  Check(engine.Push("Vitals", {StreamElement(Reading(120, 120, 10))}));
  Check(engine.Run());
  std::cout << "\nepoch 2 (base GP, then incremental +ND):\n";
  Report(engine, *q_alice, "alice (GP)  [keeps access: delta edits, not "
                           "overrides]");
  Report(engine, *q_bob, "bob   (ND)  [gains access via the delta sp]");

  // ---- epoch 3: runtime role change — bob is promoted to GP (§IX) --------
  Check(engine.UpdateSubjectRoles("bob_nurse", {"GP"}));
  Check(engine.ExecuteInsertSp(
      "INSERT SP INTO STREAM Vitals "
      "LET DDP = (Vitals, *, *), SRP = (RBAC, GP), TS = 20"));
  Check(engine.Push("Vitals", {StreamElement(Reading(122, 95, 20))}));
  Check(engine.Run());
  std::cout << "\nepoch 3 (policy GP-only; bob now holds GP):\n";
  Report(engine, *q_bob, "bob   (GP after runtime role change)");
  Report(engine, *q_carol, "carol (E)");

  std::cout << "\nOne engine, three tenants: every result above was "
               "authorized by punctuations\nstreamed with the data, refined "
               "by the server, and enforced inside the plans.\n";
  return failed ? 1 : 0;
}

// Location privacy — the paper's motivating Example 1 ("protection against
// context-aware spam") and the workload of its evaluation:
//
// Moving objects (people with GPS devices) stream their positions and
// selectively restrict who may see them. A retail store registers the
// evaluation's running query — "continuously retrieve all moving objects in
// the two-mile region around the store" — but only receives the objects
// whose current policy admits the store's role. A family-member query over
// the very same plan shape sees a different slice of the stream.
#include <iostream>

#include "exec/plan_builder.h"
#include "query/parser.h"
#include "query/planner.h"
#include "workload/moving_objects.h"
#include "workload/road_network.h"

using namespace spstream;

int main() {
  RoleCatalog roles;
  // The paper's example roles: r1 family member, r2 manager, r3 retail
  // store (§VII.A).
  const RoleId family = roles.RegisterRole("family_member");
  const RoleId manager = roles.RegisterRole("manager");
  const RoleId store = roles.RegisterRole("retail_store");
  (void)manager;

  StreamCatalog streams;
  SchemaPtr schema = MovingObjectsGenerator::LocationSchema("Location");
  if (auto st = streams.RegisterStream(schema); !st.ok()) {
    std::cerr << st.status().ToString() << "\n";
    return 1;
  }

  // Synthetic city road network (our Brinkhoff-generator substitute) with
  // objects walking it. Policies rotate: every block of 10 updates carries
  // one sp naming who may currently see those objects.
  MovingObjectsOptions opts;
  opts.num_objects = 500;
  opts.num_updates = 5000;
  opts.tuples_per_sp = 10;
  opts.roles_per_policy = 2;
  opts.role_pool = 3;  // policies drawn over {family, manager, store}
  opts.seed = 99;
  MovingObjectsGenerator gen(&roles, RoadNetwork::Grid({}), opts);
  std::vector<StreamElement> elements = gen.Generate();

  size_t n_sps = 0, n_tuples = 0;
  for (const auto& e : elements) {
    n_sps += e.is_sp();
    n_tuples += e.is_tuple();
  }
  std::cout << "generated " << n_tuples << " location updates guarded by "
            << n_sps << " security punctuations\n";

  // The store's continuous query (the paper's two-mile-region query; our
  // synthetic city uses meters).
  Planner planner(&streams, &roles);
  auto query = ParseSelect(
      "SELECT object_id, x, y FROM Location "
      "WHERE DISTANCE(x, y, 1450, 1450) <= 800");
  if (!query.ok()) {
    std::cerr << query.status().ToString() << "\n";
    return 1;
  }

  ExecContext ctx{&roles, &streams};
  auto run_for = [&](const std::string& who, RoleId role) {
    auto plan = planner.PlanSelect(*query, RoleSet::Of(role));
    if (!plan.ok()) {
      std::cerr << plan.status().ToString() << "\n";
      return false;
    }
    Pipeline pipeline(&ctx);
    auto built = BuildPhysicalPlan(&pipeline, {*plan});
    if (!built.ok()) {
      std::cerr << built.status().ToString() << "\n";
      return false;
    }
    auto inputs = BindInputs(built->sources, {{"Location", elements}});
    if (!inputs.ok()) {
      std::cerr << inputs.status().ToString() << "\n";
      return false;
    }
    FeedToEnd(std::move(*inputs), /*batch_size=*/64);
    const auto tuples = built->sinks[0]->Tuples();
    std::cout << "\n'" << who << "' query: " << tuples.size()
              << " in-region updates visible";
    if (!tuples.empty()) {
      std::cout << "; e.g. object " << tuples.front().tid << " at ("
                << tuples.front().values[1].ToString() << ", "
                << tuples.front().values[2].ToString() << ")";
    }
    std::cout << "\n";
    return true;
  };

  if (!run_for("retail store (context-aware advertiser)", store) ||
      !run_for("family member", family)) {
    return 1;
  }

  std::cout << "\nBoth queries run the same plan; the in-stream policies "
               "decide per segment\nwho receives which objects — the store "
               "is blocked exactly where people opted out.\n";
  return 0;
}

// Paper-scale sanity: the evaluation used 110 000 moving objects. These
// tests run the full admission + enforcement path at that object count
// (bounded update volume keeps them fast) and check scale-sensitive
// structures: SPIndex growth, policy-store growth, window churn.
#include <gtest/gtest.h>

#include "analyzer/sp_analyzer.h"
#include "baselines/enforcement.h"
#include "exec/sajoin.h"
#include "exec/ss_operator.h"
#include "test_util.h"
#include "workload/moving_objects.h"
#include "workload/policy_gen.h"
#include "workload/road_network.h"

namespace spstream {
namespace {

TEST(ScaleTest, PaperScaleObjectPopulation) {
  RoleCatalog roles;
  StreamCatalog streams;
  MovingObjectsGenerator::SeedRoles(&roles, 100);
  MovingObjectsOptions opts;
  opts.num_objects = 110000;  // §VII.A: "110K moving objects"
  opts.num_updates = 120000;
  opts.tuples_per_sp = 10;
  opts.roles_per_policy = 2;
  opts.role_pool = 100;
  RoadNetworkOptions net;
  net.grid_width = 40;
  net.grid_height = 40;
  MovingObjectsGenerator gen(&roles, RoadNetwork::Grid(net), opts);
  EnforcementWorkload wl;
  wl.elements = gen.Generate();
  wl.schema = MovingObjectsGenerator::LocationSchema("Location");
  wl.stream_name = "Location";

  size_t tuples = 0, sps = 0;
  TupleId max_tid = 0;
  for (const auto& e : wl.elements) {
    if (e.is_tuple()) {
      ++tuples;
      max_tid = std::max(max_tid, e.tuple().tid);
    } else if (e.is_sp()) {
      ++sps;
    }
  }
  EXPECT_EQ(tuples, 120000u);
  EXPECT_GT(max_tid, 100000);  // the long tail of object ids is exercised

  // Full enforcement pass over the population.
  EnforcementQuery q;
  q.project_columns = {0, 1, 2};
  auto r1 = roles.Lookup("r1").value();
  auto r2 = roles.Lookup("r2").value();
  q.query_roles = RoleSet::FromIds({r1, r2});
  SpFrameworkDriver sp_driver(&roles, &streams);
  EnforcementResult res = sp_driver.Run(wl, q);
  EXPECT_EQ(res.tuples_in, 120000);
  EXPECT_GT(res.tuples_out, 0);
  EXPECT_LT(res.tuples_out, res.tuples_in);

  // The central-table baseline handles the same population and agrees.
  StoreAndProbeDriver store_driver(&roles);
  EnforcementResult store_res = store_driver.Run(wl, q);
  EXPECT_EQ(store_res.tuples_out, res.tuples_out);
}

TEST(ScaleTest, SpIndexSustainsManyResidentSegments) {
  RoleCatalog roles;
  StreamCatalog streams;
  JoinWorkloadOptions opts;
  opts.tuples_per_stream = 30000;
  opts.tuples_per_sp = 3;  // many segments resident at once
  opts.sp_selectivity = 0.3;
  opts.join_key_cardinality = 5000;
  opts.roles_per_policy = 4;
  opts.seed = 99;
  JoinWorkload wl = GenerateJoinWorkload(&roles, opts);

  ExecContext ctx{&roles, &streams};
  Pipeline pipeline(&ctx);
  auto* l = pipeline.Add<PushSource>("l");
  auto* r = pipeline.Add<PushSource>("r");
  SaJoinOptions o;
  o.window_size = 2000;  // ~2000 resident tuples => ~670 segments per side
  o.left_stream_name = "s1";
  o.right_stream_name = "s2";
  auto* join = pipeline.Add<SaJoinIndex>(o);
  auto* sink = pipeline.Add<CollectorSink>();
  l->AddOutput(join, 0);
  r->AddOutput(join, 1);
  join->AddOutput(sink);
  FeedToEnd({{l, wl.left}, {r, wl.right}}, 512);

  EXPECT_EQ(join->metrics().tuples_in, 60000);
  EXPECT_GT(join->metrics().tuples_out, 0);
  // Windows stayed bounded (no leak): resident tuples within 2x window.
  EXPECT_LE(join->left_window().tuple_count(), 4000u);
  EXPECT_LE(join->right_window().tuple_count(), 4000u);
}

TEST(ScaleTest, AnalyzerThroughputOnWidePolicies) {
  RoleCatalog roles;
  roles.RegisterSyntheticRoles(512);
  SpAnalyzer analyzer(&roles, "s");
  Rng rng(7);
  size_t out_count = 0;
  for (int i = 0; i < 20000; ++i) {
    if (i % 5 == 0) {
      RoleSet wide;
      for (int k = 0; k < 64; ++k) {
        wide.Insert(static_cast<RoleId>(rng.NextBounded(512)));
      }
      SecurityPunctuation sp = SecurityPunctuation::StreamLevel(
          Pattern::Literal("s"), Pattern::Any(), i);
      sp.SetResolvedRoles(std::move(wide));
      out_count += analyzer.Process(StreamElement(std::move(sp))).size();
    } else {
      out_count +=
          analyzer
              .Process(StreamElement(sptest::MakeTuple(i, {i}, i)))
              .size();
    }
  }
  out_count += analyzer.Flush().size();
  EXPECT_GT(out_count, 20000u - 4000u);  // tuples + surviving sps
}

}  // namespace
}  // namespace spstream

#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace spstream::bench {

void PrintHeader(const std::string& figure, const std::string& title) {
  std::cout << "\n=== " << figure << ": " << title << " ===\n";
}

void PrintLegend(const std::string& first,
                 const std::vector<std::string>& columns) {
  std::cout << std::left << std::setw(18) << first;
  for (const std::string& c : columns) {
    std::cout << std::right << std::setw(16) << c;
  }
  std::cout << "\n";
}

void PrintRow(const std::string& label, const std::vector<double>& values,
              int precision) {
  std::cout << std::left << std::setw(18) << label;
  for (double v : values) {
    std::cout << std::right << std::setw(16) << std::fixed
              << std::setprecision(precision) << v;
  }
  std::cout << "\n";
}

EnforcementWorkload MakeLocationWorkload(RoleCatalog* roles,
                                         size_t num_updates,
                                         int tuples_per_sp,
                                         size_t roles_per_policy,
                                         size_t role_pool,
                                         size_t distinct_policies,
                                         uint64_t seed) {
  MovingObjectsGenerator::SeedRoles(roles, role_pool);
  MovingObjectsOptions opts;
  opts.num_objects = std::min<size_t>(num_updates, 110000);  // paper: 110K
  opts.num_updates = num_updates;
  opts.tuples_per_sp = tuples_per_sp;
  opts.roles_per_policy = roles_per_policy;
  opts.role_pool = role_pool;
  opts.distinct_policies = distinct_policies;
  opts.seed = seed;
  RoadNetworkOptions net_opts;
  net_opts.grid_width = 30;  // Worcester-scale synthetic road grid
  net_opts.grid_height = 30;
  MovingObjectsGenerator gen(roles, RoadNetwork::Grid(net_opts), opts);
  EnforcementWorkload wl;
  wl.elements = gen.Generate();
  wl.schema = MovingObjectsGenerator::LocationSchema("Location");
  wl.stream_name = "Location";
  return wl;
}

QueryMetricsSnapshot HarvestPipeline(const Pipeline& pipeline,
                                     const std::string& query) {
  MetricsRegistry registry;
  pipeline.HarvestInto(&registry, query);
  MetricsSnapshot snap = registry.Snapshot();
  const QueryMetricsSnapshot* q = snap.FindQuery(query);
  if (q == nullptr) return QueryMetricsSnapshot{};  // empty pipeline
  return *q;
}

const OperatorMetrics& OpMetrics(const QueryMetricsSnapshot& snap,
                                 const std::string& label) {
  const OperatorMetrics* m = snap.FindOperator(label);
  if (m == nullptr) {
    std::cerr << "bench error: no operator labeled '" << label
              << "' in harvested metrics of '" << snap.query << "'\n";
    std::abort();
  }
  return *m;
}

double RepStats::Min() const {
  double m = seconds.empty() ? 0.0 : seconds[0];
  for (double s : seconds) m = std::min(m, s);
  return m;
}

double RepStats::Mean() const {
  if (seconds.empty()) return 0.0;
  double sum = 0;
  for (double s : seconds) sum += s;
  return sum / static_cast<double>(seconds.size());
}

double RepStats::Stddev() const {
  if (seconds.size() < 2) return 0.0;
  const double mean = Mean();
  double sq = 0;
  for (double s : seconds) sq += (s - mean) * (s - mean);
  return std::sqrt(sq / static_cast<double>(seconds.size()));
}

RepStats MeasureReps(int reps, const std::function<void()>& warmup,
                     const std::function<double()>& timed_rep) {
  warmup();
  RepStats stats;
  stats.seconds.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) stats.seconds.push_back(timed_rep());
  return stats;
}

void AppendRepStatsJson(std::ostream& os, const RepStats& stats) {
  os << "\"seconds\":" << stats.Min() << ",\"seconds_mean\":" << stats.Mean()
     << ",\"seconds_stddev\":" << stats.Stddev()
     << ",\"reps\":" << stats.seconds.size();
}

double MsPer100Tuples(int64_t nanos, int64_t tuples) {
  if (tuples == 0) return 0.0;
  return (static_cast<double>(nanos) / 1e6) /
         (static_cast<double>(tuples) / 100.0);
}

EnforcementQuery MakeRegionQuery(RoleSet query_roles, double center_x,
                                 double center_y, double radius) {
  EnforcementQuery q;
  q.select_predicate = Expr::Compare(
      Expr::CmpOp::kLe,
      Expr::Distance(Expr::Column(1), Expr::Column(2),
                     Expr::Literal(Value(center_x)),
                     Expr::Literal(Value(center_y))),
      Expr::Literal(Value(radius)));
  q.project_columns = {0, 1, 2};
  q.query_roles = std::move(query_roles);
  return q;
}

}  // namespace spstream::bench

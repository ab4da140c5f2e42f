// Shared helpers for the figure-reproduction benchmarks: fixed-width table
// printing in the shape of the paper's plots, plus common workload/query
// builders.
#pragma once

#include <functional>
#include <iomanip>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/enforcement.h"
#include "common/metrics_registry.h"
#include "exec/expr.h"
#include "exec/operator.h"
#include "exec/plan_builder.h"
#include "security/role_catalog.h"
#include "workload/moving_objects.h"
#include "workload/road_network.h"

namespace spstream::bench {

/// \brief Print a section header for one figure/panel.
void PrintHeader(const std::string& figure, const std::string& title);

/// \brief Print one table row: first column label + numeric columns.
void PrintRow(const std::string& label, const std::vector<double>& values,
              int precision = 3);

/// \brief Print the column legend.
void PrintLegend(const std::string& first,
                 const std::vector<std::string>& columns);

/// \brief Build the §VII.A moving-objects workload.
EnforcementWorkload MakeLocationWorkload(RoleCatalog* roles,
                                         size_t num_updates,
                                         int tuples_per_sp,
                                         size_t roles_per_policy,
                                         size_t role_pool,
                                         size_t distinct_policies = 0,
                                         uint64_t seed = 2008);

/// \brief The paper's running query: "continuously retrieve all moving
/// objects in the two mile region around the store" — a select-project over
/// the location stream.
EnforcementQuery MakeRegionQuery(RoleSet query_roles, double center_x,
                                 double center_y, double radius);

// ---- registry consumption ------------------------------------------------
// The figures read operator costs through the same MetricsRegistry surface
// the engine exposes, instead of poking individual Operator pointers.

/// \brief Harvest a finished pipeline into a one-off registry and return the
/// per-query slice (bench pipelines run once, so metrics merge cleanly).
QueryMetricsSnapshot HarvestPipeline(const Pipeline& pipeline,
                                     const std::string& query = "bench");

/// \brief Metrics of the operator labeled `label` in a harvested slice.
/// Aborts with a diagnostic when the label is absent — a bench mislabeling
/// is a bug, not a runtime condition.
const OperatorMetrics& OpMetrics(const QueryMetricsSnapshot& snap,
                                 const std::string& label);

/// \brief The figures' normalization: milliseconds per 100 input tuples.
double MsPer100Tuples(int64_t nanos, int64_t tuples);

/// \brief Compile `plan` into `pipeline`, bind its leaves to copies of
/// `inputs`, and time only the feed to the end at batch size 256 into
/// `*ms`. Returns the plan (its sink holds the results). Aborts with a
/// diagnostic on a compile or bind error, as OpMetrics does.
PhysicalPlan RunTimed(
    Pipeline* pipeline, const LogicalNodePtr& plan,
    const std::unordered_map<std::string, std::vector<StreamElement>>& inputs,
    double* ms);

// ---- repetition statistics -------------------------------------------------
// Throughput benches report min/mean/stddev over N repetitions after a
// discarded warmup, instead of a single hot-or-cold run. The min is the
// headline (least scheduler noise); the stddev is the error bar.

/// \brief Per-configuration timing across repetitions (seconds each).
struct RepStats {
  std::vector<double> seconds;
  double Min() const;
  double Mean() const;
  double Stddev() const;  ///< population stddev; 0 with fewer than 2 reps
};

/// \brief Run `warmup` once (untimed, discarded), then `reps` calls of
/// `timed_rep` — which runs one full repetition and returns its elapsed
/// seconds — and collect the timings.
RepStats MeasureReps(int reps, const std::function<void()>& warmup,
                     const std::function<double()>& timed_rep);

/// \brief Append the shared JSON fields of one repeated measurement:
/// "seconds":<min>,"seconds_mean":...,"seconds_stddev":...,"reps":N.
void AppendRepStatsJson(std::ostream& os, const RepStats& stats);

}  // namespace spstream::bench

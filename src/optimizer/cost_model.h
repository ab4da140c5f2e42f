// The security-aware per-unit-time cost model of §VI.A.
//
// For each operator with input tuple rates λ1, λ2 and sp rates λsp1, λsp2,
// window populations N = W·λ and Nsp = W·λsp:
//
//   SS           Σ_i (λi + λspi · (N_Rsp + N_R))
//   σ, π         Σ_i (λi + λspi)
//   NL SAJoin    λ1(N2 + Nsp2) + λ2(N1 + Nsp1)
//   index SAJoin λ1·σsp(N2 + Nsp2) + λ2·σsp(N1 + Nsp1)
//                  + N_Rsp(λsp1 + λsp2)          [index maintenance]
//   δ            λ1(No + Nspo)
//   group-by     2C(λ1 + λsp1)
//
// The model also propagates output tuple/sp rates so costs compose down a
// plan; the optimizer sums node costs to rank candidate rewrites.
#pragma once

#include <string>
#include <unordered_map>

#include "common/status.h"
#include "query/logical_plan.h"

namespace spstream {

/// \brief Arrival statistics of one registered stream.
struct SourceStats {
  double tuple_rate = 100.0;  ///< λ, tuples per unit time
  double sp_rate = 10.0;      ///< λsp, sps per unit time
};

/// \brief Global knobs of the cost model.
struct CostModelOptions {
  double roles_per_sp = 2.0;           ///< N_Rsp, expected roles per sp
  double select_selectivity = 0.5;     ///< default σ of a selection
  double ss_selectivity = 0.5;         ///< fraction of policies matching SS
  double sp_selectivity = 0.5;         ///< σsp: policy-compat fraction (join)
  double join_match_selectivity = 0.01;///< equijoin value-match probability
  double distinct_values = 100.0;      ///< ndv feeding δ's output size
  double groupby_recompute_cost = 1.0; ///< C
  bool index_join = true;              ///< cost joins as index SAJoin

  /// Per-role statistics: fraction of stream policies containing the role.
  /// When present, an SS predicate's selectivity is estimated from its
  /// roles (independence approximation), enabling the §VI.C optimization
  /// "split the SS state and push the lower-selectivity [more filtering]
  /// part down". Roles absent from the map fall back to ss_selectivity.
  std::unordered_map<RoleId, double> role_match_fraction;
};

/// \brief Rates and cost flowing out of one plan node.
struct NodeEstimate {
  double tuple_rate = 0;  ///< λ out
  double sp_rate = 0;     ///< λsp out
  double window = 0;      ///< W in effect (windowed ops)
  double cost = 0;        ///< this node's per-unit-time cost
  double subtree_cost = 0;///< cost including children
  /// Shield predicates already enforced on this path (rendered). A repeat
  /// application filters nothing, so its selectivity is 1 — without this,
  /// stacking identical shields would look free *and* beneficial to the
  /// optimizer.
  std::vector<std::string> applied_ss;
};

/// \brief Evaluates §VI.A over logical plans.
class CostModel {
 public:
  CostModel(std::unordered_map<std::string, SourceStats> sources,
            CostModelOptions options)
      : sources_(std::move(sources)), options_(options) {}

  /// \brief Estimate the root (recursively estimating children).
  NodeEstimate Estimate(const LogicalNodePtr& node) const;

  /// \brief Total plan cost (root subtree cost).
  double PlanCost(const LogicalNodePtr& root) const {
    return Estimate(root).subtree_cost;
  }

  const CostModelOptions& options() const { return options_; }

  /// \brief Estimated fraction of segments an SS with these (conjunctive)
  /// predicates lets through.
  double SsSelectivity(const std::vector<RoleSet>& predicates) const;

 private:
  std::unordered_map<std::string, SourceStats> sources_;
  CostModelOptions options_;
};

}  // namespace spstream

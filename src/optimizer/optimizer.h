#ifndef FGAC_OPTIMIZER_OPTIMIZER_H_
#define FGAC_OPTIMIZER_OPTIMIZER_H_

#include "common/result.h"
#include "optimizer/cost.h"
#include "optimizer/memo.h"
#include "optimizer/rules.h"

namespace fgac::optimizer {

struct OptimizeResult {
  algebra::PlanPtr plan;
  double estimated_rows = 0.0;
  double estimated_cost = 0.0;
  ExpandStats expand_stats;
  size_t memo_groups = 0;
  size_t memo_exprs = 0;
  /// Join ordering: leaves of all reordered join regions, and the joins
  /// (leaf-set splits) priced to order them.
  size_t join_leaves = 0;
  size_t join_splits = 0;
};

/// Cost-based optimization in two steps. First a Volcano-style memo: insert
/// the plan into a fresh AND-OR DAG, expand it with the structural,
/// subsumption, aggregate and distinct rules of `options` (its join
/// commute/associate switches are ignored), and extract the cheapest plan
/// by dynamic programming over equivalence nodes. Then each inner-join
/// region of that plan is reordered by dynamic programming over subsets of
/// its leaves (greedily past 10 leaves), priced by the same cost model.
Result<OptimizeResult> Optimize(const algebra::PlanPtr& plan,
                                const ExpandOptions& options,
                                const TableRowCount& row_count);

/// DP extraction only (for a memo the caller already built/expanded).
Result<OptimizeResult> ExtractBestPlan(const Memo& memo, GroupId root,
                                       const TableRowCount& row_count);

}  // namespace fgac::optimizer

#endif  // FGAC_OPTIMIZER_OPTIMIZER_H_

#ifndef FGAC_OPTIMIZER_COST_H_
#define FGAC_OPTIMIZER_COST_H_

#include <functional>
#include <string>

#include "optimizer/memo.h"

namespace fgac::optimizer {

/// Table statistics provider: rows in a base table. Defaults to 1000 when
/// unset or unknown.
using TableRowCount = std::function<double(const std::string& table)>;

struct CostEstimate {
  double rows = 0.0;
  double cost = 0.0;
};

/// Simple textbook cost model: linear scan/filter/project costs, hash join
/// for equi-predicates (build + probe), nested loop otherwise, selectivity
/// heuristics (0.1 per equality conjunct, 0.33 per range conjunct).
CostEstimate EstimateExprCost(const Memo& memo, ExprId eid,
                              const std::function<CostEstimate(GroupId)>& child);

/// The same model over a plan tree (Gets priced by `row_count`).
CostEstimate EstimatePlanCost(const algebra::PlanPtr& plan,
                              const TableRowCount& row_count);

/// A full scan of `table`: its row count, 1000 when `row_count` is unset.
CostEstimate ScanCost(const std::string& table, const TableRowCount& row_count);

/// The join formula shared by the memo extractor and the join-order search:
/// a hash join (build on the right input) when some conjunct equates a
/// left-only expression with a right-only one (`equi`), a nested loop
/// otherwise. `selectivity` is the conjuncts' combined selectivity and is
/// read only for a nested loop with predicates.
CostEstimate JoinCost(const CostEstimate& left, const CostEstimate& right,
                      bool has_predicates, bool equi, double selectivity);

/// Row-count/selectivity helpers shared with the executor-facing benches.
double PredicateSelectivity(const std::vector<algebra::ScalarPtr>& predicates);
/// One conjunct's selectivity; PredicateSelectivity is their product,
/// floored at 1e-9.
double ConjunctSelectivity(const algebra::ScalarPtr& conjunct);

}  // namespace fgac::optimizer

#endif  // FGAC_OPTIMIZER_COST_H_

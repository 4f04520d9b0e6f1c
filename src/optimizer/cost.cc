#include "optimizer/cost.h"

#include <algorithm>
#include <cmath>

namespace fgac::optimizer {

using algebra::PlanKind;
using algebra::ScalarKind;
using algebra::ScalarPtr;

namespace {

bool HasEquiJoinPair(const std::vector<ScalarPtr>& preds, size_t left_arity) {
  for (const ScalarPtr& p : preds) {
    if (p->kind != ScalarKind::kBinary || p->bin_op != sql::BinOp::kEq) continue;
    std::set<int> l, r;
    algebra::CollectSlots(p->left, &l);
    algebra::CollectSlots(p->right, &r);
    auto side = [&](const std::set<int>& s) {
      if (s.empty()) return 0;  // constant
      if (*s.rbegin() < static_cast<int>(left_arity)) return 1;
      if (*s.begin() >= static_cast<int>(left_arity)) return 2;
      return 3;  // mixed
    };
    int sl = side(l), sr = side(r);
    if ((sl == 1 && sr == 2) || (sl == 2 && sr == 1)) return true;
  }
  return false;
}

/// One operator's estimate from its inputs' estimates. `Node` is a
/// MemoExpr or an algebra::Plan (same payload fields); Gets are priced by
/// the caller. `left_arity` is read for joins only.
template <typename Node>
CostEstimate OperatorCost(const Node& e, const std::vector<CostEstimate>& in,
                          size_t left_arity) {
  CostEstimate out;
  switch (e.kind) {
    case PlanKind::kGet:
      // Gets have no inputs; the caller prices the scan with ScanCost.
      out.rows = 1000.0;
      out.cost = out.rows;
      return out;
    case PlanKind::kValues:
      out.rows = static_cast<double>(e.rows.size());
      out.cost = out.rows;
      return out;
    case PlanKind::kSelect:
      out.rows = std::max(1.0, in[0].rows * PredicateSelectivity(e.predicates));
      out.cost = in[0].cost + in[0].rows;
      return out;
    case PlanKind::kProject:
      out.rows = in[0].rows;
      out.cost = in[0].cost + in[0].rows;
      return out;
    case PlanKind::kJoin: {
      bool equi = HasEquiJoinPair(e.predicates, left_arity);
      return JoinCost(in[0], in[1], !e.predicates.empty(), equi,
                      equi ? 1.0 : PredicateSelectivity(e.predicates));
    }
    case PlanKind::kAggregate:
      out.rows = e.group_by.empty() ? 1.0 : std::max(1.0, in[0].rows * 0.1);
      out.cost = in[0].cost + 2.0 * in[0].rows;
      return out;
    case PlanKind::kDistinct:
      out.rows = std::max(1.0, in[0].rows * 0.5);
      out.cost = in[0].cost + 2.0 * in[0].rows;
      return out;
    case PlanKind::kSort:
      out.rows = in[0].rows;
      out.cost = in[0].cost + in[0].rows * std::log2(in[0].rows + 2.0);
      return out;
    case PlanKind::kLimit:
      out.rows = std::min(in[0].rows, static_cast<double>(e.limit));
      out.cost = in[0].cost;
      return out;
    case PlanKind::kUnionAll:
      for (const CostEstimate& c : in) {
        out.rows += c.rows;
        out.cost += c.cost + c.rows;
      }
      return out;
  }
  return out;
}

}  // namespace

double ConjunctSelectivity(const ScalarPtr& p) {
  if (p->kind == ScalarKind::kBinary) {
    switch (p->bin_op) {
      case sql::BinOp::kEq:
        return 0.1;
      case sql::BinOp::kNe:
        return 0.9;
      case sql::BinOp::kLt:
      case sql::BinOp::kLe:
        return 0.33;
      case sql::BinOp::kOr:
        return 0.5;
      default:
        return 0.5;
    }
  }
  if (p->kind == ScalarKind::kInList) {
    return std::min(1.0, 0.1 * static_cast<double>(p->in_list.size()));
  }
  return 0.5;
}

double PredicateSelectivity(const std::vector<ScalarPtr>& predicates) {
  double sel = 1.0;
  for (const ScalarPtr& p : predicates) sel *= ConjunctSelectivity(p);
  return std::max(sel, 1e-9);
}

CostEstimate ScanCost(const std::string& table,
                      const TableRowCount& row_count) {
  CostEstimate out;
  out.rows = row_count != nullptr ? row_count(table) : 1000.0;
  out.cost = out.rows;
  return out;
}

CostEstimate JoinCost(const CostEstimate& l, const CostEstimate& r,
                      bool has_predicates, bool equi, double selectivity) {
  double sel = !has_predicates
                   ? 1.0
                   : (equi ? 1.0 / std::max({l.rows, r.rows, 1.0})
                           : selectivity);
  CostEstimate out;
  out.rows = std::max(1.0, l.rows * r.rows * sel);
  if (equi) {
    out.cost = l.cost + r.cost + l.rows + 2.0 * r.rows + out.rows;
  } else {
    out.cost = l.cost + r.cost + l.rows * r.rows + out.rows;
  }
  return out;
}

CostEstimate EstimateExprCost(
    const Memo& memo, ExprId eid,
    const std::function<CostEstimate(GroupId)>& child) {
  const MemoExpr& e = memo.expr(eid);
  std::vector<CostEstimate> in;
  in.reserve(e.children.size());
  for (GroupId c : e.children) in.push_back(child(c));
  size_t left_arity =
      e.kind == PlanKind::kJoin ? memo.group(e.children[0]).arity : 0;
  return OperatorCost(e, in, left_arity);
}

CostEstimate EstimatePlanCost(const algebra::PlanPtr& plan,
                              const TableRowCount& row_count) {
  if (plan->kind == PlanKind::kGet) return ScanCost(plan->table, row_count);
  std::vector<CostEstimate> in;
  in.reserve(plan->children.size());
  for (const algebra::PlanPtr& c : plan->children) {
    in.push_back(EstimatePlanCost(c, row_count));
  }
  size_t left_arity = plan->kind == PlanKind::kJoin
                          ? algebra::OutputArity(*plan->children[0])
                          : 0;
  return OperatorCost(*plan, in, left_arity);
}

}  // namespace fgac::optimizer

// Experiment E1 — Figure 1 and the goal-directed validity search.
//
// Part 1 regenerates the paper's only figure: the AND-OR DAG of A ⋈ B ⋈ C
// before and after equivalence-rule expansion ("at worst exponential in
// the number of relations, but represents a much larger number of query
// plans").
//
// Part 2 (the dag/chainN series) runs end-to-end Non-Truman validity
// checks of chain joins n = 2..12 against pairwise authorization views
// (bt0⋈bt1, bt2⋈bt3, ...): each query is provably valid by bracketing the
// chain into the pair blocks, which the demand-driven search finds without
// saturating the join-order space. The exhaustive breadth-first reference
// is timed alongside for small n — past that it is the combinatorial blowup
// this series exists to avoid.
//
// Part 3 (the optimize/chainN series) times optimizer::Optimize, the
// executed-plan optimizer, on the same chain joins with the policy
// workload's shape: n tables of 200 rows and a range filter on bt0. The
// joins are ordered by dynamic programming over table subsets, so the
// memo holds only the structural rewrites.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "bench/workload.h"
#include "core/auth_view.h"
#include "core/database.h"
#include "core/session_context.h"
#include "core/validity.h"
#include "optimizer/memo.h"
#include "optimizer/optimizer.h"
#include "optimizer/rules.h"
#include "sql/parser.h"

namespace fgac::bench {
namespace {

algebra::PlanPtr BindChain(core::Database* db, const std::string& sql,
                           const core::SessionContext& ctx) {
  auto stmt = sql::Parser::ParseSelect(sql);
  if (!stmt.ok()) std::abort();
  auto plan = db->BindQuery(*stmt.value(), ctx);
  if (!plan.ok()) std::abort();
  return plan.value();
}

struct ChainPoint {
  int relations = 0;
  bool unconditional = false;
  size_t memo_groups = 0;   // created, not post-pruning live
  size_t memo_exprs = 0;
  size_t groups_pruned = 0;
  size_t exprs_skipped = 0;
  size_t frontier_depth = 0;
  size_t passes = 0;
  double check_ms = 0;
  double exhaustive_ms = -1;  // only measured for small n
};

core::ValidityReport CheckChain(core::Database* db, int n, bool goal_directed,
                                double* ms) {
  core::SessionContext ctx("bench");
  std::string sql = ChainJoinQuery(db, n);
  std::vector<std::string> view_names = CreateChainPairViews(db, n);
  algebra::PlanPtr plan = BindChain(db, sql, ctx);
  std::vector<core::InstantiatedView> views;
  for (const std::string& name : view_names) {
    auto v = core::InstantiateView(db->catalog(), *db->catalog().GetView(name),
                                   ctx);
    if (!v.ok()) std::abort();
    views.push_back(std::move(v).value());
  }
  core::ValidityOptions options;
  options.goal_directed_search = goal_directed;
  core::ValidityReport report;
  *ms = TimeMs(1, [&] {
    core::ValidityChecker checker(db->catalog(), &db->state(), options);
    auto r = checker.Check(plan, views);
    if (!r.ok()) std::abort();
    report = std::move(r).value();
  });
  return report;
}

ChainPoint MeasureChain(core::Database* db, int n, int exhaustive_max) {
  ChainPoint point;
  point.relations = n;
  core::ValidityReport report =
      CheckChain(db, n, /*goal_directed=*/true, &point.check_ms);
  if (!report.valid) {
    std::fprintf(stderr, "dag/chain%d: expected a valid verdict\n", n);
    std::abort();
  }
  point.unconditional = report.unconditional;
  point.memo_groups = report.memo_groups;
  point.memo_exprs = report.memo_exprs;
  point.groups_pruned = report.groups_pruned;
  point.exprs_skipped = report.exprs_skipped;
  point.frontier_depth = report.frontier_depth;
  point.passes = report.expansion_passes;
  if (n <= exhaustive_max) {
    core::ValidityReport full =
        CheckChain(db, n, /*goal_directed=*/false, &point.exhaustive_ms);
    if (full.valid != report.valid || full.unconditional != report.unconditional) {
      std::fprintf(stderr, "dag/chain%d: goal-directed and exhaustive "
                           "verdicts diverge\n", n);
      std::abort();
    }
  }
  return point;
}

void Figure1Instance(core::Database* db) {
  core::SessionContext ctx("bench");
  std::string sql = ChainJoinQuery(db, 3);
  algebra::PlanPtr plan = BindChain(db, sql, ctx);
  optimizer::Memo memo;
  optimizer::GroupId root = memo.InsertPlan(plan);
  size_t initial_groups = memo.num_live_groups();
  size_t initial_exprs = memo.num_live_exprs();
  optimizer::ExpandOptions options;
  optimizer::ExpandMemo(&memo, options);
  std::printf(
      "Figure 1 instance (A JOIN B JOIN C): initial DAG %zu/%zu nodes, "
      "expanded DAG holds %zu equivalence\nnodes / %zu operation nodes and "
      "represents %.0f distinct plans (>= the figure's 3 bushy orders;\n"
      "commuted variants are counted as distinct operation trees).\n\n",
      initial_groups, initial_exprs, memo.num_live_groups(),
      memo.num_live_exprs(), memo.CountPlans(memo.Find(root)));
}

void OptimizeChains(core::Database* db) {
  constexpr int kRows = 200;
  core::SessionContext ctx("bench");
  std::printf("\noptimizer::Optimize on chain joins (%d rows per table, "
              "filter bt0.v > 500)\n", kRows);
  std::printf("%4s | %10s | %10s | %7s | %7s | %12s\n", "rels", "optimize us",
              "memo exprs", "leaves", "splits", "est. cost");
  std::printf("%s\n", std::string(64, '-').c_str());
  auto row_count = [db](const std::string& table) -> double {
    const storage::TableData* t = db->state().GetTable(table);
    return t == nullptr ? 1000.0 : static_cast<double>(t->num_rows());
  };
  for (int n : {4, 6, 8, 10}) {
    std::string sql = ChainJoinQuery(db, n) + " and bt0.v > 500";
    for (int i = 0; i < n; ++i) {
      storage::TableData* t =
          db->state().GetMutableTable("bt" + std::to_string(i));
      if (t->num_rows() > 0) continue;
      std::vector<Row> rows;
      for (int k = 0; k < kRows; ++k) {
        rows.push_back({Value::Int(k), Value::Int((k * 37 + i * 11) % 1000)});
      }
      t->InsertRows(std::move(rows));
    }
    algebra::PlanPtr plan = BindChain(db, sql, ctx);
    optimizer::OptimizeResult result;
    auto optimize = [&] {
      auto r = optimizer::Optimize(plan, db->options().exec_expand, row_count);
      if (!r.ok()) std::abort();
      result = std::move(r).value();
    };
    // Enough repetitions for ~50 ms of work per point.
    double once_ms = TimeMs(1, optimize);
    int iters = std::max(1, static_cast<int>(50.0 / std::max(once_ms, 1e-3)));
    double ms = TimeMs(iters, optimize);
    std::printf("%4d | %10.1f | %10zu | %7zu | %7zu | %12.0f\n", n, ms * 1e3,
                result.memo_exprs, result.join_leaves, result.join_splits,
                result.estimated_cost);
    EmitJsonLine("optimize/chain" + std::to_string(n), ms * 1e6, 0.0,
                 ",\"memo_exprs\":" + std::to_string(result.memo_exprs) +
                     ",\"join_leaves\":" +
                     std::to_string(result.join_leaves) +
                     ",\"join_splits\":" +
                     std::to_string(result.join_splits) +
                     ",\"estimated_cost\":" +
                     std::to_string(result.estimated_cost));
  }
}

}  // namespace
}  // namespace fgac::bench

int main() {
  using fgac::bench::ChainPoint;
  fgac::core::Database db;

  std::printf(
      "E1 / Figure 1: AND-OR DAG expansion and the goal-directed validity "
      "search (chain joins vs pairwise views)\n\n");
  fgac::bench::Figure1Instance(&db);

  // Exhaustive reference past a handful of relations is the blowup this
  // series documents (chain5 ≈ 16 s, chain6 ≈ 41 s); it is timed only
  // where it terminates quickly enough for the CI bench gate.
  const int kExhaustiveMax = 4;
  std::printf("%4s | %7s | %15s | %7s | %8s | %6s | %6s | %10s | %s\n",
              "rels", "verdict", "created (G/E)", "pruned", "skipped", "depth",
              "passes", "goal ms", "exhaustive ms");
  std::printf("%s\n", std::string(100, '-').c_str());
  for (int n = 2; n <= 12; ++n) {
    ChainPoint p = fgac::bench::MeasureChain(&db, n, kExhaustiveMax);
    std::printf("%4d | %7s | %7zu/%7zu | %6zu | %7zu | %6zu | %6zu | %10.2f | ",
                p.relations, p.unconditional ? "U" : "C", p.memo_groups,
                p.memo_exprs, p.groups_pruned, p.exprs_skipped,
                p.frontier_depth, p.passes, p.check_ms);
    if (p.exhaustive_ms >= 0) {
      std::printf("%.2f\n", p.exhaustive_ms);
    } else {
      std::printf("(skipped)\n");
    }
    fgac::bench::EmitJsonLine(
        "dag/chain" + std::to_string(n), p.check_ms * 1e6, 0.0,
        ",\"expanded_groups\":" + std::to_string(p.memo_groups) +
            ",\"expanded_exprs\":" + std::to_string(p.memo_exprs) +
            ",\"groups_pruned\":" + std::to_string(p.groups_pruned) +
            ",\"exprs_skipped\":" + std::to_string(p.exprs_skipped) +
            ",\"frontier_depth\":" + std::to_string(p.frontier_depth));
  }
  fgac::bench::OptimizeChains(&db);
  return 0;
}

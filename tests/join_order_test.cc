// Join ordering in optimizer::Optimize: the executed plan's joins are
// ordered by dynamic programming over subsets of each join region's
// leaves, not by commute/associate expansion of the memo. On random chain,
// star, cycle, clique and disconnected join graphs the optimized plan must
// return the bound plan's multiset, cost no more under the model than the
// written join order and stay near the memo's full commute/associate
// search, and come out the same every time.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <string>

#include "algebra/binder.h"
#include "algebra/normalize.h"
#include "algebra/reference_eval.h"
#include "core/database.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"

namespace fgac::optimizer {
namespace {

using algebra::PlanKind;
using algebra::PlanPtr;

enum class Shape { kChain, kStar, kCycle, kClique, kDisconnected };

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kChain: return "chain";
    case Shape::kStar: return "star";
    case Shape::kCycle: return "cycle";
    case Shape::kClique: return "clique";
    case Shape::kDisconnected: return "disconnected";
  }
  return "?";
}

std::string T(int i) { return "t" + std::to_string(i); }

class JoinOrderTest : public ::testing::Test {
 protected:
  /// A fresh database holding t0..t{n-1}(a, b, c). Contents are small and
  /// random, so that evaluating the bound plan's cross products stays
  /// cheap: the product of the table sizes is at most about 20,000 rows.
  /// The optimizer's statistics are drawn separately (1 to 100,000 rows,
  /// log-uniform), so the chosen orders vary widely.
  void MakeTables(int n, std::mt19937* rng) {
    db_ = std::make_unique<core::Database>();
    stats_.clear();
    int max_rows = std::max(
        1, static_cast<int>(std::floor(std::pow(20000.0, 1.0 / n))));
    std::string ddl;
    for (int i = 0; i < n; ++i) {
      ddl += "create table " + T(i) +
             " (a int not null, b int not null, c int not null);";
    }
    ASSERT_TRUE(db_->ExecuteScript(ddl).ok());
    for (int i = 0; i < n; ++i) {
      std::vector<Row> rows;
      int count = static_cast<int>((*rng)() % static_cast<unsigned>(max_rows + 1));
      for (int k = 0; k < count; ++k) {
        rows.push_back({Value::Int((*rng)() % 4), Value::Int((*rng)() % 4),
                        Value::Int((*rng)() % 6)});
      }
      db_->state().GetMutableTable(T(i))->InsertRows(std::move(rows));
      stats_[T(i)] = std::floor(std::pow(10.0, ((*rng)() % 5001) / 1000.0));
    }
  }

  TableRowCount Stats() const {
    return [this](const std::string& table) {
      auto it = stats_.find(table);
      return it == stats_.end() ? 1000.0 : it->second;
    };
  }

  /// FROM and WHERE clauses joining t0..t{n-1} in `shape`, with random
  /// single-table filters.
  static std::string JoinClauses(Shape shape, int n, std::mt19937* rng) {
    std::vector<std::string> preds;
    auto col = [](int i, const char* c) { return T(i) + "." + c; };
    switch (shape) {
      case Shape::kChain:
        for (int i = 0; i + 1 < n; ++i) {
          preds.push_back(col(i, "b") + " = " + col(i + 1, "a"));
        }
        break;
      case Shape::kCycle:
        for (int i = 0; i < n; ++i) {
          preds.push_back(col(i, "b") + " = " + col((i + 1) % n, "a"));
        }
        if (n == 2) preds.pop_back();
        break;
      case Shape::kStar: {
        const char* hub[] = {"a", "b", "c"};
        for (int i = 1; i < n; ++i) {
          preds.push_back(col(0, hub[i % 3]) + " = " + col(i, "a"));
        }
        break;
      }
      case Shape::kClique:
        // Every pair, each an equality or a range comparison.
        for (int i = 0; i < n; ++i) {
          for (int j = i + 1; j < n; ++j) {
            preds.push_back((*rng)() % 3 == 0
                                ? col(i, "c") + " < " + col(j, "c")
                                : col(i, "a") + " = " + col(j, "b"));
          }
        }
        break;
      case Shape::kDisconnected:
        // Two chains with no predicate between them.
        for (int i = 0; i + 1 < n; ++i) {
          if (i == n / 2 - 1) continue;
          preds.push_back(col(i, "b") + " = " + col(i + 1, "a"));
        }
        break;
    }
    for (int i = 0; i < n; ++i) {
      switch ((*rng)() % 4) {
        case 0:
          preds.push_back(col(i, "c") + " > " + std::to_string((*rng)() % 4));
          break;
        case 1:
          preds.push_back(col(i, "a") + " = " + std::to_string((*rng)() % 4));
          break;
        default:
          break;
      }
    }
    std::string sql = " from ";
    for (int i = 0; i < n; ++i) sql += (i > 0 ? ", " : "") + T(i);
    for (size_t i = 0; i < preds.size(); ++i) {
      sql += (i == 0 ? " where " : " and ") + preds[i];
    }
    return sql;
  }

  PlanPtr Bind(const std::string& sql) {
    auto stmt = sql::Parser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString() << "\nsql: " << sql;
    if (!stmt.ok()) return nullptr;
    algebra::Binder binder(db_->catalog(), {});
    auto plan = binder.BindSelect(*stmt.value());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << "\nsql: " << sql;
    return plan.ok() ? plan.value() : nullptr;
  }

  /// Optimizes `bound` and checks the result. With `memo_reference`, the
  /// cost is compared with that of the plan the memo's commute/associate
  /// search picks under the engine's own budgets. Returns the optimized
  /// result.
  OptimizeResult Check(const PlanPtr& bound, bool memo_reference,
                       const std::string& label) {
    const ExpandOptions& options = db_->options().exec_expand;
    auto opt = Optimize(bound, options, Stats());
    EXPECT_TRUE(opt.ok()) << opt.status().ToString() << "\n" << label;
    if (!opt.ok()) return {};
    const PlanPtr& plan = opt.value().plan;
    auto expected = algebra::ReferenceEval(bound, db_->state());
    auto reference = algebra::ReferenceEval(plan, db_->state());
    auto physical = exec::ExecutePlan(plan, db_->state());
    EXPECT_TRUE(expected.ok() && reference.ok() && physical.ok()) << label;
    if (expected.ok() && reference.ok() && physical.ok()) {
      EXPECT_TRUE(reference.value().MultisetEquals(expected.value()))
          << label << "\n" << algebra::PlanToString(plan);
      EXPECT_TRUE(physical.value().MultisetEquals(expected.value()))
          << label << "\n" << algebra::PlanToString(plan);
    }

    auto again = Optimize(bound, options, Stats());
    EXPECT_TRUE(again.ok()) << label;
    if (again.ok()) {
      EXPECT_EQ(algebra::PlanToString(again.value().plan),
                algebra::PlanToString(plan))
          << label;
      EXPECT_EQ(again.value().estimated_cost, opt.value().estimated_cost)
          << label;
    }

    // Never costlier than the order the query was written in: the
    // structural memo alone, without join reordering.
    ExpandOptions structural = options;
    structural.enable_join_commute = false;
    structural.enable_join_assoc = false;
    EXPECT_LE(opt.value().estimated_cost,
              MemoCost(bound, structural) * (1.0 + 1e-12))
        << label;
    // Near the memo's full commute/associate search. Not always at or
    // below it: the model's join estimate (the smaller input's rows for an
    // equi-join, ignoring the join's other conjuncts) makes a subset's
    // output rows depend on its join tree, so the cheapest tree per subset
    // is not always the best input above it, and the memo, which keeps one
    // tree per subset and column order, sometimes finds a cheaper plan.
    if (memo_reference) {
      double memo = MemoCost(bound, options);
      EXPECT_LE(opt.value().estimated_cost, memo * 1.10)
          << label << "\noptimized:\n" << algebra::PlanToString(plan);
      ++compared_;
      if (opt.value().estimated_cost > memo * (1.0 + 1e-9)) ++above_memo_;
    }
    return opt.value();
  }

  /// Estimated cost of the memo's best plan for `bound` after expansion.
  double MemoCost(const PlanPtr& bound, const ExpandOptions& options) {
    Memo memo;
    GroupId root = memo.InsertPlan(bound);
    ExpandMemo(&memo, options);
    auto best = ExtractBestPlan(memo, memo.Find(root), Stats());
    EXPECT_TRUE(best.ok()) << best.status().ToString();
    return best.ok() ? best.value().estimated_cost : 0.0;
  }

  std::unique_ptr<core::Database> db_;
  std::map<std::string, double> stats_;
  /// Memo comparisons made, and how many the memo's plan won.
  int compared_ = 0;
  int above_memo_ = 0;
};

TEST_F(JoinOrderTest, RandomJoinGraphsMatchReferenceAndMemoCost) {
  for (Shape shape : {Shape::kChain, Shape::kStar, Shape::kCycle,
                      Shape::kClique, Shape::kDisconnected}) {
    for (int n = 2; n <= 8; ++n) {
      for (uint32_t seed = 0; seed < 3; ++seed) {
        std::mt19937 rng(seed * 1000 + static_cast<uint32_t>(n) * 10 +
                         static_cast<uint32_t>(shape));
        MakeTables(n, &rng);
        std::string sql = "select *" + JoinClauses(shape, n, &rng);
        PlanPtr bound = Bind(sql);
        ASSERT_NE(bound, nullptr);
        std::string label = std::string(ShapeName(shape)) + " n=" +
                            std::to_string(n) + " seed=" +
                            std::to_string(seed) + "\nsql: " + sql;
        OptimizeResult r = Check(bound, /*memo_reference=*/n <= 5, label);
        EXPECT_EQ(r.join_leaves, static_cast<size_t>(n)) << label;
      }
    }
  }
  // The memo's plan wins rarely (5 shapes x 4 sizes x 3 seeds compared).
  EXPECT_EQ(compared_, 60);
  EXPECT_LE(above_memo_, compared_ / 10);
}

TEST_F(JoinOrderTest, GreedyOrderAboveTenLeavesStaysCorrect) {
  for (int n : {11, 12}) {
    std::mt19937 rng(static_cast<uint32_t>(n));
    MakeTables(n, &rng);
    std::string sql = "select *" + JoinClauses(Shape::kChain, n, &rng);
    PlanPtr bound = Bind(sql);
    ASSERT_NE(bound, nullptr);
    OptimizeResult r = Check(bound, /*memo_reference=*/false, sql);
    EXPECT_EQ(r.join_leaves, static_cast<size_t>(n));
    // One greedy step prices every ordered pair of current subtrees.
    size_t pairs = 0;
    for (int k = n; k >= 2; --k) pairs += static_cast<size_t>(k * (k - 1));
    EXPECT_EQ(r.join_splits, pairs);
  }
}

TEST_F(JoinOrderTest, GreedyOrderSurvivesSelectivityUnderflow) {
  // A 26-way clique has 325 join conjuncts: the product of their
  // selectivities underflows a double, and every order must still build.
  const int n = 26;
  std::mt19937 rng(26);
  MakeTables(n, &rng);
  std::string sql = "select *" + JoinClauses(Shape::kClique, n, &rng);
  PlanPtr bound = Bind(sql);
  ASSERT_NE(bound, nullptr);
  OptimizeResult r = Check(bound, /*memo_reference=*/false, "clique n=26");
  EXPECT_EQ(r.join_leaves, static_cast<size_t>(n));
}

TEST_F(JoinOrderTest, JoinsUnderAggregateAndUnionAll) {
  for (uint32_t seed = 0; seed < 6; ++seed) {
    std::mt19937 rng(seed);
    MakeTables(5, &rng);
    std::string agg = "select t0.a, count(*), sum(t4.c)" +
                      JoinClauses(Shape::kStar, 5, &rng) + " group by t0.a";
    PlanPtr bound = Bind(agg);
    ASSERT_NE(bound, nullptr);
    Check(bound, /*memo_reference=*/true, agg);

    // Two join regions, one per branch, each reordered on its own.
    std::string left = "select t0.a, t1.b from t0, t1, t2 "
                       "where t0.b = t1.a and t1.b = t2.a";
    std::string right = "select t3.a, t4.c from t2, t3, t4 "
                        "where t2.c = t3.c and t3.a = t4.b and t4.a > 0";
    PlanPtr unioned = Bind(left + " union all " + right);
    ASSERT_NE(unioned, nullptr);
    ASSERT_EQ(unioned->kind, PlanKind::kUnionAll);
    OptimizeResult r = Check(unioned, /*memo_reference=*/true, "union all");
    EXPECT_EQ(r.join_leaves, 6u);
  }
}

TEST_F(JoinOrderTest, ViewStyleProjectsBetweenJoins) {
  // A view's projection over a join, joined with two more tables, as the
  // Truman rewrite produces when it substitutes views for tables. The
  // projection separates two join regions; the outer region treats the
  // projected view as one leaf and still reorders around it.
  for (uint32_t seed = 0; seed < 8; ++seed) {
    std::mt19937 rng(seed);
    MakeTables(4, &rng);
    // view(v0, v1, v2) = π(t1.b, t0.c, t1.c)(t0 ⋈ t1)
    PlanPtr view = Bind("select t1.b, t0.c, t1.c from t0, t1 where t0.b = t1.a");
    PlanPtr t2 = Bind("select * from t2");
    PlanPtr t3 = Bind("select * from t3");
    ASSERT_NE(view, nullptr);
    ASSERT_EQ(view->kind, PlanKind::kProject);
    auto eq = [](int l, int r) {
      return algebra::NormalizeScalar(algebra::MakeBinaryScalar(
          sql::BinOp::kEq, algebra::MakeColumn(l), algebra::MakeColumn(r)));
    };
    // view ⋈[v0 = t2.a] t2 ⋈[t2.b = t3.a, v2 = t3.c] t3; slots: view 0-2,
    // t2 3-5, t3 6-8.
    PlanPtr inner = algebra::MakeJoin({eq(0, 3)}, view, t2);
    PlanPtr outer = algebra::MakeJoin(
        algebra::NormalizePredicates({eq(4, 6), eq(2, 8)}), inner, t3);
    PlanPtr top = algebra::MakeProject(
        {algebra::MakeColumn(8), algebra::MakeColumn(1)}, {"x", "y"}, outer);
    OptimizeResult r = Check(top, /*memo_reference=*/true,
                             "view seed " + std::to_string(seed));
    EXPECT_EQ(r.join_leaves, 5u);  // 2 inside the view + 3 around it
  }
}

TEST_F(JoinOrderTest, ChainSixKeepsTheMemoSmall) {
  // The policy workload's 6-way chain join: six 200-row tables joined on
  // their keys, plus a range filter. Commute/associate expansion created
  // 2,935 memo expressions here and stopped at its pass cap.
  db_ = std::make_unique<core::Database>();
  std::string ddl, sql = "select * from ";
  for (int i = 0; i < 6; ++i) {
    std::string t = "bt" + std::to_string(i);
    ddl += "create table " + t + " (k int not null primary key, v int);";
    sql += (i > 0 ? ", " : "") + t;
  }
  ASSERT_TRUE(db_->ExecuteScript(ddl).ok());
  for (int i = 0; i < 6; ++i) {
    std::vector<Row> rows;
    for (int k = 0; k < 200; ++k) {
      rows.push_back({Value::Int(k), Value::Int((k * 37 + i) % 1000)});
    }
    db_->state().GetMutableTable("bt" + std::to_string(i))->InsertRows(
        std::move(rows));
    stats_["bt" + std::to_string(i)] = 200.0;
  }
  for (int i = 0; i + 1 < 6; ++i) {
    sql += std::string(i == 0 ? " where " : " and ") + "bt" +
           std::to_string(i) + ".k = bt" + std::to_string(i + 1) + ".k";
  }
  sql += " and bt0.v > 500";
  PlanPtr bound = Bind(sql);
  ASSERT_NE(bound, nullptr);
  // Not evaluated against the bound plan: its cross products hold 200^6
  // rows. The random graphs above check results.
  auto opt = Optimize(bound, db_->options().exec_expand, Stats());
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  const OptimizeResult& r = opt.value();
  EXPECT_LE(r.memo_exprs, 100u);
  EXPECT_EQ(r.join_leaves, 6u);
  // Any-order splits of every subset (3^6 - 2^7 + 1 = 602) plus the
  // written-order ones (the sum of |S| - 1 over subsets S, 129).
  EXPECT_EQ(r.join_splits, 731u);
  // The memo's commute/associate search reached 3,456 before its pass cap.
  EXPECT_LE(r.estimated_cost, 3456.0);
}

}  // namespace
}  // namespace fgac::optimizer

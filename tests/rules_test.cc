#include "optimizer/rules.h"

#include <gtest/gtest.h>

#include "algebra/binder.h"
#include "algebra/plan_hash.h"
#include "algebra/reference_eval.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace fgac::optimizer {
namespace {

using algebra::PlanPtr;
using fgac::testing::SetupUniversity;

class RulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetupUniversity(&db_);
    options_.table_pk_slots = [this](const std::string& t) -> std::vector<int> {
      const catalog::TableSchema* s = db_.catalog().GetTable(t);
      std::vector<int> out;
      if (s != nullptr) {
        for (size_t i : s->primary_key()) out.push_back(static_cast<int>(i));
      }
      return out;
    };
  }

  PlanPtr Bind(const std::string& sql) {
    auto stmt = sql::Parser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    algebra::Binder binder(db_.catalog(), {});
    auto plan = binder.BindSelect(*stmt.value());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? plan.value() : nullptr;
  }

  /// Expands `sql`'s plan and checks every extractable alternative plan in
  /// the root group computes the same multiset as the original.
  void CheckExpansionPreservesSemantics(const std::string& sql) {
    PlanPtr plan = Bind(sql);
    ASSERT_NE(plan, nullptr);
    auto expected = algebra::ReferenceEval(plan, db_.state());
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    Memo memo;
    GroupId root = memo.InsertPlan(plan);
    ExpandMemo(&memo, options_);
    root = memo.Find(root);

    // Sample alternatives: extract the best plan under several cost models
    // (to pick different shapes) plus AnyPlan.
    std::vector<PlanPtr> alternatives;
    auto any = memo.AnyPlan(root);
    ASSERT_TRUE(any.ok());
    alternatives.push_back(any.value());
    for (double bias : {1.0, 1000.0}) {
      auto best = ExtractBestPlan(
          memo, root, [bias](const std::string& t) {
            return t == "grades" ? bias : 10.0;
          });
      ASSERT_TRUE(best.ok()) << best.status().ToString();
      alternatives.push_back(best.value().plan);
    }
    for (const PlanPtr& alt : alternatives) {
      auto got = algebra::ReferenceEval(alt, db_.state());
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(got.value().MultisetEquals(expected.value()))
          << "sql: " << sql << "\nalternative:\n"
          << algebra::PlanToString(alt);
    }
  }

  core::Database db_;
  ExpandOptions options_;
};

TEST_F(RulesTest, SelectPushdownCreatesJoin) {
  PlanPtr plan = Bind(
      "select * from grades, registered "
      "where grades.student-id = registered.student-id "
      "and grades.grade >= 3.0");
  Memo memo;
  GroupId root = memo.InsertPlan(plan);
  ExpandMemo(&memo, options_);
  // The root group should contain a Join alternative with a predicate.
  bool found_join = false;
  for (ExprId eid : memo.GroupExprs(memo.Find(root))) {
    if (memo.expr(eid).kind == algebra::PlanKind::kJoin &&
        !memo.expr(eid).predicates.empty()) {
      found_join = true;
    }
  }
  EXPECT_TRUE(found_join) << memo.ToString();
}

TEST_F(RulesTest, TwoWayJoinSemantics) {
  CheckExpansionPreservesSemantics(
      "select students.name, grades.grade from students, grades "
      "where students.student-id = grades.student-id and grades.grade > 2.5");
}

TEST_F(RulesTest, ThreeWayJoinSemantics) {
  CheckExpansionPreservesSemantics(
      "select s.name, c.name from students s, courses c, grades g "
      "where s.student-id = g.student-id and c.course-id = g.course-id");
}

TEST_F(RulesTest, AggregateRollupSemantics) {
  CheckExpansionPreservesSemantics(
      "select avg(grade) from grades where course-id = 'cs101'");
}

TEST_F(RulesTest, SelectThroughAggregateSemantics) {
  CheckExpansionPreservesSemantics(
      "select course-id, count(*) from grades group by course-id "
      "having count(*) >= 1");
}

TEST_F(RulesTest, DistinctSemantics) {
  CheckExpansionPreservesSemantics(
      "select distinct type from students where name <> 'zzz'");
}

TEST_F(RulesTest, JoinAssociativityGeneratesAlternatives) {
  PlanPtr plan = Bind(
      "select * from students s, registered r, courses c "
      "where s.student-id = r.student-id and r.course-id = c.course-id");
  Memo memo;
  GroupId root = memo.InsertPlan(plan);
  ExpandMemo(&memo, options_);
  // Figure 1's point: the expanded DAG represents multiple join orders.
  EXPECT_GT(memo.CountPlans(memo.Find(root)), 1.0) << memo.ToString();
}

TEST_F(RulesTest, ExpansionReachesFixpoint) {
  PlanPtr plan = Bind(
      "select * from students s, registered r "
      "where s.student-id = r.student-id");
  Memo memo;
  memo.InsertPlan(plan);
  ExpandStats stats = ExpandMemo(&memo, options_);
  EXPECT_FALSE(stats.budget_exhausted);
  size_t exprs = memo.num_exprs();
  // A second expansion must be a no-op.
  ExpandStats again = ExpandMemo(&memo, options_);
  EXPECT_EQ(memo.num_exprs(), exprs);
  EXPECT_EQ(again.exprs_added, 0u);
}

TEST_F(RulesTest, BudgetRespected) {
  // Six distinct relations => the join-order space is genuinely large
  // (self-joins of one table would collapse into shared groups).
  core::Database db2;
  std::string ddl;
  for (int i = 0; i < 6; ++i) {
    ddl += "create table t" + std::to_string(i) +
           " (k int not null primary key, v int);";
  }
  ASSERT_TRUE(db2.ExecuteScript(ddl).ok());
  std::string sql = "select * from t0, t1, t2, t3, t4, t5 where ";
  for (int i = 0; i < 5; ++i) {
    if (i > 0) sql += " and ";
    sql += "t" + std::to_string(i) + ".k = t" + std::to_string(i + 1) + ".k";
  }
  auto stmt = sql::Parser::ParseSelect(sql);
  ASSERT_TRUE(stmt.ok());
  algebra::Binder binder(db2.catalog(), {});
  auto plan = binder.BindSelect(*stmt.value());
  ASSERT_TRUE(plan.ok());
  Memo memo;
  memo.InsertPlan(plan.value());
  ExpandOptions tight = options_;
  tight.max_exprs = 50;
  ExpandStats stats = ExpandMemo(&memo, tight);
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_LE(memo.num_exprs(), 2000u);  // bounded overshoot within one pass
}

TEST_F(RulesTest, DuplicateFreeAnalysis) {
  // Base table with PK.
  Memo memo;
  GroupId students = memo.InsertPlan(Bind("select * from students"));
  EXPECT_TRUE(GroupDuplicateFree(memo, students, options_));
  // Projection dropping the key is not duplicate-free.
  GroupId names = memo.InsertPlan(Bind("select name from students"));
  EXPECT_FALSE(GroupDuplicateFree(memo, names, options_));
  // Projection keeping the key is.
  GroupId keyed = memo.InsertPlan(Bind("select student-id, name from students"));
  EXPECT_TRUE(GroupDuplicateFree(memo, keyed, options_));
  // Distinct always is.
  GroupId distinct = memo.InsertPlan(Bind("select distinct name from students"));
  EXPECT_TRUE(GroupDuplicateFree(memo, distinct, options_));
  // Aggregates are keyed by their group-by columns.
  GroupId agg = memo.InsertPlan(
      Bind("select course-id, avg(grade) from grades group by course-id"));
  EXPECT_TRUE(GroupDuplicateFree(memo, agg, options_));
}

TEST_F(RulesTest, DistinctElimOverKeyedTable) {
  // select distinct * from students == select * from students (PK).
  Memo memo;
  GroupId a = memo.InsertPlan(Bind("select distinct * from students"));
  GroupId b = memo.InsertPlan(Bind("select * from students"));
  ASSERT_NE(memo.Find(a), memo.Find(b));
  ExpandMemo(&memo, options_);
  EXPECT_EQ(memo.Find(a), memo.Find(b));
}

TEST_F(RulesTest, SubsumptionConnectsStrongerSelection) {
  // σ_{a ∧ b}(t) should gain an alternative computed from σ_{a}(t).
  PlanPtr strong = Bind(
      "select * from grades where course-id = 'cs101' and grade >= 3.0");
  PlanPtr weak = Bind("select * from grades where course-id = 'cs101'");
  Memo memo;
  GroupId gs = memo.InsertPlan(strong);
  GroupId gw = memo.InsertPlan(weak);
  ExpandMemo(&memo, options_);
  bool derives_from_weak = false;
  for (ExprId eid : memo.GroupExprs(memo.Find(gs))) {
    const MemoExpr& e = memo.expr(eid);
    if (e.kind == algebra::PlanKind::kSelect &&
        memo.Find(e.children[0]) == memo.Find(gw)) {
      derives_from_weak = true;
    }
  }
  EXPECT_TRUE(derives_from_weak) << memo.ToString();
}

TEST_F(RulesTest, RangeSubsumption) {
  PlanPtr strong = Bind("select * from grades where grade > 3.5");
  PlanPtr weak = Bind("select * from grades where grade > 2.0");
  Memo memo;
  GroupId gs = memo.InsertPlan(strong);
  GroupId gw = memo.InsertPlan(weak);
  ExpandMemo(&memo, options_);
  bool derives_from_weak = false;
  for (ExprId eid : memo.GroupExprs(memo.Find(gs))) {
    const MemoExpr& e = memo.expr(eid);
    if (e.kind == algebra::PlanKind::kSelect &&
        memo.Find(e.children[0]) == memo.Find(gw)) {
      derives_from_weak = true;
    }
  }
  EXPECT_TRUE(derives_from_weak);
}

TEST_F(RulesTest, OptimizerPrefersFilteredJoinOverCross) {
  auto result = Optimize(
      Bind("select * from students s, grades g "
           "where s.student-id = g.student-id"),
      options_, [](const std::string&) { return 10000.0; });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The chosen plan must be a predicated join, not cross+filter.
  std::function<bool(const PlanPtr&)> has_pred_join =
      [&](const PlanPtr& p) -> bool {
    if (p->kind == algebra::PlanKind::kJoin && !p->predicates.empty()) {
      return true;
    }
    for (const PlanPtr& c : p->children) {
      if (has_pred_join(c)) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_pred_join(result.value().plan))
      << algebra::PlanToString(result.value().plan);
}

TEST_F(RulesTest, OptimizedPlanExecutesCorrectly) {
  PlanPtr plan = Bind(
      "select s.name from students s, grades g "
      "where s.student-id = g.student-id and g.grade = 4.0");
  auto result =
      Optimize(plan, options_, [](const std::string&) { return 100.0; });
  ASSERT_TRUE(result.ok());
  auto expected = algebra::ReferenceEval(plan, db_.state());
  auto got = algebra::ReferenceEval(result.value().plan, db_.state());
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().MultisetEquals(expected.value()));
}

TEST_F(RulesTest, ExpansionAtItsFixpointCreatesNothing) {
  // DISTINCT over a projection of a keyed table: pulling the DISTINCT
  // through the projection inserts Distinct(students), which distinct
  // elimination unifies with students itself. Re-running the expansion on
  // the saturated memo must find every derivation already present.
  for (const char* sql :
       {"select distinct name, type from students",
        "select distinct s.name from students s, registered r "
        "where s.student-id = r.student-id"}) {
    for (bool goal_directed : {false, true}) {
      Memo memo;
      GroupId root = memo.InsertPlan(Bind(sql));
      ExpandOptions options = options_;
      if (goal_directed) options.root_goal = root;
      ExpandMemo(&memo, options);
      size_t exprs = memo.num_exprs();
      uint64_t changes = memo.change_count();
      ExpandStats again = ExpandMemo(&memo, options);
      EXPECT_EQ(again.exprs_added, 0u) << sql << " goal=" << goal_directed;
      EXPECT_EQ(memo.num_exprs(), exprs) << sql;
      EXPECT_EQ(memo.change_count(), changes) << sql;
    }
  }
}

}  // namespace
}  // namespace fgac::optimizer

// The U3/C3 inference loop ends at its real fixpoint: a round that leaves
// the memo's change count where it found it derives nothing, so the loop
// stops there instead of re-expanding until max_inference_rounds. Rules
// that re-derive what the memo already holds (a dedup hit in U3 project
// factoring, a hash-consed join re-introduced, a mark already set) no
// longer count as progress.

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/validity.h"
#include "optimizer/memo.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using core::Database;
using core::EnforcementMode;
using core::SessionContext;
using core::ValidityReport;
using fgac::testing::CreateUniversityViews;
using fgac::testing::SetupUniversity;

class InferenceFixpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
    for (const char* view : {"mygrades", "costudentgrades", "myregistrations",
                             "avggrades", "regstudents"}) {
      ASSERT_TRUE(db_.ExecuteAsAdmin(std::string("grant select on ") + view +
                                     " to 11")
                      .ok());
    }
    db_.options().enable_validity_cache = false;
  }

  static SessionContext Student() {
    SessionContext ctx("11");
    ctx.set_mode(EnforcementMode::kNonTruman);
    return ctx;
  }

  ValidityReport MustCheck(const std::string& sql) {
    auto r = db_.CheckQueryValidity(sql, Student());
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nsql: " << sql;
    return r.ok() ? r.value() : ValidityReport{};
  }

  Database db_;
};

TEST_F(InferenceFixpointTest, PolicyRefusalStopsAtFixpoint) {
  // The policy workload's over-broad read. U3a fires on the views through
  // the visible foreign key registered -> students, and U3 project
  // factoring re-inserts the same projections every round (dedup hits).
  // Those repeats used to count as changes and ran all 8 rounds.
  ValidityReport r = MustCheck("select * from grades where grade > 2.5");
  EXPECT_FALSE(r.valid);
  EXPECT_GE(r.inference_rounds, 1u);
  EXPECT_LE(r.inference_rounds, 3u);
  // Expressions created by the check; 108 when every round re-expanded.
  EXPECT_LT(r.memo_exprs, 108u);
}

TEST_F(InferenceFixpointTest, PortalConditionalStopsAtFixpoint) {
  // The portal workload's course-mate read: accepted through C3 on
  // costudentgrades. Join introduction adds joins against registered in
  // round 0 and re-derives the same joins in every later round.
  ValidityReport r = MustCheck(
      "select student-id, grade from grades where course-id = 'cs101'");
  ASSERT_TRUE(r.valid) << r.reason;
  EXPECT_FALSE(r.unconditional);
  EXPECT_GE(r.inference_rounds, 1u);
  EXPECT_LE(r.inference_rounds, 3u);
  // Expressions created by the check; 135 when every round re-expanded.
  EXPECT_LT(r.memo_exprs, 135u);
}

TEST_F(InferenceFixpointTest, ExplainAnalyzeShowsRounds) {
  auto r = db_.Execute(
      "explain analyze select * from grades where grade > 2.5", Student());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text;
  for (const Row& row : r.value().relation.rows()) {
    text += row[0].string_value() + "\n";
  }
  ValidityReport report = MustCheck("select * from grades where grade > 2.5");
  EXPECT_NE(text.find(" rounds=" + std::to_string(report.inference_rounds)),
            std::string::npos)
      << text;
}

TEST_F(InferenceFixpointTest, SecondRoundDerivationStillAccepted) {
  // U3a (Example 5.1) along a two-step foreign-key chain a -> b -> c. The
  // view exposes a ⋈ b ⋈ c. Round 0 drops c through b -> c, which makes
  // a ⋈ b valid once expansion eliminates its DISTINCT (a and b are
  // keyed). Only round 1 can then drop b through a -> b and validate a.
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    create table c (cid int not null primary key, cv int not null);
    create table b (bid int not null primary key,
                    bcid int not null references c, bv int not null);
    create table a (aid int not null primary key,
                    abid int not null references b, av int not null);
    insert into c values (1, 10), (2, 20);
    insert into b values (1, 1, 5), (2, 2, 6);
    insert into a values (1, 1, 7), (2, 2, 8), (3, 1, 9);
    create authorization view abc as
      select a.aid, a.abid, a.av, b.bid, b.bcid, b.bv, c.cid, c.cv
      from a, b, c where a.abid = b.bid and b.bcid = c.cid;
    grant select on abc to 11;
  )sql")
                  .ok());
  const std::string q = "select aid, av from a";
  ValidityReport r = MustCheck(q);
  ASSERT_TRUE(r.valid) << r.reason;
  EXPECT_TRUE(r.unconditional);
  EXPECT_EQ(r.inference_rounds, 2u);

  // A single round is not enough: the second derivation is what admits it.
  db_.options().validity.max_inference_rounds = 1;
  ValidityReport one = MustCheck(q);
  EXPECT_FALSE(one.valid);
  EXPECT_EQ(one.inference_rounds, 1u);
}

TEST(MemoChangeCountTest, MovesOnlyOnRealChanges) {
  optimizer::Memo memo;
  EXPECT_EQ(memo.change_count(), 0u);
  optimizer::MemoExpr get;
  get.kind = algebra::PlanKind::kGet;
  get.table = "t";
  get.get_columns = {"x"};
  optimizer::GroupId g = memo.InsertExpr(get);
  EXPECT_EQ(memo.change_count(), 1u);
  // A dedup hit returns the existing group and changes nothing.
  EXPECT_EQ(memo.InsertExpr(get), g);
  EXPECT_EQ(memo.change_count(), 1u);

  optimizer::MemoExpr other = get;
  other.table = "u";
  optimizer::GroupId h = memo.InsertExpr(other);
  EXPECT_EQ(memo.change_count(), 2u);

  memo.MarkValidC(g);
  EXPECT_EQ(memo.change_count(), 3u);
  memo.MarkValidC(g);
  EXPECT_EQ(memo.change_count(), 3u);
  memo.MarkValidU(g);  // valid_u flips; valid_c was already set
  EXPECT_EQ(memo.change_count(), 4u);
  memo.MarkValidU(g);
  EXPECT_EQ(memo.change_count(), 4u);

  // A merge counts once; merging again is a no-op.
  memo.Unify(g, h);
  EXPECT_EQ(memo.change_count(), 5u);
  memo.Unify(g, h);
  EXPECT_EQ(memo.change_count(), 5u);
  // Inserting an existing node into its (merged) group is a dedup hit.
  memo.InsertExpr(other, g);
  EXPECT_EQ(memo.change_count(), 5u);
}

}  // namespace
}  // namespace fgac

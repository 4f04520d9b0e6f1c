// The per-check probe memo: every distinct C3/CAgg remainder is probed
// against the database at most once per validity check (Definition 4.3's
// single state D), repeats are answered from the memo, and the memo never
// outlives the check.

#include <gtest/gtest.h>

#include <set>

#include "common/fault_injection.h"
#include "core/auth_view.h"
#include "core/database.h"
#include "core/validity.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using common::FaultInjector;
using core::Database;
using core::EnforcementMode;
using core::InstantiatedView;
using core::SessionContext;
using core::ValidityChecker;
using core::ValidityOptions;
using core::ValidityReport;
using core::ValidityTrace;
using core::ValidityTraceEvent;
using fgac::testing::CreateUniversityViews;
using fgac::testing::SetupUniversity;

// The portal workload's refusal: student 11 asks for the grades of a
// course it is not registered in. costudentgrades makes it a C3 candidate
// whose remainder (11's registration in ee150) is empty, and every
// inference round re-collects the same remainders.
constexpr const char* kRefused =
    "select student-id, grade from grades where course-id = 'ee150'";

class ProbeMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
    for (const char* view : kViews) {
      ASSERT_TRUE(db_.ExecuteAsAdmin(std::string("grant select on ") + view +
                                     " to 11")
                      .ok());
    }
    db_.options().enable_validity_cache = false;
  }
  void TearDown() override { FaultInjector::Instance().Reset(); }

  static SessionContext Student() {
    SessionContext ctx("11");
    ctx.set_mode(EnforcementMode::kNonTruman);
    return ctx;
  }

  // Runs one traced check of `sql` directly on a fresh checker.
  ValidityReport TracedCheck(const std::string& sql, ValidityTrace* trace,
                             ValidityOptions options = {}) {
    SessionContext ctx = Student();
    auto stmt = sql::Parser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto plan = db_.BindQuery(*stmt.value(), ctx);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    std::vector<InstantiatedView> views;
    for (const char* name : kViews) {
      auto view = core::InstantiateView(db_.catalog(),
                                        *db_.catalog().GetView(name), ctx);
      EXPECT_TRUE(view.ok()) << view.status().ToString();
      views.push_back(std::move(view).value());
    }
    ValidityChecker checker(db_.catalog(), &db_.state(), options);
    checker.set_trace(trace);
    auto report = checker.Check(plan.value(), views);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? report.value() : ValidityReport{};
  }

  static constexpr const char* kViews[] = {"mygrades", "costudentgrades",
                                           "myregistrations", "avggrades",
                                           "regstudents"};
  Database db_;
};

TEST_F(ProbeMemoTest, RefusalProbesEachDistinctRemainderOnce) {
  ValidityTrace trace;
  ValidityReport report = TracedCheck(kRefused, &trace);
  ASSERT_FALSE(report.valid);

  // Every executed probe plan is distinct across the whole check, and the
  // batch events account for every probe request.
  std::set<std::string> executed;
  size_t batches = 0, ran = 0, memoized = 0;
  for (const ValidityTraceEvent& e : trace.events()) {
    if (e.kind != ValidityTraceEvent::Kind::kProbeBatch) continue;
    ++batches;
    ran += e.probes;
    memoized += e.probes_memoized;
    std::string sql = e.probe_sql;
    for (size_t pos = 0; !sql.empty();) {
      size_t end = sql.find("; ", pos);
      EXPECT_TRUE(executed.insert(sql.substr(pos, end - pos)).second)
          << "probe ran twice in one check: " << sql.substr(pos, end - pos);
      if (end == std::string::npos) break;
      pos = end + 2;
    }
  }
  EXPECT_GT(batches, 1u) << "fixture must re-collect its remainders";
  EXPECT_EQ(ran, report.c3_probes);
  EXPECT_EQ(memoized, report.probes_memoized);
  EXPECT_EQ(executed.size(), report.c3_probes);
  // Two distinct remainders (11's ee150 registration, with and without the
  // projection onto course-id); each later round repeats both.
  EXPECT_EQ(report.c3_probes, 2u);
  EXPECT_EQ(report.probes_memoized, 2 * (batches - 1));
  EXPECT_GT(report.probes_memoized, 0u);
}

TEST_F(ProbeMemoTest, ExplainAnalyzeShowsMemoHits) {
  auto r = db_.Execute(std::string("explain analyze ") + kRefused, Student());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text;
  for (const Row& row : r.value().relation.rows()) {
    text += row[0].string_value() + "\n";
  }
  EXPECT_NE(text.find("validity: REJECTED"), std::string::npos) << text;
  EXPECT_NE(text.find("probe_batch probes=2 memoized=0"), std::string::npos)
      << text;
  EXPECT_NE(text.find("probe_batch probes=0 memoized=2"), std::string::npos)
      << text;
}

TEST_F(ProbeMemoTest, FreshCheckAfterInsertSeesNewState) {
  auto refused = db_.Execute(kRefused, Student());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kNotAuthorized);

  // Registering 11 in ee150 makes the remainder visibly non-empty. The
  // next statement runs a new check whose memo starts empty, so it probes
  // the new D and accepts through C3.
  ASSERT_TRUE(
      db_.ExecuteAsAdmin("insert into registered values ('11', 'ee150')").ok());
  auto accepted = db_.Execute(kRefused, Student());
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_TRUE(accepted.value().validity.valid);
  EXPECT_FALSE(accepted.value().validity.unconditional);
  EXPECT_GT(accepted.value().validity.c3_probes, 0u);
}

TEST_F(ProbeMemoTest, ParallelProbesMatchSerialCounts) {
  ValidityTrace serial_trace, parallel_trace;
  ValidityReport serial = TracedCheck(kRefused, &serial_trace);
  ValidityOptions options;
  options.probe_parallelism = 4;
  ValidityReport parallel = TracedCheck(kRefused, &parallel_trace, options);
  EXPECT_EQ(parallel.valid, serial.valid);
  EXPECT_EQ(parallel.c3_probes, serial.c3_probes);
  EXPECT_EQ(parallel.probes_memoized, serial.probes_memoized);

  const std::string accepted = "select * from grades where course-id = 'cs101'";
  ValidityTrace t1, t2;
  ValidityReport s2 = TracedCheck(accepted, &t1);
  ValidityReport p2 = TracedCheck(accepted, &t2, options);
  EXPECT_TRUE(s2.valid);
  EXPECT_EQ(p2.valid, s2.valid);
  EXPECT_EQ(p2.c3_probes, s2.c3_probes);
  EXPECT_EQ(p2.probes_memoized, s2.probes_memoized);
}

TEST_F(ProbeMemoTest, FaultedProbeIsMemoizedAsEmptyAndRefuses) {
  if (!FaultInjector::compiled_in()) GTEST_SKIP() << "fault sites compiled out";
  // Accepted through C3 when its probes succeed.
  const std::string q = "select * from grades where course-id = 'cs101'";
  ASSERT_TRUE(db_.Execute(q, Student()).ok());

  FaultInjector::Instance().Reset();
  FaultInjector::Instance().FailWithProbability("validity.probe", 1.0,
                                                /*seed=*/1);
  auto r = db_.Execute(q, Student());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotAuthorized);
  // Each faulted remainder ran once and was remembered as empty; later
  // rounds did not retry it.
  EXPECT_EQ(FaultInjector::Instance().HitCount("validity.probe"), 2u);
}

}  // namespace
}  // namespace fgac

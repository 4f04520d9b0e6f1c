// The prepared-statement validity cache (paper Section 5.6 optimizations).

#include "core/validity_cache.h"

#include <gtest/gtest.h>

#include "core/database.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using core::Database;
using core::EnforcementMode;
using core::SessionContext;
using core::ValidityCache;
using core::ValidityReport;
using fgac::testing::CreateUniversityViews;
using fgac::testing::SetupUniversity;

ValidityReport Accepted(bool unconditional) {
  ValidityReport r;
  r.valid = true;
  r.unconditional = unconditional;
  return r;
}

// Lookup helper for the (user, plan_fp, catalog_version, policy_epoch,
// data_version) signature; returns whether the lookup hit.
bool Hit(ValidityCache& cache, const std::string& user, uint64_t fp,
         uint64_t cv, uint64_t pe, uint64_t dv,
         ValidityReport* out = nullptr) {
  return cache.Lookup(user, fp, cv, pe, dv, out);
}

TEST(ValidityCacheTest, HitAfterInsert) {
  ValidityCache cache;
  EXPECT_FALSE(Hit(cache, "u", 1, 1, 1, 1));
  cache.Insert("u", 1, 1, 1, 1, Accepted(true));
  ValidityReport report;
  ASSERT_TRUE(Hit(cache, "u", 1, 1, 1, 1, &report));
  EXPECT_TRUE(report.valid);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ValidityCacheTest, KeyedByUserAndPlan) {
  ValidityCache cache;
  cache.Insert("u", 1, 1, 1, 1, Accepted(true));
  EXPECT_FALSE(Hit(cache, "v", 1, 1, 1, 1));
  EXPECT_FALSE(Hit(cache, "u", 2, 1, 1, 1));
}

TEST(ValidityCacheTest, CatalogVersionInvalidatesEverything) {
  ValidityCache cache;
  cache.Insert("u", 1, 1, 1, 1, Accepted(true));
  EXPECT_FALSE(Hit(cache, "u", 1, 2, 1, 1));
}

TEST(ValidityCacheTest, PolicyEpochInvalidatesEverything) {
  // Even an unconditional acceptance dies when the policy epoch advances:
  // the authorization views it was judged against may have narrowed.
  ValidityCache cache;
  cache.Insert("u", 1, 1, 1, 1, Accepted(true));
  EXPECT_FALSE(Hit(cache, "u", 1, 1, 2, 1));
  // The stale entry was erased, not just skipped.
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ValidityCacheTest, DataVersionInvalidatesConditionalOnly) {
  ValidityCache cache;
  cache.Insert("u", 1, 1, 1, 1, Accepted(true));        // unconditional
  cache.Insert("u", 2, 1, 1, 1, Accepted(false));       // conditional
  ValidityReport rejected;
  rejected.valid = false;
  cache.Insert("u", 3, 1, 1, 1, rejected);              // rejection
  // Data changed: unconditional verdicts survive, conditional/rejections die.
  EXPECT_TRUE(Hit(cache, "u", 1, 1, 1, 2));
  EXPECT_FALSE(Hit(cache, "u", 2, 1, 1, 2));
  EXPECT_FALSE(Hit(cache, "u", 3, 1, 1, 2));
}

class DatabaseCacheTest : public ::testing::Test {
 protected:
  static void Setup(Database* db) {
    SetupUniversity(db);
    CreateUniversityViews(db);
    ASSERT_TRUE(db->ExecuteAsAdmin("grant select on mygrades to 11").ok());
    ASSERT_TRUE(
        db->ExecuteAsAdmin("grant select on costudentgrades to 11").ok());
    ASSERT_TRUE(
        db->ExecuteAsAdmin("grant select on myregistrations to 11").ok());
  }

  void SetUp() override { Setup(&db_); }

  SessionContext Student() {
    SessionContext ctx("11");
    ctx.set_mode(EnforcementMode::kNonTruman);
    return ctx;
  }

  Database db_;
};

TEST_F(DatabaseCacheTest, SecondExecutionHitsCache) {
  const std::string q = "select grade from grades where student-id = '11'";
  auto r1 = db_.Execute(q, Student());
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.value().validity_from_cache);
  auto r2 = db_.Execute(q, Student());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().validity_from_cache);
}

TEST_F(DatabaseCacheTest, GrantRevokesCachedVerdicts) {
  const std::string q = "select grade from grades where student-id = '11'";
  ASSERT_TRUE(db_.Execute(q, Student()).ok());
  // Any catalog change (here: a new grant) bumps the catalog version.
  ASSERT_TRUE(db_.ExecuteAsAdmin("grant select on avggrades to 11").ok());
  auto r = db_.Execute(q, Student());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().validity_from_cache);
}

TEST_F(DatabaseCacheTest, DataChangeInvalidatesConditionalVerdict) {
  // Conditionally valid via C3 (registered for cs101).
  const std::string q = "select * from grades where course-id = 'cs101'";
  auto r1 = db_.Execute(q, Student());
  ASSERT_TRUE(r1.ok());
  ASSERT_FALSE(r1.value().validity.unconditional);
  // DML bumps the data version; the conditional verdict must be re-derived.
  ASSERT_TRUE(
      db_.ExecuteAsAdmin("insert into courses values ('cs303', 'os')").ok());
  auto r2 = db_.Execute(q, Student());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().validity_from_cache);
}

TEST_F(DatabaseCacheTest, DirectStorageDeleteInvalidatesConditionalVerdict) {
  // Regression: a remainder-tuple delete that bypasses Database DML and
  // writes storage directly (bench/test seeding style) must still kill the
  // cached conditional verdict. Before the version counter moved into
  // TableData, data_version() only saw Execute()-routed DML, so the stale
  // verdict kept admitting a query whose C3 witness was gone.
  const std::string q = "select * from grades where course-id = 'cs101'";
  auto r1 = db_.Execute(q, Student());
  ASSERT_TRUE(r1.ok());
  ASSERT_FALSE(r1.value().validity.unconditional);

  // Delete student 11's cs101 registration straight out of TableData.
  storage::TableData* reg = db_.state().GetMutableTable("registered");
  ASSERT_NE(reg, nullptr);
  std::vector<size_t> doomed;
  for (size_t i = 0; i < reg->rows().size(); ++i) {
    const Row& row = reg->rows()[i];
    if (row[0] == Value::String("11") && row[1] == Value::String("cs101"))
      doomed.push_back(i);
  }
  ASSERT_FALSE(doomed.empty());
  reg->EraseIndices(doomed);

  // The verdict's supporting fact is gone: the cache entry must not be
  // served, and re-derivation must now reject the query.
  auto r2 = db_.Execute(q, Student());
  if (r2.ok()) {
    EXPECT_FALSE(r2.value().validity_from_cache)
        << "stale conditional verdict served from cache";
  }
  EXPECT_FALSE(r2.ok()) << "query admitted without its C3 witness";
}

TEST_F(DatabaseCacheTest, ConditionalVerdictFlipsWithState) {
  // Student 11 not registered for ee150 -> rejected; after registering
  // (and the data version bump), the same query becomes valid.
  const std::string q = "select * from grades where course-id = 'ee150'";
  SessionContext ctx = Student();
  EXPECT_FALSE(db_.Execute(q, ctx).ok());
  ASSERT_TRUE(
      db_.ExecuteAsAdmin("insert into registered values ('11', 'ee150')").ok());
  EXPECT_TRUE(db_.Execute(q, ctx).ok());
}

TEST_F(DatabaseCacheTest, CacheCanBeDisabled) {
  db_.options().enable_validity_cache = false;
  const std::string q = "select grade from grades where student-id = '11'";
  ASSERT_TRUE(db_.Execute(q, Student()).ok());
  auto r2 = db_.Execute(q, Student());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().validity_from_cache);
}

TEST_F(DatabaseCacheTest, BlownProbeBudgetVerdictIsNotCached) {
  // A verdict reached before the whole-check probe cap blew is sound to
  // act on once but must NEVER be cached: with budget the check could have
  // proved more, and the cache would keep serving the starved verdict.
  // Repeats of an already-probed remainder are answered from the check's
  // probe memo and cost no budget, so the query needs a later batch that
  // probes a DISTINCT remainder: this join is conditionally valid after
  // its first batch (2 probes), and the next round probes one new plan.
  const std::string q =
      "select grades.grade from grades, registered "
      "where grades.course-id = registered.course-id "
      "and registered.student-id = '11' and grades.course-id = 'cs101'";
  auto free_run = db_.Execute(q, Student());
  ASSERT_TRUE(free_run.ok());
  ASSERT_FALSE(free_run.value().validity.unconditional);
  EXPECT_FALSE(free_run.value().validity.probe_budget_exhausted);
  const size_t probes = free_run.value().validity.c3_probes;
  ASSERT_GT(probes, 0u);

  // The engine is deterministic, so scanning budgets downward from the
  // unconstrained demand finds the boundary case: enough probes ran to
  // reach the conditional verdict, then a later batch was refused.
  bool exercised = false;
  for (size_t budget = probes; budget >= 1 && !exercised; --budget) {
    Database db;
    Setup(&db);
    db.options().validity.max_total_probes = budget;
    auto r = db.Execute(q, Student());
    if (!r.ok() || !r.value().validity.probe_budget_exhausted) continue;
    exercised = true;
    EXPECT_TRUE(r.value().validity.valid);
    EXPECT_FALSE(r.value().validity_from_cache);
    // The starved verdict must not have entered the cache: a second
    // execution re-derives from scratch.
    EXPECT_EQ(db.validity_cache().size(), 0u);
    auto again = db.Execute(q, Student());
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again.value().validity_from_cache);
  }
  ASSERT_TRUE(exercised)
      << "no probe budget reached a verdict and then blew; fixture needs "
         "a query whose later probe batch probes a distinct remainder";
}

TEST_F(DatabaseCacheTest, DifferentConstantsKeySeparately) {
  // Plan fingerprints cover constants: '11' vs '12' are different entries.
  ASSERT_TRUE(
      db_.Execute("select grade from grades where student-id = '11'", Student())
          .ok());
  auto r = db_.Execute("select grade from grades where student-id = '12'",
                       Student());
  ASSERT_FALSE(r.ok());  // not authorized, and independently computed
  EXPECT_EQ(db_.validity_cache().size(), 2u);
}

}  // namespace
}  // namespace fgac

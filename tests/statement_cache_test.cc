// StatementCache unit coverage (sharding, LRU, fail-closed invalidation,
// fingerprint-collision tiebreaks) plus the end-to-end policy-epoch
// regression tests: a cached verdict or rewrite must never outlive a
// change to the policy state it was computed under.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/plan.h"
#include "core/database.h"
#include "core/session_context.h"
#include "core/statement_cache.h"
#include "server/connection_manager.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using core::Database;
using core::EnforcementMode;
using core::SessionContext;
using core::StatementCache;
using core::ValidityReport;
using server::ConnectionManager;
using testing::CreateUniversityViews;
using testing::SetupUniversity;
using testing::SortedRowsToString;

ValidityReport Accepted(bool unconditional) {
  ValidityReport r;
  r.valid = true;
  r.unconditional = unconditional;
  return r;
}

algebra::PlanPtr TrivialPlan() { return algebra::MakeGet("t", {"a"}); }

TEST(StatementCacheTest, TrumanPlanHitAfterInsert) {
  StatementCache cache;
  std::string user = "u", text = "select a from t";
  StatementCache::Key key{user, 7, text, 1, 1};
  EXPECT_EQ(cache.LookupTrumanPlan(key, 1), nullptr);
  cache.InsertTrumanPlan(key, 1, TrivialPlan());
  EXPECT_NE(cache.LookupTrumanPlan(key, 1), nullptr);
  // A different session-parameter fingerprint is a different rewrite.
  EXPECT_EQ(cache.LookupTrumanPlan(key, 2), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(StatementCacheTest, VerdictHitAfterInsert) {
  StatementCache cache;
  std::string user = "u", text = "select a from t";
  StatementCache::Key key{user, 7, text, 1, 1};
  ValidityReport out;
  EXPECT_FALSE(cache.LookupVerdict(key, 1, 1, &out));
  cache.InsertVerdict(key, 1, 1, Accepted(true));
  ASSERT_TRUE(cache.LookupVerdict(key, 1, 1, &out));
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // A different statement fingerprint is a different entry.
  StatementCache::Key other{user, 8, text, 1, 1};
  EXPECT_FALSE(cache.LookupVerdict(other, 1, 1, &out));
}

TEST(StatementCacheTest, KeyedByPrincipal) {
  StatementCache cache;
  std::string alice = "alice", bob = "bob", text = "select a from t";
  StatementCache::Key ka{alice, 7, text, 1, 1};
  StatementCache::Key kb{bob, 7, text, 1, 1};
  cache.InsertTrumanPlan(ka, 1, TrivialPlan());
  EXPECT_EQ(cache.LookupTrumanPlan(kb, 1), nullptr);
  EXPECT_NE(cache.LookupTrumanPlan(ka, 1), nullptr);
}

TEST(StatementCacheTest, CatalogVersionAndPolicyEpochFailClosed) {
  StatementCache cache;
  std::string user = "u", text = "select a from t";
  StatementCache::Key key{user, 7, text, 1, 1};
  cache.InsertTrumanPlan(key, 1, TrivialPlan());
  cache.InsertVerdict(key, 9, 1, Accepted(true));
  // Catalog moved: the whole entry (plans AND verdicts) is discarded.
  StatementCache::Key newer_catalog{user, 7, text, 2, 1};
  EXPECT_EQ(cache.LookupTrumanPlan(newer_catalog, 1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_GE(cache.invalidations(), 1u);
  // Same for a policy-epoch bump, even with the catalog version equal.
  cache.InsertVerdict(key, 9, 1, Accepted(true));
  StatementCache::Key newer_policy{user, 7, text, 1, 2};
  ValidityReport out;
  EXPECT_FALSE(cache.LookupVerdict(newer_policy, 9, 1, &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(StatementCacheTest, TextMismatchIsAMissNeverAWrongReuse) {
  StatementCache cache;
  // Same (user, stmt_fp) — a forced fingerprint collision between two
  // distinct statements. The stored text disagrees, so the second
  // statement must miss rather than inherit the first one's plans.
  std::string user = "u";
  std::string text1 = "select a from t", text2 = "select b from t";
  StatementCache::Key k1{user, 7, text1, 1, 1};
  StatementCache::Key k2{user, 7, text2, 1, 1};
  cache.InsertTrumanPlan(k1, 1, TrivialPlan());
  EXPECT_EQ(cache.LookupTrumanPlan(k2, 1), nullptr);
  EXPECT_GE(cache.collisions(), 1u);
  // Inserting under the colliding key restarts the entry for the new text.
  cache.InsertTrumanPlan(k2, 1, TrivialPlan());
  EXPECT_NE(cache.LookupTrumanPlan(k2, 1), nullptr);
  EXPECT_EQ(cache.LookupTrumanPlan(k1, 1), nullptr);
}

TEST(StatementCacheTest, VerdictDataVersionRule) {
  StatementCache cache;
  std::string user = "u", text = "select a from t";
  StatementCache::Key key{user, 7, text, 1, 1};
  cache.InsertVerdict(key, 1, /*data_version=*/5, Accepted(true));
  cache.InsertVerdict(key, 2, /*data_version=*/5, Accepted(false));
  ValidityReport rejected;
  rejected.valid = false;
  cache.InsertVerdict(key, 3, /*data_version=*/5, rejected);
  ValidityReport out;
  // Data moved to version 6: only the unconditional acceptance survives.
  EXPECT_TRUE(cache.LookupVerdict(key, 1, 6, &out));
  EXPECT_FALSE(cache.LookupVerdict(key, 2, 6, &out));
  EXPECT_FALSE(cache.LookupVerdict(key, 3, 6, &out));
}

TEST(StatementCacheTest, ProbeBudgetExhaustedVerdictsAreNotCached) {
  StatementCache cache;
  std::string user = "u", text = "select a from t";
  StatementCache::Key key{user, 7, text, 1, 1};
  ValidityReport budget = Accepted(true);
  budget.probe_budget_exhausted = true;
  cache.InsertVerdict(key, 1, 1, budget);
  ValidityReport out;
  EXPECT_FALSE(cache.LookupVerdict(key, 1, 1, &out));
}

TEST(StatementCacheTest, LruEvictionBoundsEntries) {
  // The shard budgets sum to the configured total, also for capacities
  // that are below kShards or not a multiple of it.
  for (size_t capacity : {StatementCache::kShards, size_t{1}, size_t{4},
                          size_t{17}, size_t{100}}) {
    SCOPED_TRACE(capacity);
    StatementCache cache(capacity);
    std::string user = "u", text = "q";
    // Consecutive fingerprints cycle through every shard, so each shard
    // sees more inserts than its budget.
    const uint64_t inserts = 4 * std::max(capacity, StatementCache::kShards);
    for (uint64_t fp = 0; fp < inserts; ++fp) {
      StatementCache::Key key{user, fp, text, 1, 1};
      cache.InsertTrumanPlan(key, 1, TrivialPlan());
    }
    EXPECT_LE(cache.size(), capacity);
    EXPECT_GE(cache.evictions(), 1u);
    // Every shard filled its budget, so the cache holds exactly its
    // capacity.
    EXPECT_EQ(cache.size(), capacity);
    EXPECT_EQ(cache.evictions(), inserts - capacity);
  }
}

TEST(StatementCacheTest, RecentlyUsedEntrySurvivesEviction) {
  // Two entries per shard. Fingerprints with equal low 4 bits land in the
  // same shard, so the third insert evicts that shard's LRU entry.
  StatementCache cache(/*max_entries=*/2 * StatementCache::kShards);
  std::string user = "u", text = "q";
  const uint64_t a = 1, b = a + StatementCache::kShards,
                 c = a + 2 * StatementCache::kShards;
  StatementCache::Key ka{user, a, text, 1, 1};
  StatementCache::Key kb{user, b, text, 1, 1};
  StatementCache::Key kc{user, c, text, 1, 1};
  cache.InsertVerdict(ka, 1, 1, Accepted(true));
  cache.InsertVerdict(kb, 1, 1, Accepted(true));
  ValidityReport out;
  // Touch a so b becomes the LRU victim.
  EXPECT_TRUE(cache.LookupVerdict(ka, 1, 1, &out));
  cache.InsertVerdict(kc, 1, 1, Accepted(true));
  EXPECT_TRUE(cache.LookupVerdict(ka, 1, 1, &out));
  EXPECT_FALSE(cache.LookupVerdict(kb, 1, 1, &out));
  EXPECT_TRUE(cache.LookupVerdict(kc, 1, 1, &out));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(StatementCacheTest, VariantMapsAreBounded) {
  StatementCache cache;
  std::string user = "u", text = "q";
  StatementCache::Key key{user, 7, text, 1, 1};
  for (uint64_t fp = 0; fp < 4 * StatementCache::kMaxVariants; ++fp) {
    cache.InsertVerdict(key, fp, 1, Accepted(true));
    cache.InsertTrumanPlan(key, fp, TrivialPlan());
  }
  EXPECT_EQ(cache.size(), 1u);  // still one entry, variants bounded inside
}

// --- End-to-end policy-epoch regression tests -----------------------------

class PolicyEpochTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
    ASSERT_TRUE(db_.ExecuteScript("grant select on mygrades to 11").ok());
  }
  Database db_;
};

// The ISSUE's regression scenario: a Non-Truman verdict cached for a
// prepared statement must be re-checked — and the query rejected — after
// the principal's authorization is narrowed. A stale "valid" here would be
// an authorization bypass.
TEST_F(PolicyEpochTest, CachedVerdictDiesWhenAuthorizationNarrows) {
  ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kNonTruman);
  ASSERT_TRUE(s->Execute("prepare q as select grade from grades "
                         "where student-id = $user-id "
                         "and course-id = $1")
                  .ok());
  auto first = s->Execute("execute q ('cs101')");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = s->Execute("execute q ('cs101')");
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.value().validity_from_cache);  // the verdict IS cached

  // Narrow the principal's authorization: revoke the only view that made
  // the query answerable.
  ASSERT_TRUE(db_.ExecuteAsAdmin("revoke select on mygrades from 11").ok());

  // The cached verdict must not be honored: the epoch moved, the check
  // re-runs, and the query is now rejected.
  auto after = s->Execute("execute q ('cs101')");
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotAuthorized);

  // Re-granting restores access (and proves the rejection wasn't sticky).
  ASSERT_TRUE(db_.ExecuteAsAdmin("grant select on mygrades to 11").ok());
  auto restored = s->Execute("execute q ('cs101')");
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
}

// Same property for the Truman side: a cached rewritten plan must be
// rebuilt when the table's Truman policy binding changes. The prepared
// EXECUTE and the same SELECT run ad hoc each keep their rewrite in the
// statement cache.
TEST_F(PolicyEpochTest, CachedTrumanPlanDiesWhenPolicyChanges) {
  ASSERT_TRUE(db_.catalog().SetTrumanView("grades", "mygrades").ok());
  ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kTruman);
  ASSERT_TRUE(s->Execute("prepare q as select grade from grades "
                         "where course-id = $1")
                  .ok());
  const std::string ad_hoc =
      "select grade from grades where course-id = 'cs101'";
  auto r = s->Execute("execute q ('cs101')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().relation.num_rows(), 1u);  // own cs101 grade
  auto first = s->Execute(ad_hoc);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().truman_plan_from_cache);
  auto second = s->Execute(ad_hoc);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.value().truman_plan_from_cache);
  EXPECT_EQ(second.value().relation.num_rows(), 1u);
  // The ad-hoc hit is the session's only cache hit so far.
  auto sessions = testing::MustQueryAdmin(
      &db_, "select cache_hits from fgac_sessions where session_id = '" +
                s->id() + "'");
  ASSERT_EQ(sessions.num_rows(), 1u);
  EXPECT_EQ(sessions.rows()[0][0].int_value(), 1);

  // Rebind the policy to a view that exposes nothing.
  ASSERT_TRUE(
      db_.ExecuteAsAdmin("create authorization view nothing as "
                         "select student-id, course-id, grade from grades "
                         "where student-id = 'nobody'")
          .ok());
  ASSERT_TRUE(db_.catalog().SetTrumanView("grades", "nothing").ok());

  auto after = s->Execute("execute q ('cs101')");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().relation.num_rows(), 0u);
  auto ad_hoc_after = s->Execute(ad_hoc);
  ASSERT_TRUE(ad_hoc_after.ok()) << ad_hoc_after.status().ToString();
  EXPECT_FALSE(ad_hoc_after.value().truman_plan_from_cache);
  EXPECT_EQ(ad_hoc_after.value().relation.num_rows(), 0u);
}

// Ad-hoc (non-prepared) Non-Truman queries share the statement cache; the
// epoch must gate those too.
TEST_F(PolicyEpochTest, AdHocVerdictCacheRespectsEpoch) {
  const char* sql =
      "select grade from grades where student-id = $user-id";
  SessionContext ctx("11");
  ctx.set_mode(EnforcementMode::kNonTruman);
  ASSERT_TRUE(db_.Execute(sql, ctx).ok());
  auto cached = db_.Execute(sql, ctx);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached.value().validity_from_cache);
  ASSERT_TRUE(db_.ExecuteAsAdmin("revoke select on mygrades from 11").ok());
  auto after = db_.Execute(sql, ctx);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotAuthorized);
}

}  // namespace
}  // namespace fgac

// Session lifecycle and PREPARE/EXECUTE/DEALLOCATE end-to-end through
// server::ConnectionManager: per-session prepared registries, interrupt
// semantics, close-drain, and the interleaved multi-threaded sweep that
// the TSan and fault-injection CI jobs lean on (FGAC_STRESS_REPEAT scales
// the iteration counts).
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/session_context.h"
#include "server/connection_manager.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using core::Database;
using core::DatabaseOptions;
using core::EnforcementMode;
using core::ExecResult;
using core::SessionContext;
using server::ConnectionManager;
using server::Session;
using testing::CreateUniversityViews;
using testing::SetupUniversity;
using testing::SortedRowsToString;

int StressRepeat(int base) {
  if (const char* env = std::getenv("FGAC_STRESS_REPEAT")) {
    return std::max(1, std::atoi(env));
  }
  return base;
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : db_(WithArtifacts()) {}

  static core::DatabaseOptions WithArtifacts() {
    core::DatabaseOptions opts;
    testing::ApplyNightlyArtifactOptions(&opts, "server_test");
    return opts;
  }

  void TearDown() override {
    testing::DumpMetricsArtifact(&db_, "server_test");
  }

  void SetUp() override {
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
    ASSERT_TRUE(db_.ExecuteScript("grant select on mygrades to 11;"
                                  "grant select on myregistrations to 11")
                    .ok());
    ASSERT_TRUE(db_.catalog().SetTrumanView("grades", "mygrades").ok());
  }

  /// Reference answer via the plain ad-hoc path.
  std::string AdHoc(const std::string& sql, const std::string& user,
                    EnforcementMode mode) {
    SessionContext ctx(user);
    ctx.set_mode(mode);
    auto r = db_.Execute(sql, ctx);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? SortedRowsToString(r.value().relation) : "<error>";
  }

  Database db_;
};

TEST_F(ServerTest, OpenExecuteClose) {
  ConnectionManager cm(db_);
  auto s = cm.Open("admin");
  EXPECT_EQ(s->id(), "conn-1");
  EXPECT_EQ(cm.active_sessions(), 1u);
  auto r = s->Execute("select name from students where type = 'fulltime'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().relation.num_rows(), 2u);
  EXPECT_TRUE(cm.Close(s->id()));
  EXPECT_EQ(cm.active_sessions(), 0u);
  EXPECT_EQ(cm.sessions_opened(), 1u);
  EXPECT_EQ(cm.sessions_closed(), 1u);
  // Statements after close fail closed.
  auto after = s->Execute("select name from students");
  EXPECT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kCancelled);
}

TEST_F(ServerTest, PrepareExecuteDeallocateRoundTrip) {
  ConnectionManager cm(db_);
  auto s = cm.Open("admin");
  ASSERT_TRUE(s->Execute("prepare q as select grade from grades "
                         "where course-id = $1")
                  .ok());
  EXPECT_EQ(s->PreparedNames(), std::vector<std::string>{"q"});
  auto r = s->Execute("execute q ('cs101')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(SortedRowsToString(r.value().relation),
            AdHoc("select grade from grades where course-id = 'cs101'",
                  "admin", EnforcementMode::kNone));
  // Re-execution with a different argument binds fresh constants.
  auto r2 = s->Execute("execute q ('cs202')");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(SortedRowsToString(r2.value().relation),
            AdHoc("select grade from grades where course-id = 'cs202'",
                  "admin", EnforcementMode::kNone));
  ASSERT_TRUE(s->Execute("deallocate q").ok());
  EXPECT_TRUE(s->PreparedNames().empty());
  auto gone = s->Execute("execute q ('cs101')");
  EXPECT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, ExecuteArgumentValidation) {
  ConnectionManager cm(db_);
  auto s = cm.Open("admin");
  ASSERT_TRUE(s->Execute("prepare q as select grade from grades "
                         "where course-id = $1")
                  .ok());
  EXPECT_FALSE(s->Execute("execute q").ok());              // too few
  EXPECT_FALSE(s->Execute("execute q ('a', 'b')").ok());   // too many
  EXPECT_FALSE(s->Execute("execute nosuch ('a')").ok());   // unknown name
  EXPECT_FALSE(s->Execute("deallocate nosuch").ok());
  // Placeholders must be $1..$n with no gaps.
  EXPECT_FALSE(s->Execute("prepare gap as select grade from grades "
                          "where course-id = $2")
                   .ok());
  // DEALLOCATE ALL clears the registry.
  ASSERT_TRUE(s->Execute("prepare q2 as select name from students").ok());
  ASSERT_TRUE(s->Execute("deallocate all").ok());
  EXPECT_TRUE(s->PreparedNames().empty());
}

TEST_F(ServerTest, PreparedStatementsArePerSession) {
  ConnectionManager cm(db_);
  auto a = cm.Open("admin");
  auto b = cm.Open("admin");
  ASSERT_TRUE(a->Execute("prepare q as select name from students").ok());
  // Session b never prepared q: the registry is a's, not the server's.
  auto r = b->Execute("execute q");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(a->Execute("execute q").ok());
}

TEST_F(ServerTest, PreparedTrumanMatchesAdHoc) {
  ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kTruman);
  ASSERT_TRUE(s->Execute("prepare q as select grade from grades "
                         "where course-id = $1")
                  .ok());
  std::string expect =
      AdHoc("select grade from grades where course-id = 'cs101'", "11",
            EnforcementMode::kTruman);
  uint64_t misses_before = db_.statement_cache().misses();
  for (int i = 0; i < 5; ++i) {
    auto r = s->Execute("execute q ('cs101')");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(SortedRowsToString(r.value().relation), expect);
  }
  // First execution rewrites and caches; the rest reuse the rewritten
  // parameterized plan.
  EXPECT_EQ(db_.statement_cache().misses(), misses_before + 1);
  EXPECT_GE(db_.statement_cache().hits(), 4u);
}

TEST_F(ServerTest, PreparedNonTrumanCachesVerdict) {
  ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kNonTruman);
  ASSERT_TRUE(s->Execute("prepare q as select grade from grades "
                         "where student-id = $user-id "
                         "and course-id = $1")
                  .ok());
  auto first = s->Execute("execute q ('cs101')");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().validity_from_cache);
  auto second = s->Execute("execute q ('cs101')");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.value().validity_from_cache);
  // A different argument is a different concrete query: fresh verdict.
  auto third = s->Execute("execute q ('cs202')");
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_FALSE(third.value().validity_from_cache);
}

TEST_F(ServerTest, InterruptTargetsInFlightOnly) {
  ConnectionManager cm(db_);
  auto s = cm.Open("admin");
  // No statement in flight: the interrupt trips the current token, but the
  // next statement gets a fresh one and runs normally.
  EXPECT_TRUE(cm.Interrupt(s->id()));
  auto r = s->Execute("select name from students");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(cm.interrupts(), 1u);
  EXPECT_FALSE(cm.Interrupt("conn-999"));
}

TEST_F(ServerTest, DeallocateDuringInFlightExecutionDrains) {
  ConnectionManager cm(db_);
  auto s = cm.Open("admin");
  ASSERT_TRUE(s->Execute("prepare q as select s.name, g.grade "
                         "from students s, grades g "
                         "where s.student-id = g.student-id "
                         "and g.course-id = $1")
                  .ok());
  std::string expect = AdHoc(
      "select s.name, g.grade from students s, grades g "
      "where s.student-id = g.student-id and g.course-id = 'cs101'",
      "admin", EnforcementMode::kNone);
  int iters = 50 * StressRepeat(1);
  std::atomic<bool> stop{false};
  std::atomic<int> oks{0}, unknowns{0};
  std::thread worker([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto r = s->Execute("execute q ('cs101')");
      if (r.ok()) {
        // An execution that won the race must still be complete and right:
        // DEALLOCATE drops the registry entry, never in-flight state.
        if (SortedRowsToString(r.value().relation) != expect) {
          ADD_FAILURE() << "mid-deallocate execution returned wrong rows";
        }
        oks.fetch_add(1, std::memory_order_relaxed);
      } else if (r.status().code() == StatusCode::kInvalidArgument) {
        unknowns.fetch_add(1, std::memory_order_relaxed);
      } else {
        ADD_FAILURE() << r.status().ToString();
      }
    }
  });
  for (int i = 0; i < iters; ++i) {
    ASSERT_TRUE(s->Execute("prepare q as select s.name, g.grade "
                           "from students s, grades g "
                           "where s.student-id = g.student-id "
                           "and g.course-id = $1")
                    .ok());
    auto d = s->Execute("deallocate q");
    if (!d.ok()) {
      EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
    }
  }
  stop.store(true, std::memory_order_release);
  worker.join();
  EXPECT_EQ(s->in_flight(), 0u);
}

TEST_F(ServerTest, CloseDrainsInFlightStatements) {
  ConnectionManager cm(db_);
  auto s = cm.Open("admin");
  std::atomic<bool> done{false};
  std::thread worker([&] {
    for (int i = 0; i < 20; ++i) {
      auto r = s->Execute("select s.name, g.grade from students s, grades g "
                          "where s.student-id = g.student-id");
      if (!r.ok() && r.status().code() != StatusCode::kCancelled) {
        ADD_FAILURE() << r.status().ToString();
      }
      if (!r.ok()) break;  // closed under us — expected
    }
    done.store(true, std::memory_order_release);
  });
  // Close concurrently: it must block until the in-flight statement (if
  // any) drained, and the session must end with nothing running.
  ASSERT_TRUE(cm.Close(s->id()));
  EXPECT_EQ(s->in_flight(), 0u);
  EXPECT_TRUE(s->closed());
  worker.join();
  EXPECT_TRUE(done.load());
}

// The CI centerpiece: 8 threads interleaving open / prepare / execute /
// interrupt / close against one manager. Successful executions must be
// bit-for-bit right; failures must be fail-closed codes.
TEST_F(ServerTest, InterleavedLifecycleSweep) {
  ConnectionManager cm(db_);
  const std::string truman_sql =
      "select grade from grades where course-id = 'cs101'";
  // The Non-Truman form of the same question: in mygrades, so valid.
  const std::string non_truman_sql =
      "select grade from grades where student-id = '11' "
      "and course-id = 'cs101'";
  std::string expect_truman =
      AdHoc(truman_sql, "11", EnforcementMode::kTruman);
  std::string expect_non_truman =
      AdHoc(non_truman_sql, "11", EnforcementMode::kNonTruman);
  EXPECT_EQ(expect_non_truman, expect_truman);
  std::string expect_plain =
      AdHoc("select name from students where type = 'fulltime'", "admin",
            EnforcementMode::kNone);
  int iters = 25 * StressRepeat(1);
  std::atomic<int> wrong{0};
  auto fail_closed = [](StatusCode code) {
    switch (code) {
      case StatusCode::kCancelled:
      case StatusCode::kTimeout:
      case StatusCode::kResourceExhausted:
      case StatusCode::kOverloaded:
      case StatusCode::kInvalidArgument:  // raced a deallocate/close
      case StatusCode::kInternal:
      case StatusCode::kExecutionError:
        return true;
      default:
        return false;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < iters; ++i) {
        bool truman = (t + i) % 2 == 0;
        auto s = truman ? cm.Open("11", EnforcementMode::kTruman)
                        : cm.Open("admin");
        auto p = s->Execute(truman
                                ? "prepare q as select grade from grades "
                                  "where course-id = $1"
                                : "prepare q as select name from students "
                                  "where type = $1");
        if (!p.ok() && !fail_closed(p.status().code())) {
          ADD_FAILURE() << p.status().ToString();
        }
        for (int j = 0; j < 3; ++j) {
          auto r = s->Execute(truman ? "execute q ('cs101')"
                                     : "execute q ('fulltime')");
          if (r.ok()) {
            const std::string& expect = truman ? expect_truman : expect_plain;
            if (SortedRowsToString(r.value().relation) != expect) {
              wrong.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (!fail_closed(r.status().code())) {
            ADD_FAILURE() << r.status().ToString();
          }
          if (j == 1 && i % 3 == 0) s->Interrupt();
        }
        if (truman) {
          // Ad-hoc SELECTs from every thread share the cached Truman
          // rewrite and Non-Truman verdict entries.
          for (EnforcementMode mode :
               {EnforcementMode::kTruman, EnforcementMode::kNonTruman}) {
            s->context().set_mode(mode);
            bool is_truman = mode == EnforcementMode::kTruman;
            auto r = s->Execute(is_truman ? truman_sql : non_truman_sql);
            if (r.ok()) {
              const std::string& expect =
                  is_truman ? expect_truman : expect_non_truman;
              if (SortedRowsToString(r.value().relation) != expect) {
                wrong.fetch_add(1, std::memory_order_relaxed);
              }
            } else if (!fail_closed(r.status().code())) {
              ADD_FAILURE() << r.status().ToString();
            }
          }
        }
        if (i % 2 == 0) {
          cm.Close(s->id());
        }  // odd iterations leave the session for CloseAll
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  cm.CloseAll();
  EXPECT_EQ(cm.active_sessions(), 0u);
  EXPECT_EQ(cm.sessions_opened(), cm.sessions_closed());
}

}  // namespace
}  // namespace fgac

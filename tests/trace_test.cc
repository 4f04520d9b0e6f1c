// Tests for end-to-end query tracing: the Tracer span collector (bounded
// retention, Chrome-trace export), the RAII ScopedSpan helpers, and the
// spans the engine emits for a traced statement — query / validity.check /
// rule firings / probe batches / exec — including per-worker spans from
// the morsel-driven parallel executor. The TSan job runs this file.

#include "common/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using common::RecordInstantSpan;
using common::ScopedSpan;
using common::TraceContext;
using common::Tracer;
using common::TraceSpan;
using core::Database;
using core::DatabaseOptions;
using core::EnforcementMode;
using core::SessionContext;
using fgac::testing::CreateUniversityViews;
using fgac::testing::SetupUniversity;

std::vector<TraceSpan> SpansNamed(const std::vector<TraceSpan>& spans,
                                  const std::string& name) {
  std::vector<TraceSpan> out;
  for (const TraceSpan& s : spans) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

bool HasSpanWithPrefix(const std::vector<TraceSpan>& spans,
                       const std::string& prefix) {
  for (const TraceSpan& s : spans) {
    if (s.name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Tracer primitive
// ---------------------------------------------------------------------------

TEST(TracerTest, RecordsAndSnapshotsInOrder) {
  Tracer tracer;
  for (int i = 0; i < 3; ++i) {
    TraceSpan s;
    s.trace_id = 7;
    s.span_id = tracer.NewSpanId();
    s.name = "span-" + std::to_string(i);
    tracer.Record(std::move(s));
  }
  EXPECT_EQ(tracer.spans_recorded(), 3u);
  EXPECT_EQ(tracer.spans_dropped(), 0u);
  std::vector<TraceSpan> snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "span-0");
  EXPECT_EQ(snap[2].name, "span-2");
  // Ids handed out by one tracer never collide.
  EXPECT_NE(snap[0].span_id, snap[1].span_id);
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(TracerTest, BoundedRetentionEvictsOldestAndCounts) {
  Tracer tracer(/*retain_spans=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceSpan s;
    s.name = "span-" + std::to_string(i);
    tracer.Record(std::move(s));
  }
  EXPECT_EQ(tracer.spans_recorded(), 10u);
  EXPECT_EQ(tracer.spans_dropped(), 6u);
  std::vector<TraceSpan> snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().name, "span-6");  // newest 4 retained
  EXPECT_EQ(snap.back().name, "span-9");
}

TEST(TracerTest, ChromeTraceJsonShape) {
  Tracer tracer;
  TraceSpan s;
  s.trace_id = 1;
  s.span_id = 2;
  s.name = "query";
  s.detail = "mode=\"x\"";  // must be escaped in the export
  s.user = "u1";
  s.start_us = 10;
  s.dur_us = 5;
  s.thread_id = 3;
  tracer.Record(std::move(s));
  std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5"), std::string::npos);
  EXPECT_NE(json.find("\\\"x\\\""), std::string::npos);  // escaped detail
  EXPECT_EQ(json.find("mode=\"x\""), std::string::npos);  // raw quote gone
}

TEST(TracerTest, ConcurrentRecordsAreAllAccounted) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  Tracer tracer(/*retain_spans=*/1000);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan s;
        s.name = "w";
        tracer.Record(std::move(s));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(tracer.spans_recorded() , uint64_t{kThreads * kPerThread});
  EXPECT_EQ(tracer.spans_recorded() - tracer.spans_dropped(),
            tracer.Snapshot().size());
}

// ---------------------------------------------------------------------------
// ScopedSpan
// ---------------------------------------------------------------------------

TEST(ScopedSpanTest, NullContextIsANoOpEverywhere) {
  ScopedSpan span(nullptr, "ignored");
  EXPECT_FALSE(span.active());
  span.set_detail("ignored too");
  TraceContext child = span.ChildContext();
  EXPECT_FALSE(child.active());
  RecordInstantSpan(nullptr, "ignored", "detail");
  TraceContext inactive;  // default: no tracer
  RecordInstantSpan(&inactive, "ignored", "detail");
  ScopedSpan span2(&inactive, "ignored");
  EXPECT_FALSE(span2.active());
}

TEST(ScopedSpanTest, RecordsOnDestructionWithParentLinkage) {
  Tracer tracer;
  TraceContext root;
  root.tracer = &tracer;
  root.trace_id = tracer.NewTraceId();
  root.user = "u1";
  uint64_t outer_id = 0;
  {
    ScopedSpan outer(&root, "outer");
    ASSERT_TRUE(outer.active());
    outer_id = outer.span_id();
    TraceContext child_ctx = outer.ChildContext();
    {
      ScopedSpan inner(&child_ctx, "inner");
      inner.set_detail("d");
    }
    // Children record before parents: inner is already visible.
    EXPECT_EQ(tracer.Snapshot().size(), 1u);
  }
  std::vector<TraceSpan> snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "inner");
  EXPECT_EQ(snap[1].name, "outer");
  EXPECT_EQ(snap[0].parent_id, outer_id);
  EXPECT_EQ(snap[1].parent_id, 0u);  // root
  EXPECT_EQ(snap[0].trace_id, root.trace_id);
  EXPECT_EQ(snap[1].trace_id, root.trace_id);
  EXPECT_EQ(snap[0].user, "u1");
  EXPECT_EQ(snap[0].detail, "d");
  // The parent's interval covers the child's.
  EXPECT_LE(snap[1].start_us, snap[0].start_us);
  EXPECT_GE(snap[1].start_us + snap[1].dur_us,
            snap[0].start_us + snap[0].dur_us);
}

// ---------------------------------------------------------------------------
// End-to-end: spans emitted by a traced statement
// ---------------------------------------------------------------------------

class DatabaseTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
    ASSERT_TRUE(db_.ExecuteAsAdmin("grant select on mygrades to 11").ok());
  }

  Database db_;
};

TEST_F(DatabaseTraceTest, UntracedStatementsRecordNothing) {
  SessionContext ctx("11");
  ASSERT_TRUE(
      db_.Execute("select grade from grades where student-id = '11'", ctx)
          .ok());
  EXPECT_EQ(db_.tracer().spans_recorded(), 0u);
}

TEST_F(DatabaseTraceTest, TracedNonTrumanSelectEmitsFullSpanTree) {
  SessionContext ctx("11");
  ctx.set_trace(true);
  ctx.set_trace_id(777);  // pinned for correlation with the audit row
  ASSERT_TRUE(
      db_.Execute("select grade from grades where student-id = '11'", ctx)
          .ok());
  std::vector<TraceSpan> spans = db_.tracer().Snapshot();
  ASSERT_FALSE(spans.empty());
  for (const TraceSpan& s : spans) {
    EXPECT_EQ(s.trace_id, 777u) << s.name;
    EXPECT_EQ(s.user, "11") << s.name;
  }
  std::vector<TraceSpan> query = SpansNamed(spans, "query");
  ASSERT_EQ(query.size(), 1u);
  EXPECT_EQ(query[0].parent_id, 0u);
  EXPECT_NE(query[0].detail.find("mode=non-truman"), std::string::npos);
  std::vector<TraceSpan> validity = SpansNamed(spans, "validity.check");
  ASSERT_EQ(validity.size(), 1u);
  EXPECT_EQ(validity[0].parent_id, query[0].span_id);
  // The validity verdict is justified by rule firings, each an instant span
  // nested under validity.check.
  ASSERT_TRUE(HasSpanWithPrefix(spans, "rule."));
  for (const TraceSpan& s : spans) {
    if (s.name.rfind("rule.", 0) == 0) {
      EXPECT_EQ(s.parent_id, validity[0].span_id);
      EXPECT_EQ(s.dur_us, 0);  // instant
    }
  }
  std::vector<TraceSpan> exec = SpansNamed(spans, "exec");
  ASSERT_EQ(exec.size(), 1u);
  EXPECT_EQ(exec[0].parent_id, query[0].span_id);
  ASSERT_EQ(SpansNamed(spans, "exec.serial").size(), 1u);
  // Optimization is its own phase, between validity and execution.
  std::vector<TraceSpan> optimize = SpansNamed(spans, "optimize");
  ASSERT_EQ(optimize.size(), 1u);
  EXPECT_EQ(optimize[0].parent_id, query[0].span_id);
  EXPECT_EQ(optimize[0].detail, "leaves=0 splits=0");  // no join
  EXPECT_LE(optimize[0].start_us + optimize[0].dur_us, exec[0].start_us);
}

TEST_F(DatabaseTraceTest, OptimizeSpanCountsJoinLeavesAndSplits) {
  SessionContext ctx("admin");
  ctx.set_mode(EnforcementMode::kNone);
  ctx.set_trace(true);
  ASSERT_TRUE(db_.Execute("select s.name from students s, grades g "
                          "where s.student-id = g.student-id",
                          ctx)
                  .ok());
  std::vector<TraceSpan> optimize =
      SpansNamed(db_.tracer().Snapshot(), "optimize");
  ASSERT_EQ(optimize.size(), 1u);
  // Two leaves: two splits in any column order, one in written order.
  EXPECT_EQ(optimize[0].detail, "leaves=2 splits=3");
}

TEST_F(DatabaseTraceTest, FreshTraceIdPerStatementWhenUnpinned) {
  SessionContext ctx("11");
  ctx.set_trace(true);  // trace_id stays 0: one fresh id per statement
  const std::string q = "select grade from grades where student-id = '11'";
  ASSERT_TRUE(db_.Execute(q, ctx).ok());
  ASSERT_TRUE(db_.Execute(q, ctx).ok());
  std::vector<TraceSpan> query =
      SpansNamed(db_.tracer().Snapshot(), "query");
  ASSERT_EQ(query.size(), 2u);
  EXPECT_NE(query[0].trace_id, 0u);
  EXPECT_NE(query[0].trace_id, query[1].trace_id);
}

TEST_F(DatabaseTraceTest, TrumanRewriteSpanAppearsInTrumanMode) {
  SessionContext ctx("11");
  ctx.set_mode(EnforcementMode::kTruman);
  ctx.set_trace(true);
  ASSERT_TRUE(db_.Execute("select grade from grades", ctx).ok());
  std::vector<TraceSpan> spans = db_.tracer().Snapshot();
  EXPECT_EQ(SpansNamed(spans, "truman.rewrite").size(), 1u);
  EXPECT_TRUE(SpansNamed(spans, "validity.check").empty());
}

TEST_F(DatabaseTraceTest, RejectedQueryStillLeavesItsSpans) {
  SessionContext ctx("11");
  ctx.set_trace(true);
  auto r = db_.Execute("select * from grades", ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotAuthorized);
  std::vector<TraceSpan> spans = db_.tracer().Snapshot();
  // The query and validity spans were recorded on the way out; no exec
  // span, because the statement never reached execution.
  EXPECT_EQ(SpansNamed(spans, "query").size(), 1u);
  EXPECT_EQ(SpansNamed(spans, "validity.check").size(), 1u);
  EXPECT_TRUE(SpansNamed(spans, "exec").empty());
}

TEST_F(DatabaseTraceTest, ParallelExecutionEmitsPerWorkerSpans) {
  // Grow students so the morsel scheduler actually fans out.
  std::vector<Row> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({Value::String("s" + std::to_string(i + 100)),
                    Value::String("name"), Value::String("fulltime")});
  }
  db_.state().GetMutableTable("students")->InsertRows(std::move(rows));
  SessionContext ctx("admin");
  ctx.set_mode(EnforcementMode::kNone);
  ctx.set_exec_parallelism(4);
  ctx.set_trace(true);
  ctx.set_trace_id(99);
  ASSERT_TRUE(db_.Execute("select * from students", ctx).ok());
  std::vector<TraceSpan> spans = db_.tracer().Snapshot();
  std::vector<TraceSpan> workers = SpansNamed(spans, "exec.worker");
  ASSERT_EQ(workers.size(), 4u);
  std::vector<TraceSpan> exec = SpansNamed(spans, "exec");
  ASSERT_EQ(exec.size(), 1u);
  for (const TraceSpan& w : workers) {
    EXPECT_EQ(w.trace_id, 99u);
    EXPECT_NE(w.detail.find("worker="), std::string::npos);
  }
  // Serial fallback was not taken.
  EXPECT_TRUE(SpansNamed(spans, "exec.serial").empty());
}

TEST_F(DatabaseTraceTest, ExportTraceJsonIsLoadableChromeTrace) {
  SessionContext ctx("11");
  ctx.set_trace(true);
  ASSERT_TRUE(
      db_.Execute("select grade from grades where student-id = '11'", ctx)
          .ok());
  std::string json = db_.ExportTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"fgac\""), std::string::npos);
}

}  // namespace
}  // namespace fgac

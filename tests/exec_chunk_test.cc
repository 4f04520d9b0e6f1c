// Unit tests for the vectorized execution primitives (ColumnVector /
// DataChunk) plus a large cross-engine differential property test: the
// batch executor must agree with the row-at-a-time reference evaluator on
// 1000+ generated queries over NULL-heavy data.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "algebra/binder.h"
#include "algebra/reference_eval.h"
#include "common/value.h"
#include "core/database.h"
#include "exec/chunk.h"
#include "exec/eval.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "storage/relation.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using exec::ColumnVector;
using exec::DataChunk;
using exec::Selection;
using fgac::testing::QueryGenerator;
using fgac::testing::SortedRowsToString;

TEST(ColumnVectorTest, TypedAppendAndAccess) {
  ColumnVector col;
  EXPECT_EQ(col.tag(), ColumnVector::Tag::kUntyped);
  col.AppendInt(7);
  col.AppendInt(-3);
  EXPECT_EQ(col.tag(), ColumnVector::Tag::kInt);
  EXPECT_EQ(col.size(), 2u);
  EXPECT_TRUE(col.AllValid());
  EXPECT_EQ(col.IntAt(0), 7);
  EXPECT_EQ(col.IntAt(1), -3);
  EXPECT_EQ(col.GetValue(1), Value::Int(-3));
  EXPECT_EQ(col.KindAt(0), Value::Kind::kInt);
}

TEST(ColumnVectorTest, NullMaskKeepsTypedArraysAligned) {
  ColumnVector col;
  col.AppendInt(1);
  col.AppendNull();
  col.AppendInt(3);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_FALSE(col.AllValid());
  EXPECT_TRUE(col.IsValid(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_TRUE(col.IsValid(2));
  // The placeholder at position 1 must not shift later entries.
  EXPECT_EQ(col.IntAt(2), 3);
  EXPECT_EQ(col.GetValue(1), Value::Null());
  EXPECT_EQ(col.KindAt(1), Value::Kind::kNull);
}

TEST(ColumnVectorTest, DegenerifiesOnKindMix) {
  ColumnVector col;
  col.AppendInt(42);
  col.AppendString("hi");
  EXPECT_EQ(col.tag(), ColumnVector::Tag::kGeneric);
  EXPECT_EQ(col.GetValue(0), Value::Int(42));
  EXPECT_EQ(col.GetValue(1), Value::String("hi"));
}

TEST(ColumnVectorTest, AppendRangeCopiesValuesAndValidity) {
  ColumnVector src;
  src.AppendDouble(1.5);
  src.AppendNull();
  src.AppendDouble(2.5);
  src.AppendDouble(3.5);

  ColumnVector dst;
  dst.AppendRange(src, 1, 3);  // null, 2.5, 3.5
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_TRUE(dst.IsNull(0));
  EXPECT_EQ(dst.GetValue(1), Value::Double(2.5));
  EXPECT_EQ(dst.GetValue(2), Value::Double(3.5));

  // Range append onto a column with a conflicting tag must degenerify,
  // not corrupt.
  ColumnVector mixed;
  mixed.AppendString("s");
  mixed.AppendRange(src, 0, 2);
  ASSERT_EQ(mixed.size(), 3u);
  EXPECT_EQ(mixed.GetValue(0), Value::String("s"));
  EXPECT_EQ(mixed.GetValue(1), Value::Double(1.5));
  EXPECT_TRUE(mixed.IsNull(2));
}

TEST(ColumnVectorTest, AppendSelectedGathers) {
  ColumnVector src;
  for (int i = 0; i < 6; ++i) src.AppendInt(i * 10);
  Selection sel = {5, 0, 3};
  ColumnVector dst;
  dst.AppendSelected(src, sel);
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst.IntAt(0), 50);
  EXPECT_EQ(dst.IntAt(1), 0);
  EXPECT_EQ(dst.IntAt(2), 30);
}

TEST(ColumnVectorTest, TruncateMaintainsNullCount) {
  ColumnVector col;
  col.AppendInt(1);
  col.AppendNull();
  col.AppendNull();
  col.Truncate(2);
  EXPECT_EQ(col.size(), 2u);
  EXPECT_FALSE(col.AllValid());
  col.Truncate(1);
  EXPECT_TRUE(col.AllValid());
}

TEST(DataChunkTest, RowRoundTripWithNulls) {
  DataChunk chunk(3);
  chunk.AppendRow({Value::String("a"), Value::Null(), Value::Double(4.0)});
  chunk.AppendRow({Value::String("b"), Value::Int(2), Value::Null()});
  ASSERT_EQ(chunk.size(), 2u);
  Row r0 = chunk.GetRow(0);
  EXPECT_EQ(r0[0], Value::String("a"));
  EXPECT_EQ(r0[1], Value::Null());
  EXPECT_EQ(r0[2], Value::Double(4.0));
  Row r1 = chunk.GetRow(1);
  EXPECT_EQ(r1[1], Value::Int(2));
  EXPECT_EQ(r1[2], Value::Null());
}

TEST(DataChunkTest, ZeroColumnChunkCarriesCardinality) {
  DataChunk chunk(0);
  chunk.SetCardinality(5);
  EXPECT_EQ(chunk.size(), 5u);
  EXPECT_EQ(chunk.num_columns(), 0u);
  chunk.Reset(0);
  EXPECT_TRUE(chunk.empty());
}

TEST(DataChunkTest, AppendSelectedGathersRows) {
  DataChunk src(2);
  for (int i = 0; i < 4; ++i) {
    src.AppendRow({Value::Int(i), Value::String(std::to_string(i))});
  }
  DataChunk dst(2);
  dst.AppendSelected(src, {3, 1});
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_EQ(dst.GetRow(0)[0], Value::Int(3));
  EXPECT_EQ(dst.GetRow(1)[1], Value::String("1"));
}

// FilterSelection compares `col <op> literal` and `literal <op> col`
// straight off the typed column. It must keep exactly the rows the generic
// path keeps (EvalScalarBatch's materialized CompareBatch, then TRUE-only
// selection) and the row-at-a-time evaluator accepts, over NULL-heavy
// typed columns, generic mixed-kind columns, an all-NULL column, int vs
// double promotion, NaN, a NULL literal, all six operators on either side
// and partial input selections.
TEST(FilterKernelTest, ColumnVsLiteralMatchesGenericPath) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // 2^53 + 1 is not representable as a double: int vs int stays exact.
  const int64_t big = (int64_t{1} << 53) + 1;
  std::mt19937_64 rng(20041);
  auto pick = [&rng](const std::vector<Value>& pool) {
    std::uniform_int_distribution<size_t> index(0, pool.size() - 1);
    return pool[index(rng)];
  };
  // Columns 0-3 are typed (int, double, string, bool), column 4 mixes
  // kinds and degrades to generic storage, column 5 is all NULL (stays
  // untyped) and column 6 is a fully valid int column.
  const std::vector<std::vector<Value>> column_pools = {
      {Value::Null(), Value::Int(-2), Value::Int(0), Value::Int(3),
       Value::Int(7), Value::Int(big), Value::Int(big - 1)},
      {Value::Null(), Value::Double(-0.0), Value::Double(2.5),
       Value::Double(3.0), Value::Double(nan), Value::Double(1e300)},
      {Value::Null(), Value::String(""), Value::String("a"),
       Value::String("ab"), Value::String("b")},
      {Value::Null(), Value::Bool(false), Value::Bool(true)},
      {Value::Null(), Value::Int(3), Value::Double(3.0), Value::Double(nan),
       Value::String("a"), Value::Bool(true)},
      {Value::Null()},
      {Value::Int(1), Value::Int(3)}};
  const std::vector<Value> literals = {
      Value::Null(), Value::Int(3), Value::Int(-2), Value::Int(big - 1),
      Value::Double(3.0), Value::Double(2.5), Value::Double(nan),
      Value::Double(static_cast<double>(big - 1)), Value::String("a"),
      Value::String(""), Value::Bool(true), Value::Bool(false)};
  const std::vector<sql::BinOp> ops = {sql::BinOp::kEq, sql::BinOp::kNe,
                                       sql::BinOp::kLt, sql::BinOp::kLe,
                                       sql::BinOp::kGt, sql::BinOp::kGe};

  constexpr size_t kRows = 300;
  DataChunk chunk(column_pools.size());
  std::vector<Row> rows;
  for (size_t r = 0; r < kRows; ++r) {
    Row row;
    for (const auto& pool : column_pools) {
      // NULL-heavy: pools that hold NULL draw it about 40% of the time.
      bool null = pool[0].is_null() &&
                  std::uniform_int_distribution<int>(0, 4)(rng) < 2;
      row.push_back(null ? Value::Null() : pick(pool));
    }
    chunk.AppendRow(row);
    rows.push_back(std::move(row));
  }
  ASSERT_EQ(chunk.column(0).tag(), ColumnVector::Tag::kInt);
  ASSERT_EQ(chunk.column(1).tag(), ColumnVector::Tag::kDouble);
  ASSERT_EQ(chunk.column(2).tag(), ColumnVector::Tag::kString);
  ASSERT_EQ(chunk.column(3).tag(), ColumnVector::Tag::kBool);
  ASSERT_EQ(chunk.column(4).tag(), ColumnVector::Tag::kGeneric);
  ASSERT_EQ(chunk.column(5).tag(), ColumnVector::Tag::kUntyped);
  ASSERT_TRUE(chunk.column(6).AllValid());

  std::vector<Selection> selections(3);
  exec::IdentitySelection(kRows, &selections[0]);
  for (uint32_t r = 0; r < kRows; r += 3) selections[1].push_back(r);
  for (uint32_t r = 1; r < kRows; r += 7) selections[2].push_back(r);

  for (size_t c = 0; c < column_pools.size(); ++c) {
    for (const Value& lit : literals) {
      for (sql::BinOp op : ops) {
        for (bool lit_left : {false, true}) {
          algebra::ScalarPtr col = algebra::MakeColumn(static_cast<int>(c));
          algebra::ScalarPtr val = algebra::MakeLiteralScalar(lit);
          algebra::ScalarPtr p = lit_left
                                     ? algebra::MakeBinaryScalar(op, val, col)
                                     : algebra::MakeBinaryScalar(op, col, val);
          for (const Selection& input : selections) {
            Selection kernel = input;
            ASSERT_TRUE(exec::FilterSelection({p}, chunk, &kernel).ok());
            ColumnVector truth;
            ASSERT_TRUE(exec::EvalScalarBatch(p, chunk, input, &truth).ok());
            Selection generic;
            for (size_t i = 0; i < input.size(); ++i) {
              std::optional<bool> t = exec::TruthAt(truth, i);
              if (t.has_value() && *t) generic.push_back(input[i]);
            }
            Selection rowwise;
            for (uint32_t r : input) {
              auto pass = algebra::EvalPredicate(p, rows[r]);
              ASSERT_TRUE(pass.ok());
              if (pass.value()) rowwise.push_back(r);
            }
            ASSERT_EQ(kernel, generic)
                << "column " << c << " literal " << lit.ToString() << " op "
                << static_cast<int>(op) << (lit_left ? " (literal left)" : "");
            ASSERT_EQ(kernel, rowwise)
                << "column " << c << " literal " << lit.ToString();
          }
        }
      }
    }
  }
}

class ExecChunkQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The paper's university tables are NOT NULL throughout, so this
    // fixture builds a nullable mirror of the same schema (same table and
    // column names — QueryGenerator works unchanged) and loads NULL-heavy
    // data: 3VL must behave identically in both engines.
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      create table students (
        student-id varchar not null primary key,
        name varchar,
        type varchar
      );
      create table courses (
        course-id varchar not null primary key,
        name varchar
      );
      create table registered (
        student-id varchar not null,
        course-id varchar not null,
        primary key (student-id, course-id)
      );
      create table grades (
        student-id varchar not null,
        course-id varchar not null,
        grade double,
        primary key (student-id, course-id)
      );
      insert into students values
        ('11', 'alice', 'fulltime'),
        ('12', 'bob', 'fulltime'),
        ('13', 'carol', 'parttime'),
        ('14', 'dave', 'parttime'),
        ('15', null, 'fulltime'),
        ('16', 'frank', null),
        ('17', null, null);
      insert into courses values
        ('cs101', 'intro programming'),
        ('cs202', 'databases'),
        ('ee150', null);
      insert into registered values
        ('11', 'cs101'), ('11', 'cs202'), ('12', 'cs101'), ('12', 'ee150'),
        ('13', 'cs202'), ('15', 'cs101'), ('16', 'ee150'), ('17', 'cs202');
      insert into grades values
        ('11', 'cs101', 4.0),
        ('12', 'cs101', 3.0),
        ('11', 'cs202', 3.5),
        ('13', 'cs202', 2.0),
        ('15', 'cs101', null),
        ('16', 'ee150', null),
        ('17', 'cs202', null);
    )sql")
                    .ok());
  }

  algebra::PlanPtr MustBind(const std::string& sql) {
    auto stmt = sql::Parser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    algebra::Binder binder(db_.catalog(), {});
    auto plan = binder.BindSelect(*stmt.value());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.value();
  }

  core::Database db_;
};

// Satellite regression for the ScanOp borrowed-pointer contract: a drained
// physical tree must be re-Open()able and produce identical results, and
// Next() past exhaustion must keep returning false with an empty chunk.
TEST_F(ExecChunkQueryTest, ReopeningDrainedPlanReplaysResults) {
  algebra::PlanPtr plan = MustBind(
      "select s.student-id, g.grade from students s, grades g "
      "where s.student-id = g.student-id");
  auto root = exec::BuildPhysicalPlan(plan, db_.state());
  ASSERT_TRUE(root.ok()) << root.status().ToString();

  auto drain = [&]() {
    std::vector<Row> rows;
    DataChunk chunk;
    while (true) {
      auto more = root.value()->Next(chunk);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.value()) break;
      EXPECT_FALSE(chunk.empty());
      for (size_t i = 0; i < chunk.size(); ++i) rows.push_back(chunk.GetRow(i));
    }
    return rows;
  };

  ASSERT_TRUE(root.value()->Open().ok());
  std::vector<Row> first = drain();
  EXPECT_FALSE(first.empty());

  // Past exhaustion: still false, still empty.
  DataChunk chunk;
  auto more = root.value()->Next(chunk);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
  EXPECT_TRUE(chunk.empty());

  // Re-open and drain again: the borrow of table storage is still live, so
  // the replay must match exactly.
  ASSERT_TRUE(root.value()->Open().ok());
  std::vector<Row> second = drain();

  storage::Relation a({"sid", "grade"});
  storage::Relation b({"sid", "grade"});
  for (Row& r : first) a.AddRow(std::move(r));
  for (Row& r : second) b.AddRow(std::move(r));
  EXPECT_TRUE(a.MultisetEquals(b))
      << "first:\n" << SortedRowsToString(a)
      << "second:\n" << SortedRowsToString(b);
}

TEST_F(ExecChunkQueryTest, NullComparisonsMatchReference) {
  // Hand-picked 3VL shapes: NULL-valued filters, IS NULL, NULL in
  // aggregates, NULL join keys.
  const char* kQueries[] = {
      "select name from students where name = 'frank'",
      "select student-id from students where name <> 'alice'",
      "select student-id from students where name is null",
      "select student-id from students where type is not null",
      "select student-id, grade from grades where grade >= 3.0",
      "select student-id from grades where grade is null",
      "select count(grade), count(*) from grades",
      "select course-id, min(grade), max(grade) from grades group by course-id",
      "select s.name, g.grade from students s, grades g "
      "where s.name = g.student-id",
      "select student-id from students where name in ('frank', 'alice')",
      "select student-id from students where not (name = 'frank')",
      "select distinct grade from grades",
  };
  for (const char* sql : kQueries) {
    algebra::PlanPtr plan = MustBind(sql);
    auto reference = algebra::ReferenceEval(plan, db_.state());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString()
                                << "\nsql: " << sql;
    auto physical = exec::ExecutePlan(plan, db_.state());
    ASSERT_TRUE(physical.ok()) << physical.status().ToString()
                               << "\nsql: " << sql;
    EXPECT_TRUE(physical.value().MultisetEquals(reference.value()))
        << "mismatch\nsql: " << sql << "\nreference:\n"
        << SortedRowsToString(reference.value()) << "physical:\n"
        << SortedRowsToString(physical.value());
  }
}

// The headline differential property: 1000+ generated queries over the
// NULL-heavy dataset, vectorized executor vs reference evaluator.
TEST_F(ExecChunkQueryTest, DifferentialVsReferenceOnGeneratedQueries) {
  int executed = 0;
  for (uint32_t seed = 1; seed <= 30; ++seed) {
    QueryGenerator gen(seed);
    for (int i = 0; i < 40; ++i) {
      std::string sql = gen.NextQuery();
      auto stmt = sql::Parser::ParseSelect(sql);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString() << "\nsql: " << sql;
      algebra::Binder binder(db_.catalog(), {});
      auto plan = binder.BindSelect(*stmt.value());
      if (!plan.ok()) {
        // The generator can produce ambiguous references; skip those.
        ASSERT_EQ(plan.status().code(), StatusCode::kBindError)
            << plan.status().ToString() << "\nsql: " << sql;
        continue;
      }
      auto reference = algebra::ReferenceEval(plan.value(), db_.state());
      ASSERT_TRUE(reference.ok()) << reference.status().ToString()
                                  << "\nsql: " << sql;
      auto physical = exec::ExecutePlan(plan.value(), db_.state());
      ASSERT_TRUE(physical.ok()) << physical.status().ToString()
                                 << "\nsql: " << sql;
      ASSERT_TRUE(physical.value().MultisetEquals(reference.value()))
          << "engine mismatch\nsql: " << sql << "\nreference:\n"
          << SortedRowsToString(reference.value()) << "physical:\n"
          << SortedRowsToString(physical.value());
      ++executed;
    }
  }
  EXPECT_GE(executed, 1000) << "generator rejected too many queries";
}

}  // namespace
}  // namespace fgac

// Tests of the benchmark itself: the percentile helper, seed determinism
// of data and statement streams, and the oracle's ability to catch a
// corrupted answer and a flipped verdict. Run with
// `python3 perfbench/run.py --self-test`.

#include <gtest/gtest.h>

#include "oracle.h"
#include "runner.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(Percentile, QuantileInterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4, 5}, 1.0), 5.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(999), 95.0);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(200), 95.0);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(199), 90.0);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(40), 75.0);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(20), 50.0);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(19), 0.0);
}

TEST(Fingerprint, OrderInsensitiveAndRoundsFloatingPoint) {
  std::vector<fgac::Row> a = {{fgac::Value::String("x"), fgac::Value::Double(0.1 + 0.2)},
                              {fgac::Value::String("y"), fgac::Value::Int(3)}};
  std::vector<fgac::Row> b = {{fgac::Value::String("y"), fgac::Value::Double(3.0)},
                              {fgac::Value::String("x"), fgac::Value::Double(0.3)}};
  EXPECT_EQ(FingerprintOf(a), FingerprintOf(b));
  b[0][0] = fgac::Value::String("z");
  EXPECT_NE(FingerprintOf(a), FingerprintOf(b));
}

std::vector<std::string> StreamSql(const Workload& wl, const Env& env,
                                   uint64_t seed, int steps) {
  std::vector<std::string> out;
  for (int c = 0; c < wl.clients(); ++c) {
    ClientStream s(seed, c);
    for (int i = 0; i < steps; ++i) {
      for (const Stmt& st : wl.Next(env, s).stmts) out.push_back(st.sql);
    }
  }
  return out;
}

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, SameSeedGivesSameDataAndStream) {
  std::unique_ptr<Workload> wl = MakeWorkload(GetParam());
  ASSERT_NE(wl, nullptr);
  std::unique_ptr<Env> a = wl->Setup(7);
  std::unique_ptr<Env> b = wl->Setup(7);
  std::unique_ptr<Env> c = wl->Setup(8);
  for (const char* t : {"students", "registered", "grades"}) {
    EXPECT_EQ(FingerprintOf(a->db->state().GetTable(t)->rows()),
              FingerprintOf(b->db->state().GetTable(t)->rows()));
  }
  EXPECT_NE(FingerprintOf(a->db->state().GetTable("registered")->rows()),
            FingerprintOf(c->db->state().GetTable("registered")->rows()));
  EXPECT_EQ(StreamSql(*wl, *a, 7, 50), StreamSql(*wl, *b, 7, 50));
  EXPECT_NE(StreamSql(*wl, *a, 7, 50), StreamSql(*wl, *a, 8, 50));
}

TEST_P(WorkloadTest, ShortRunPassesTheOracle) {
  std::unique_ptr<Workload> wl = MakeWorkload(GetParam());
  std::unique_ptr<Env> env = wl->Setup(3);
  auto tables = WrittenTableFingerprints(*env);
  std::vector<ClientStream> streams;
  for (int c = 0; c < wl->clients(); ++c) streams.emplace_back(3, c);
  LoopOutput run = RunClosedLoop(*wl, *env, streams, 0.5);
  ASSERT_FALSE(run.executed.empty());
  OracleReport report = CheckOutcomes(*env, wl->templates(), run.executed, tables);
  EXPECT_EQ(report.failed(), 0) << (report.samples.empty() ? "" : report.samples[0]);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadTest,
                         ::testing::Values("portal", "policy", "analytics",
                                           "enroll"));

/// Runs a short enroll loop at the measured data size and keeps its
/// statements, which pass the oracle.
struct EnrollRun {
  std::unique_ptr<Workload> wl = MakeWorkload("enroll");
  std::unique_ptr<Env> env = wl->Setup(5);
  std::map<std::string, Fingerprint> tables = WrittenTableFingerprints(*env);
  std::vector<Executed> executed;

  EnrollRun() {
    std::vector<ClientStream> streams;
    streams.emplace_back(5, 0);
    executed = RunClosedLoop(*wl, *env, streams, 1.0).executed;
  }
  OracleReport Check() {
    return CheckOutcomes(*env, wl->templates(), executed, tables);
  }
  Executed* First(Op op, Verdict verdict) {
    for (Executed& e : executed) {
      const Template& t = wl->templates()[static_cast<size_t>(e.stmt.tmpl)];
      if (t.op == op && t.verdict == verdict) return &e;
    }
    return nullptr;
  }
};

TEST(Oracle, FlagsCorruptedAnswer) {
  EnrollRun run;
  ASSERT_EQ(run.Check().failed(), 0);
  Executed* read = run.First(Op::kRead, Verdict::kAccept);
  ASSERT_NE(read, nullptr);
  read->answer.Add(fgac::Row{fgac::Value::String("forged")});
  OracleReport report = run.Check();
  EXPECT_EQ(report.wrong_answers, 1);
  EXPECT_EQ(report.failed(), 1);
}

TEST(Oracle, FlagsFlippedVerdicts) {
  EnrollRun run;
  Executed* refused = run.First(Op::kWrite, Verdict::kRefuse);
  Executed* accepted = run.First(Op::kRead, Verdict::kAccept);
  ASSERT_NE(refused, nullptr);
  ASSERT_NE(accepted, nullptr);
  refused->code = fgac::StatusCode::kOk;
  accepted->code = fgac::StatusCode::kNotAuthorized;
  OracleReport report = run.Check();
  EXPECT_EQ(report.wrong_verdicts, 2);
}

TEST(Oracle, FlagsWrongWriteCount) {
  EnrollRun run;
  Executed* write = run.First(Op::kWrite, Verdict::kAccept);
  ASSERT_NE(write, nullptr);
  write->affected += 1;
  EXPECT_EQ(run.Check().wrong_writes, 1);
}

}  // namespace
}  // namespace perfbench

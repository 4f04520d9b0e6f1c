#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "storage/table_data.h"

namespace perfbench {

namespace {

constexpr size_t kMaxSamples = 8;

void Note(OracleReport* report, const Executed& e, const std::string& what) {
  if (report->samples.size() >= kMaxSamples) return;
  std::string msg = what + ": " + e.stmt.sql;
  if (!e.error.empty()) msg += " -> " + e.error;
  report->samples.push_back(std::move(msg));
}

/// Admin-mode answers of `sqls`, computed on a few threads (reads only).
std::map<std::string, fgac::Result<Fingerprint>> AdminAnswers(
    fgac::core::Database* db, const std::vector<std::string>& sqls) {
  std::vector<fgac::Result<Fingerprint>> out(
      sqls.size(), fgac::Result<Fingerprint>(fgac::Status::Internal("unset")));
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next++; i < sqls.size(); i = next++) {
      auto r = db->ExecuteAsAdmin(sqls[i]);
      if (r.ok()) {
        out[i] = FingerprintOf(r.value().relation);
      } else {
        out[i] = r.status();
      }
    }
  };
  size_t n = std::min(HardwareThreads(), std::max<size_t>(1, sqls.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  std::map<std::string, fgac::Result<Fingerprint>> answers;
  for (size_t i = 0; i < sqls.size(); ++i) answers.emplace(sqls[i], out[i]);
  return answers;
}

}  // namespace

std::map<std::string, Fingerprint> WrittenTableFingerprints(const Env& env) {
  std::map<std::string, Fingerprint> out;
  for (const std::string& t : env.written_tables) {
    out[t] = FingerprintOf(env.db->state().GetTable(t)->rows());
  }
  return out;
}

OracleReport CheckOutcomes(Env& env, const std::vector<Template>& templates,
                           const std::vector<Executed>& executed,
                           const std::map<std::string, Fingerprint>& tables) {
  OracleReport report;
  std::vector<std::string> sqls;
  for (const Executed& e : executed) {
    const Template& t = templates[static_cast<size_t>(e.stmt.tmpl)];
    if (t.op == Op::kRead && t.verdict == Verdict::kAccept &&
        e.code == fgac::StatusCode::kOk) {
      sqls.push_back(e.stmt.oracle_sql);
    }
  }
  std::sort(sqls.begin(), sqls.end());
  sqls.erase(std::unique(sqls.begin(), sqls.end()), sqls.end());
  auto answers = AdminAnswers(env.db.get(), sqls);

  for (const Executed& e : executed) {
    const Template& t = templates[static_cast<size_t>(e.stmt.tmpl)];
    bool refused = e.code == fgac::StatusCode::kNotAuthorized;
    if (t.verdict == Verdict::kRefuse) {
      if (e.code == fgac::StatusCode::kOk) {
        ++report.wrong_verdicts;
        Note(&report, e, "accepted, policy requires refusal");
      } else if (!refused) {
        ++report.unexpected_errors;
        Note(&report, e, "unexpected error");
      }
      continue;
    }
    if (refused) {
      ++report.wrong_verdicts;
      Note(&report, e, "refused, policy requires acceptance");
      continue;
    }
    if (e.code != fgac::StatusCode::kOk) {
      ++report.unexpected_errors;
      Note(&report, e, "unexpected error");
      continue;
    }
    if (t.op == Op::kWrite) {
      if (e.affected != e.stmt.expect_affected) {
        ++report.wrong_writes;
        Note(&report, e,
             "changed " + std::to_string(e.affected) + " rows, expected " +
                 std::to_string(e.stmt.expect_affected));
      }
      continue;
    }
    const fgac::Result<Fingerprint>& admin = answers.at(e.stmt.oracle_sql);
    if (!admin.ok()) {
      ++report.unexpected_errors;
      Note(&report, e, "admin oracle failed: " + admin.status().ToString());
      continue;
    }
    Fingerprint expected = admin.value();
    expected.Add(FingerprintOf(e.stmt.extra_rows));
    if (expected != e.answer) {
      ++report.wrong_answers;
      Note(&report, e,
           "answer differs from the admin answer (" +
               std::to_string(e.answer.rows) + " rows vs " +
               std::to_string(expected.rows) + ")");
    }
  }

  for (const auto& [table, before] : tables) {
    Fingerprint now = FingerprintOf(env.db->state().GetTable(table)->rows());
    if (now != before) {
      ++report.table_mismatches;
      if (report.samples.size() < kMaxSamples) {
        report.samples.push_back("table '" + table +
                                 "' does not hold its loaded rows");
      }
    }
  }
  return report;
}

}  // namespace perfbench

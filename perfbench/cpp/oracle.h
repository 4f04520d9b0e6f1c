#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

/// One statement as the closed loop ran it.
struct Executed {
  Stmt stmt;
  double ms = 0.0;
  fgac::StatusCode code = fgac::StatusCode::kOk;
  std::string error;
  /// Fingerprint of the answer (reads that succeeded).
  Fingerprint answer;
  int64_t affected = 0;
};

/// Mismatches found by CheckOutcomes. Every one counts as a failed
/// statement.
struct OracleReport {
  int64_t wrong_verdicts = 0;
  int64_t wrong_answers = 0;
  int64_t wrong_writes = 0;
  int64_t unexpected_errors = 0;
  /// Written tables that do not hold their loaded rows at the end.
  int64_t table_mismatches = 0;
  /// The first few mismatches, for the log.
  std::vector<std::string> samples;

  int64_t failed() const {
    return wrong_verdicts + wrong_answers + wrong_writes + unexpected_errors +
           table_mismatches;
  }
};

/// Fingerprints of the tables the workload writes, taken after set-up.
std::map<std::string, Fingerprint> WrittenTableFingerprints(const Env& env);

/// Checks every executed statement against the verdict its template
/// requires and, for accepted statements, against the expected answer or
/// row count. Expected answers come from admin-mode runs of each distinct
/// `oracle_sql` on the loaded data (run here, outside any timed region), plus
/// the statement's `extra_rows`. Also checks that written tables hold their
/// loaded rows again.
OracleReport CheckOutcomes(Env& env, const std::vector<Template>& templates,
                           const std::vector<Executed>& executed,
                           const std::map<std::string, Fingerprint>& tables);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_

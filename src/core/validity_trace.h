#ifndef FGAC_CORE_VALIDITY_TRACE_H_
#define FGAC_CORE_VALIDITY_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fgac::core {

/// One step of the Non-Truman enforcement decision: an inference rule
/// firing, a batch of C3 database probes, a cache consultation, or the
/// final verdict / degradation. Collected in order, so the event list IS
/// the audit trail of why a query was admitted, rejected or degraded.
struct ValidityTraceEvent {
  enum class Kind {
    kCacheHit,    // verdict served from the prepared-statement cache
    kCacheMiss,   // cache consulted, inference had to run
    kRuleFired,   // an inference rule marked a DAG group valid
    kProbeBatch,  // C3a/C3b/CAgg visible-non-emptiness probes executed
    kExpansion,   // DAG expansion summary (passes, pruning, frontier, rounds)
    kVerdict,     // final accept/reject of the validity test
    kDegraded,    // budget blown; answer produced by the Truman rewriter
  };

  Kind kind = Kind::kRuleFired;
  /// Rule identifier for kRuleFired ("U1", "U2", "U3a/U3b", "C3a/C3b", ...):
  /// the justification's leading token, so tests can assert sequences.
  std::string rule;
  /// Free-form context: matched view / constraint for rules, reject or
  /// degradation reason for verdicts.
  std::string detail;
  /// kProbeBatch: the probe plans, rendered one-line, '; '-separated.
  std::string probe_sql;
  /// kProbeBatch: probes executed / how many of those were visibly
  /// non-empty (each probe is a LIMIT-1 query, so rows returned ==
  /// non-empty count) / requests answered by the check's probe memo (a
  /// plan already probed earlier in the check or repeated in the batch).
  uint64_t probes = 0;
  uint64_t probe_rows = 0;
  uint64_t probes_memoized = 0;
  /// kVerdict / kDegraded: guard budget consumed when the event fired.
  uint64_t guard_rows = 0;
  uint64_t guard_bytes = 0;
  /// kVerdict: the outcome.
  bool valid = false;
  bool unconditional = false;
  /// Microseconds since the trace began.
  int64_t at_us = 0;

  static const char* KindName(Kind kind);
};

/// Append-only recording of one validity decision. Owned by the query that
/// requested tracing (EXPLAIN ANALYZE or a profiling session); the
/// ValidityChecker writes into it through a borrowed pointer, single
/// threaded — probe batches are recorded by the coordinating thread, never
/// from inside the probe workers.
class ValidityTrace {
 public:
  ValidityTrace() : start_(std::chrono::steady_clock::now()) {}

  void Add(ValidityTraceEvent event) {
    event.at_us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    events_.push_back(std::move(event));
  }

  const std::vector<ValidityTraceEvent>& events() const { return events_; }

  /// Rule ids of the kRuleFired events, in firing order.
  std::vector<std::string> RuleSequence() const;

  /// True if some kRuleFired event carries `rule` as its identifier.
  bool FiredRule(const std::string& rule) const;

  /// Total executed probes across every kProbeBatch event.
  uint64_t TotalProbes() const;

  /// One JSON object per line, one line per event (audit-log format).
  std::string ToJsonLines() const;

  /// Human-readable one-line-per-event rendering for EXPLAIN ANALYZE.
  std::string ToText() const;

 private:
  std::chrono::steady_clock::time_point start_;
  std::vector<ValidityTraceEvent> events_;
};

}  // namespace fgac::core

#endif  // FGAC_CORE_VALIDITY_TRACE_H_

#ifndef FGAC_EXEC_EXEC_STATS_H_
#define FGAC_EXEC_EXEC_STATS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "algebra/plan.h"
#include "exec/operators.h"

namespace fgac::exec {

/// Per-plan-node execution counters. One OpStats instance is shared by
/// every physical operator instantiated for the same logical node — in a
/// parallel plan each worker's pipeline operator charges the same node —
/// so all fields are relaxed atomics and never tear.
struct OpStats {
  std::string label;
  std::atomic<uint64_t> rows_out{0};
  std::atomic<uint64_t> chunks{0};
  /// Inclusive wall time (operator + its inputs), summed across workers.
  std::atomic<uint64_t> nanos{0};
  std::atomic<uint64_t> opens{0};
};

/// One pipeline of the executed DAG, as surfaced by EXPLAIN ANALYZE: what
/// kind of pipeline it was, how many scheduler tasks (workers) it fanned
/// out to, what it produced, how much summed wall time its tasks took, and
/// which pipelines it waited on.
struct PipelineStat {
  /// "build" / "scan" / "merge" / "serial".
  std::string kind;
  /// Anchor operator label ("Scan(grades)", "Join", "Aggregate").
  std::string label;
  /// Indices of the pipelines this one depended on.
  std::vector<size_t> deps;
  size_t tasks = 0;
  uint64_t rows = 0;
  /// Summed task wall time (a 4-task pipeline busy for 1ms reports 4ms).
  uint64_t nanos = 0;
  /// True when the scheduler released the pipeline after a DAG abort
  /// without ever starting its tasks.
  bool cancelled = false;
};

/// Profile of one query execution: a stats node per logical plan node plus
/// pipeline-level data (worker morsel counts, pipeline DAG stats, phase
/// timings). Allocated only when profiling is requested (EXPLAIN ANALYZE
/// or SessionContext::set_profile), so the metrics-off hot path never
/// touches any of this.
class ExecStats {
 public:
  /// Returns the stats node for `node`, creating it on first use. Safe to
  /// call concurrently from parallel pipeline builders.
  OpStats* NodeFor(const algebra::Plan* node);

  /// Returns the node's stats or nullptr if it never executed.
  const OpStats* Find(const algebra::Plan* node) const;

  /// Pre-sizes the per-worker morsel counters and records the fan-out.
  void SetThreads(size_t n);
  size_t threads() const { return threads_; }

  /// Exclusive slot for worker `t`'s morsel count (single writer; read
  /// after the fan-out joins). SetThreads must have been called first.
  uint64_t* worker_morsel_slot(size_t t) { return &worker_morsels_[t]; }
  const std::vector<uint64_t>& worker_morsels() const {
    return worker_morsels_;
  }

  /// Adds `n` morsels to worker slot `t` under the lock — the safe variant
  /// for pipeline tasks, where scan sets of different fragments (UNION ALL
  /// branches) may run concurrently and share slot indices.
  void AddWorkerMorsels(size_t t, uint64_t n);

  /// Appends one pipeline's stats (called as the DAG settles, in pipeline
  /// id order). Safe against a concurrent reader.
  void AddPipelineStat(PipelineStat stat);
  /// Copy of the executed pipeline DAG's stats, index == pipeline id.
  std::vector<PipelineStat> pipeline_stats() const;

  /// The plan that actually ran (post-optimizer / post-rewrite); keeps the
  /// nodes the stats map points at alive for rendering.
  void SetExecutedPlan(algebra::PlanPtr plan) { plan_ = std::move(plan); }
  const algebra::PlanPtr& executed_plan() const { return plan_; }

  // Phase wall times, recorded by the Database facade.
  void set_validity_nanos(uint64_t n) { validity_nanos_ = n; }
  void set_optimize_nanos(uint64_t n) { optimize_nanos_ = n; }
  void set_exec_nanos(uint64_t n) { exec_nanos_ = n; }
  uint64_t validity_nanos() const { return validity_nanos_; }
  uint64_t optimize_nanos() const { return optimize_nanos_; }
  uint64_t exec_nanos() const { return exec_nanos_; }

  /// EXPLAIN ANALYZE rendering: the executed plan annotated per operator
  /// with rows / chunks / inclusive time, preceded by phase, worker and
  /// pipeline summary lines.
  std::string Render() const;

 private:
  mutable std::mutex mu_;  // guards the map shape; values are atomic
  std::unordered_map<const algebra::Plan*, std::unique_ptr<OpStats>> nodes_;
  algebra::PlanPtr plan_;
  size_t threads_ = 1;
  std::vector<uint64_t> worker_morsels_;
  std::vector<PipelineStat> pipelines_;
  uint64_t validity_nanos_ = 0;
  uint64_t optimize_nanos_ = 0;
  uint64_t exec_nanos_ = 0;
};

/// Short operator label for a plan node ("Scan(grades)", "HashAggregate").
std::string PlanNodeLabel(const algebra::Plan& node);

/// Transparent instrumentation decorator: forwards Open/Next to `child`,
/// charging wall time, chunk and row counts to the shared `stats` node.
/// Only instantiated when an ExecStats is attached to the build, so
/// un-profiled execution pays nothing.
class StatsOp final : public Operator {
 public:
  StatsOp(OpStats* stats, OperatorPtr child)
      : stats_(stats), child_(std::move(child)) {}
  Status Open() override;
  Result<bool> Next(DataChunk& out) override;

 private:
  OpStats* stats_;
  OperatorPtr child_;
};

}  // namespace fgac::exec

#endif  // FGAC_EXEC_EXEC_STATS_H_

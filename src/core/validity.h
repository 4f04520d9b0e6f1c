#ifndef FGAC_CORE_VALIDITY_H_
#define FGAC_CORE_VALIDITY_H_

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/plan.h"
#include "catalog/catalog.h"
#include "common/query_guard.h"
#include "common/result.h"
#include "common/trace.h"
#include "core/auth_view.h"
#include "core/validity_trace.h"
#include "exec/scheduler.h"
#include "optimizer/memo.h"
#include "optimizer/rules.h"
#include "storage/database_state.h"
#include "storage/relation.h"

namespace fgac::core {

/// Configuration of the Non-Truman validity test (paper Section 5).
struct ValidityOptions {
  /// U3a/U3b/U3c — inferring the validity of subexpressions from integrity
  /// constraints (Section 5.3). Requires applying equivalence rules to the
  /// authorization views as well as the query (Section 5.6.3), which is the
  /// expensive mode the paper's optimization discussion targets.
  bool enable_complex_rules = true;
  /// C3a/C3b — conditional validity (Section 5.4). Needs the current
  /// database state to test the visible non-emptiness of v_r.
  bool enable_conditional_rules = true;
  /// Access-pattern view instantiation and the dependent-join rule
  /// (Section 6).
  bool enable_access_patterns = true;
  /// The paper's Section 5.6.2 FUTURE-WORK case, implemented here:
  /// "Given the set of views V = {A⋈B, B⋈C}, a query A⋈B⋈C can be
  /// rewritten completely using the views only if we decompose the query
  /// as (A⋈B)⋈(B⋈C). Volcano does not generate such query plans ...
  /// Extending the algorithm to handle such cases is a topic of future
  /// work." When enabled, the engine adds the redundant decomposition
  /// (A⋈B) ⋈_{B.pk} (B⋈C) for keyed middle relations. Disable to match
  /// the paper's published behaviour exactly.
  bool enable_redundant_join_decomposition = true;
  /// Section 5.6 optimization: eliminate views that cannot possibly help.
  bool prune_views = true;
  /// Demand-driven complex-mode expansion: the proof frontier is seeded
  /// from the query root and the valid view roots, dominated (already
  /// valid) groups stop expanding, join associativity only materializes
  /// inner joins some view could cover, and expansion halts the moment the
  /// root is proved. Disable to get the exhaustive breadth-first sweep
  /// (the differential-test reference).
  bool goal_directed_search = true;
  /// Budgets for DAG expansion.
  optimizer::ExpandOptions expand;
  /// Cap on $$-instantiations tried per access-pattern view.
  size_t max_access_instantiations = 64;
  /// Cap on U3/C3 fixpoint iterations (a safety bound: the loop normally
  /// ends earlier, at the first round that changes nothing in the memo).
  size_t max_inference_rounds = 8;
  /// Threads for the C3a/C3b and C-aggregate visible-non-emptiness probes
  /// (the database probes of Section 5.4). Each inference round now
  /// collects its probe plans serially, runs them as a batch — concurrently
  /// when this is > 1 — and applies the markings serially afterwards.
  /// 0 = inherit the owning Database's `parallelism` option; standalone
  /// ValidityChecker users get serial probes at 0 or 1.
  size_t probe_parallelism = 0;
  /// Wall-clock budget for one whole validity test — inference rounds,
  /// expansion and probes together. 0 = unlimited. Exceeding it aborts
  /// Check() with kTimeout so the caller can degrade per policy.
  std::chrono::microseconds check_timeout{0};
  /// Whole-check cap on executed C3a/C3b/CAgg database probes (answers
  /// served from the check's probe memo are free). 0 = unlimited.
  /// Exceeding it aborts Check() with kResourceExhausted: these probes run
  /// extra queries before the user's query executes, so they are the
  /// validity test's unbounded-cost attack surface.
  size_t max_total_probes = 0;
  /// Execution limits applied to each individual probe (each probe is one
  /// LIMIT-1 query). A probe tripping its own limits merely counts as
  /// empty — sound, since fewer conditional markings only reject more.
  common::QueryLimits probe_limits;
  /// Byte budget for the check's memo expansion (each ExpandMemo call
  /// charges its new expressions at an approximate per-expression
  /// footprint against the whole-check guard — and through it the global
  /// MemoryTracker when one is attached). 0 = unlimited. Exceeding it
  /// aborts Check() with kResourceExhausted, which the Database degrades
  /// per DegradePolicy before giving up.
  uint64_t check_max_memory_bytes = 0;
};

/// Outcome of a validity test plus diagnostics for the benchmarks.
struct ValidityReport {
  bool valid = false;
  /// True when accepted by unconditional rules (U*); false when accepted
  /// only conditionally (C*), i.e. contingent on the current state.
  bool unconditional = false;
  /// Rule chain that justified acceptance (e.g. "U1/U2", "U3a", "C3a/C3b"),
  /// or empty on rejection.
  std::string justification;
  /// Human-readable explanation on rejection.
  std::string reason;

  // Diagnostics.
  size_t views_considered = 0;
  size_t views_pruned = 0;
  /// Total equivalence/operation nodes *created* during expansion — the
  /// work the search performed. Deliberately not the post-pruning live
  /// memo size: merged groups and deduplicated expressions still cost
  /// their insertion, and the bench gate's `expanded_exprs` column tracks
  /// that work, not the survivor count.
  size_t memo_groups = 0;
  size_t memo_exprs = 0;
  size_t expansion_passes = 0;
  /// U3/C3 inference rounds run. The loop stops at the first round that
  /// leaves the memo's change count where it found it (or when the root is
  /// proved, or at ValidityOptions::max_inference_rounds).
  size_t inference_rounds = 0;
  /// Goal-directed search: dominated (already-valid) groups whose pending
  /// rule applications were dropped, expression visits skipped (dominance,
  /// frontier unreachability, gated joins), and the deepest level the
  /// proof frontier reached below its seeds.
  size_t groups_pruned = 0;
  size_t exprs_skipped = 0;
  size_t frontier_depth = 0;
  /// Number of v_r probes executed against the database (rule C3a cond. 3).
  /// Each distinct probe plan runs at most once per check.
  size_t c3_probes = 0;
  /// Probe requests answered without touching the database: repeats of a
  /// plan already probed in this check (earlier round or same batch).
  size_t probes_memoized = 0;
  /// True when the whole-check probe cap blew during inference. The
  /// verdict (if any) was reached with the probes that did run and is
  /// sound to act on once, but it must never be cached: with budget the
  /// check could have proved more (or, for rejections, the same query may
  /// be accepted later).
  bool probe_budget_exhausted = false;
};

/// The Non-Truman validity engine: builds a Volcano AND-OR DAG containing
/// the query and the instantiated authorization views, expands it with
/// equivalence rules, and runs the inference rules of Section 5 as marking
/// passes over the DAG (Section 5.6). Sound by construction; incomplete,
/// as any such procedure must be (Section 5.5).
class ValidityChecker {
 public:
  /// `state` may be null, in which case conditional rules are disabled
  /// (no database to probe).
  ValidityChecker(const catalog::Catalog& catalog,
                  const storage::DatabaseState* state, ValidityOptions options);

  /// Attaches the executing query's guardrail: the check inherits its
  /// cancellation and never outlives its deadline, while keeping separate
  /// probe/time budgets (ValidityOptions). Call before Check().
  void set_guard(const common::QueryGuard* parent) { parent_guard_ = parent; }

  /// Attaches an audit trace (may be null = no tracing): every rule firing,
  /// probe batch and the final verdict are appended in decision order.
  /// Borrowed; must outlive Check(). Single-threaded use only.
  void set_trace(ValidityTrace* trace) { trace_ = trace; }

  /// Attaches a span context (may be null = no spans): rule firings become
  /// instant "rule.<id>" spans and each probe batch a timed
  /// "validity.probe_batch" span in the context's tracer, parented under
  /// the caller's "validity.check" span. Borrowed; must outlive Check().
  void set_span_context(const common::TraceContext* ctx) { span_ctx_ = ctx; }

  /// Session identity for fair dispatch of probe batches on the shared
  /// scheduler (probes compete with executing queries for workers; the
  /// submitting session should pay for them). Default: anonymous bucket.
  void set_dag_options(const exec::DagOptions& opts) { dag_opts_ = opts; }

  /// Tests whether `query` (a bound, normalized plan) can be answered using
  /// only the information in `views` (already instantiated for the session).
  /// Fails with kTimeout / kResourceExhausted / kCancelled when a budget
  /// trips mid-inference (see ValidityOptions and set_guard).
  Result<ValidityReport> Check(const algebra::PlanPtr& query,
                               const std::vector<InstantiatedView>& views);

  /// After a successful Check of a query admitted through U1/U2 chains,
  /// reconstructs the witness rewriting q' (Definition 4.1): a plan whose
  /// leaves are scans of pseudo-tables "view:<name>" — the instantiated
  /// authorization views. Fails (NotImplemented) when the admission used
  /// U3/C3 derivations, whose justification is not a direct rewriting.
  Result<algebra::PlanPtr> ExtractWitness() const;

  /// Executes a witness plan: materializes each instantiated view into a
  /// pseudo-table "view:<name>" over a clone of `state` and evaluates the
  /// plan against only those pseudo-tables.
  static Result<storage::Relation> ExecuteWitness(
      const algebra::PlanPtr& witness,
      const std::vector<InstantiatedView>& views,
      const storage::DatabaseState& state);

  /// The memo after Check(); exposed for tests that pin the report's
  /// created-count semantics against the live (post-pruning) counts.
  const optimizer::Memo& memo_for_testing() const { return memo_; }

 private:
  struct JoinFacet {
    optimizer::ExprId join_expr = -1;
    /// Projection list over the join output at the valid node (identity
    /// when the valid group is the join group itself).
    std::vector<algebra::ScalarPtr> proj;
  };
  struct EquiPair {
    int core_slot = 0;   // bare column on the core (left) side
    int rem_slot = 0;    // bare column on the remainder side (local slots)
  };

  void SetupExpandOptions();
  void PropagateValidity();
  // The inference rules below report nothing: Check() learns whether a
  // round derived anything from the memo's change count.
  void ApplyU3Rules();
  void ApplyC3Rules();
  /// Conditional selection over a keyed aggregate view (Example 4.2,
  /// LCAvgGrades): a selection pinning the full group key of an aggregate
  /// is conditionally valid when the same selection over a valid restriction
  /// of that aggregate is visibly non-empty.
  void ApplyCAggRules();
  /// Speculative join of a query subexpression with the destination table
  /// of an inclusion dependency (enables Example 5.4-style inferences: the
  /// introduced join may be derivable from views, and U3 then validates the
  /// original subexpression). At most 16 joins per check; only joins new to
  /// the memo count.
  void ApplyJoinIntroduction();
  /// The Section 5.6.2 future-work extension: rewrites Join(L⋈T, R) as
  /// π(σ((L⋈T) ⋈_{T.key} (T⋈R))) when T is a keyed single-table group and
  /// R joins only against T's columns. The duplicated-T form can then
  /// unify with views like A⋈B and B⋈C. At most 8 applications per round;
  /// only applications that change the query group count.
  void ApplyRedundantJoinDecomposition();
  Status InsertAccessPatternInstantiations(const InstantiatedView& view,
                                           const algebra::PlanPtr& query);
  void ApplyDependentJoinRule(const std::vector<InstantiatedView>& views);

  /// Enumerates (projection, join) facets of a group's expressions.
  std::vector<JoinFacet> JoinFacetsOf(optimizer::GroupId g) const;

  /// Decomposes join predicates into pure equi column pairs; nullopt if any
  /// conjunct is not of that shape.
  std::optional<std::vector<EquiPair>> PureEquiPairs(
      const optimizer::MemoExpr& join) const;

  /// Provenance: base table and column index a group's output slot carries,
  /// when it is a pass-through of a base column.
  struct Origin {
    std::string table;
    int column = 0;
  };
  std::optional<Origin> SlotOrigin(optimizer::GroupId g, int slot,
                                   int depth = 0) const;

  /// Collects the filter conjuncts applied between `g` and the Get of its
  /// single underlying table, if `g` is a Select*-over-Get chain.
  std::optional<std::vector<algebra::ScalarPtr>> SingleTableFilters(
      optimizer::GroupId g, std::string* table) const;

  void MarkU(optimizer::GroupId g, const std::string& why);
  void MarkC(optimizer::GroupId g, const std::string& why);
  void TraceRule(const std::string& why);
  void TraceVerdict(const ValidityReport& report);

  /// Budgeted batch probe used by the C3/CAgg rules. Plans already probed
  /// in this check are answered from probe_memo_, duplicates within the
  /// batch run once, and only the remaining plans reach the database.
  /// Refuses (all-empty) once the whole-check probe cap is hit, recording
  /// the failure in probe_status_ — the rules return nothing, so Check()
  /// surfaces it at the end of the round.
  std::vector<char> RunProbeBatch(const std::vector<algebra::PlanPtr>& plans);

  const catalog::Catalog& catalog_;
  const storage::DatabaseState* state_;
  ValidityOptions options_;

  optimizer::Memo memo_;
  optimizer::GroupId root_ = -1;
  std::map<optimizer::GroupId, std::string> justification_;
  /// Witness bookkeeping: groups justified by a view root (U1) carry the
  /// instantiated view; groups justified by U2 composition carry the
  /// operation node whose children were already valid.
  struct ViewWitness {
    std::string name;
    size_t arity = 0;
  };
  std::map<optimizer::GroupId, ViewWitness> witness_view_;
  std::map<optimizer::GroupId, optimizer::ExprId> witness_expr_;
  size_t c3_probes_ = 0;
  /// Outcomes of the probes executed by this check, keyed by
  /// algebra::PlanFingerprint and confirmed with PlanEquals (a fingerprint
  /// collision is a miss). Lives and dies with the single-use checker, so
  /// every answer in it was read from one state D; a probe that errored,
  /// was fault-injected or tripped its guard is remembered as empty.
  struct ProbeOutcome {
    algebra::PlanPtr plan;
    bool nonempty = false;
  };
  std::unordered_multimap<uint64_t, ProbeOutcome> probe_memo_;
  size_t probes_memoized_ = 0;
  size_t joins_introduced_ = 0;
  const common::QueryGuard* parent_guard_ = nullptr;
  std::unique_ptr<common::QueryGuard> check_guard_;
  Status probe_status_;
  ValidityTrace* trace_ = nullptr;
  const common::TraceContext* span_ctx_ = nullptr;
  exec::DagOptions dag_opts_;
};

}  // namespace fgac::core

#endif  // FGAC_CORE_VALIDITY_H_

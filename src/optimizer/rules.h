#ifndef FGAC_OPTIMIZER_RULES_H_
#define FGAC_OPTIMIZER_RULES_H_

#include <functional>
#include <string>
#include <vector>

#include "optimizer/memo.h"

namespace fgac::optimizer {

/// Configuration for the rule-based expansion of the AND-OR DAG ("applying
/// equivalence rules repeatedly till no new expression can be generated",
/// Section 5.6.1), with budgets to keep worst-case exponential join spaces
/// bounded.
struct ExpandOptions {
  size_t max_exprs = 200000;
  size_t max_passes = 16;

  bool enable_select_merge = true;
  bool enable_select_pushdown = true;
  bool enable_select_through_project = true;
  /// Join reordering in the memo. Only the validity search uses these:
  /// optimizer::Optimize turns both off and orders joins by dynamic
  /// programming over relation subsets instead.
  bool enable_join_commute = true;
  bool enable_join_assoc = true;
  /// Subsumption derivations (Section 5.6.1): evaluate a stronger selection
  /// from a weaker one over the same input.
  bool enable_subsumption = true;
  /// Aggregate roll-through of selections pinning group keys plus selection
  /// pushdown through GROUP BY (supports Examples 4.1/4.2). Note: treats a
  /// scalar aggregate over an empty input as producing no row (the
  /// group-per-key semantics standard in aggregate rewriting literature);
  /// see DESIGN.md.
  bool enable_aggregate_rules = true;
  /// Distinct elimination over duplicate-free inputs (Example 5.5: "since
  /// the Grades table has a primary key, the distinct keyword can be
  /// dropped").
  bool enable_distinct_elim = true;

  /// Catalog callbacks for distinct elimination. `table_pk_slots` returns
  /// the primary-key column indices of a base table (empty = no PK).
  std::function<std::vector<int>(const std::string&)> table_pk_slots;

  // --- Goal-directed search (demand-driven validity proofs) ---------------
  //
  // When `root_goal` is a valid group id, expansion stops being a full-DAG
  // sweep and becomes demand-driven:
  //  * each pass only visits expressions in groups reachable top-down from
  //    the goal or from an already-valid group (the proof frontier — a
  //    worklist recomputed per pass, since new expressions splice groups
  //    into the frontier);
  //  * groups already marked `valid_u` are dominated — the proof cannot
  //    improve by adding alternatives to them, so their pending
  //    join-reorder applications are dropped (`prune_dominated`; the
  //    structural and subsumption families still run on them, because
  //    those rewrites are what let unproven groups unify with or derive
  //    from a proven one);
  //  * join associativity only materializes a *new* inner join group when
  //    its base-table set fits inside one of `goal_table_sets` (a join no
  //    authorization view could cover cannot appear in a proof; inner
  //    shapes that hash-cons into an existing group are always allowed);
  //  * rules run in batched families — cheap structural rewrites, then
  //    join reordering, then subsumption/aggregate inference — so the
  //    memo is normalized before the expensive matchers scan it;
  //  * `should_stop` is polled between batches: the caller can propagate
  //    validity marks and end the search the moment the goal is proved.

  /// Root group of the proof obligation; -1 = exhaustive expansion.
  GroupId root_goal = -1;
  /// Skip join-reorder applications inside groups already marked valid_u.
  bool prune_dominated = true;
  /// Base-table sets (lowercased) that a newly created inner join group
  /// must fit inside. Empty = no gating.
  std::vector<std::vector<std::string>> goal_table_sets;
  /// Polled between rule batches; return true to stop expanding.
  std::function<bool()> should_stop;
};

struct ExpandStats {
  size_t passes = 0;
  size_t exprs_added = 0;
  bool budget_exhausted = false;
  /// Goal-directed mode only: dominated (already-valid) groups whose
  /// pending rule applications were dropped, expression visits skipped
  /// because of dominance or frontier unreachability, and the depth of the
  /// deepest group the proof frontier reached.
  size_t groups_pruned = 0;
  size_t exprs_skipped = 0;
  size_t frontier_depth = 0;
  /// True when `should_stop` ended the search before the fixpoint.
  bool stopped_early = false;
};

/// Expands the memo to a fixpoint (or budget) under the enabled rules.
ExpandStats ExpandMemo(Memo* memo, const ExpandOptions& options);

/// True if every plan in group `g` is duplicate-free (proved via one
/// witness expression; sound, incomplete). Exposed for the validity engine
/// (U3c multiplicity reasoning) and tests.
bool GroupDuplicateFree(const Memo& memo, GroupId g,
                        const ExpandOptions& options);

}  // namespace fgac::optimizer

#endif  // FGAC_OPTIMIZER_RULES_H_

#ifndef FGAC_OPTIMIZER_MEMO_H_
#define FGAC_OPTIMIZER_MEMO_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/plan.h"
#include "common/result.h"

namespace fgac::optimizer {

using GroupId = int32_t;
using ExprId = int32_t;

/// An operation node ("AND node") of the Volcano AND-OR DAG (paper
/// Figure 1): a logical operator plus child equivalence-node ids. Payload
/// fields mirror algebra::Plan minus children.
struct MemoExpr {
  algebra::PlanKind kind = algebra::PlanKind::kGet;
  std::vector<GroupId> children;

  // Payload (see algebra::Plan for field semantics).
  std::string table;
  std::vector<std::string> get_columns;
  std::vector<Row> rows;
  size_t values_arity = 0;
  std::vector<algebra::ScalarPtr> predicates;
  std::vector<algebra::ScalarPtr> exprs;
  std::vector<algebra::ScalarPtr> group_by;
  std::vector<algebra::AggExpr> aggs;
  std::vector<algebra::SortItem> sort_items;
  int64_t limit = 0;

  /// Owning group (kept canonical by Canonicalize()).
  GroupId group = -1;
  /// Dead after being deduplicated during a group merge.
  bool dead = false;
};

/// An equivalence node ("OR node"): a set of operation nodes computing the
/// same logical expression, plus the validity marks used by the Non-Truman
/// inference (Section 5.6.2: "The root equivalence nodes for all views are
/// marked as valid", then marks propagate bottom-up).
struct MemoGroup {
  std::vector<ExprId> exprs;
  size_t arity = 0;
  /// Bumped whenever the group's expression set changes (insert or merge);
  /// lets the rule engine skip expressions whose inputs are unchanged.
  uint64_t version = 0;
  /// Inference rule marks: unconditionally valid (U1/U2/U3*) and
  /// conditionally valid (C1/C2/C3*). valid_u implies valid_c (rule C1).
  bool valid_u = false;
  bool valid_c = false;
  /// True once merged into another group (see Find()).
  bool merged = false;
};

/// The AND-OR DAG with hash-consed unification: inserting a structurally
/// identical operation node returns the existing one; inserting an existing
/// node into a different group merges the two groups (the multi-query
/// unification of [25] that Section 5.6 builds on), with congruence closure
/// re-run to a fixpoint.
class Memo {
 public:
  Memo() = default;
  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// Recursively inserts a plan tree; returns the (canonical) group of its
  /// root. Equal subtrees unify with existing nodes.
  GroupId InsertPlan(const algebra::PlanPtr& plan);

  /// Inserts one operation node. If an identical node exists:
  ///  * target < 0: returns its group;
  ///  * target >= 0 and different group: merges the groups (unification).
  /// Otherwise adds the node to `target` (or a fresh group).
  GroupId InsertExpr(MemoExpr expr, GroupId target = -1);

  /// Canonical group id (union-find).
  GroupId Find(GroupId g) const;

  /// Group holding a live, structurally identical node, or -1. Probes the
  /// hash-cons index without inserting (used by the goal-directed join
  /// gate: an inner join that unifies with an existing node is free).
  GroupId FindExisting(const MemoExpr& expr) const;

  /// Declares two groups equivalent and merges them (caller asserts the
  /// semantic equivalence, e.g. distinct-elimination over duplicate-free
  /// input). Runs congruence closure.
  void Unify(GroupId a, GroupId b);

  size_t num_groups() const { return groups_.size(); }
  size_t num_live_groups() const;
  size_t num_exprs() const { return exprs_.size(); }
  size_t num_live_exprs() const;

  /// Monotone count of changes to the memo's content: it moves exactly when
  /// an expression is created, two groups merge, or a validity mark flips
  /// from false to true. A dedup hit, a repeated mark and a Canonicalize()
  /// that only drops duplicate expressions leave it where it was, so "the
  /// counter did not move" means the memo derived nothing new.
  uint64_t change_count() const { return change_count_; }

  const MemoGroup& group(GroupId g) const { return groups_[Find(g)]; }
  const MemoExpr& expr(ExprId e) const { return exprs_[e]; }

  /// Live operation nodes of a group (children canonicalized).
  std::vector<ExprId> GroupExprs(GroupId g) const;

  /// All live operation nodes (any group) having `g` among their children.
  std::vector<ExprId> ParentsOf(GroupId g) const;

  /// Marks for validity propagation.
  void MarkValidU(GroupId g);
  void MarkValidC(GroupId g);
  bool IsValidU(GroupId g) const { return group(g).valid_u; }
  bool IsValidC(GroupId g) const { return group(g).valid_c; }

  /// Extracts one arbitrary plan computing group `g` (first live expr,
  /// recursively). Used to execute v_r in rule C3a and for debugging.
  Result<algebra::PlanPtr> AnyPlan(GroupId g) const;

  /// Sorted, deduplicated base tables reachable from group `g` (via the
  /// first live expression at each level — alternatives of a group compute
  /// the same relation, so any witness yields the same table set). Used by
  /// the goal-directed join-associativity gate.
  std::vector<std::string> BaseTables(GroupId g) const;

  /// Re-canonicalizes all nodes after merges until no further merges occur
  /// (congruence closure). Called internally; cheap when nothing changed.
  void Canonicalize();

  /// Multi-line dump (group ids, validity marks, operation nodes).
  std::string ToString() const;

  /// Total number of distinct plan trees represented for group `g`
  /// (the "much larger number of query plans" of Figure 1; saturates at
  /// `cap`). Used by the E1 experiment.
  double CountPlans(GroupId g, double cap = 1e18) const;

 private:
  uint64_t ExprKey(const MemoExpr& e) const;
  bool ExprPayloadEquals(const MemoExpr& a, const MemoExpr& b) const;
  size_t ExprArity(const MemoExpr& e) const;
  void MergeGroups(GroupId a, GroupId b);
  /// Private so that marks change only through MarkValidU/MarkValidC,
  /// which keep change_count() exact.
  MemoGroup& mutable_group(GroupId g) { return groups_[Find(g)]; }

  std::vector<MemoExpr> exprs_;
  std::vector<MemoGroup> groups_;
  mutable std::vector<GroupId> uf_;
  std::unordered_map<uint64_t, std::vector<ExprId>> dedup_;
  /// Index: canonical group -> expressions that reference it as a child
  /// (may contain stale/dead entries; readers filter). Merged groups'
  /// lists are spliced into the winner.
  std::unordered_map<GroupId, std::vector<ExprId>> parents_;
  bool needs_canonicalize_ = false;
  uint64_t change_count_ = 0;
};

}  // namespace fgac::optimizer

#endif  // FGAC_OPTIMIZER_MEMO_H_

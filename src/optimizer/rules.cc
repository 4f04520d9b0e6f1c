#include "optimizer/rules.h"

#include <algorithm>
#include <map>
#include <set>

#include "algebra/normalize.h"
#include "optimizer/implication.h"

namespace fgac::optimizer {

using algebra::CollectSlots;
using algebra::MakeBinaryScalar;
using algebra::MakeColumn;
using algebra::MakeLiteralScalar;
using algebra::NormalizePredicates;
using algebra::PlanKind;
using algebra::RemapSlots;
using algebra::ScalarEquals;
using algebra::ScalarPtr;
using algebra::SubstituteSlots;

namespace {

/// Max slot strictly below `limit` and min slot at or above, for
/// partitioning conjuncts across join inputs.
struct SlotSpan {
  bool empty = true;
  int min_slot = 0;
  int max_slot = 0;
};

SlotSpan SpanOf(const ScalarPtr& s) {
  std::set<int> slots;
  CollectSlots(s, &slots);
  SlotSpan span;
  if (!slots.empty()) {
    span.empty = false;
    span.min_slot = *slots.begin();
    span.max_slot = *slots.rbegin();
  }
  return span;
}

MemoExpr MakeSelectExpr(std::vector<ScalarPtr> preds, GroupId child) {
  MemoExpr e;
  e.kind = PlanKind::kSelect;
  e.predicates = NormalizePredicates(std::move(preds));
  e.children = {child};
  return e;
}

MemoExpr MakeJoinExpr(std::vector<ScalarPtr> preds, GroupId left,
                      GroupId right) {
  MemoExpr e;
  e.kind = PlanKind::kJoin;
  e.predicates = NormalizePredicates(std::move(preds));
  e.children = {left, right};
  return e;
}

MemoExpr MakeProjectExpr(std::vector<ScalarPtr> exprs, GroupId child) {
  MemoExpr e;
  e.kind = PlanKind::kProject;
  e.exprs = std::move(exprs);
  e.children = {child};
  return e;
}

MemoExpr MakeAggregateExpr(std::vector<ScalarPtr> group_by,
                           std::vector<algebra::AggExpr> aggs, GroupId child) {
  MemoExpr e;
  e.kind = PlanKind::kAggregate;
  e.group_by = std::move(group_by);
  e.aggs = std::move(aggs);
  e.children = {child};
  return e;
}

/// Inserts a Select or, when the predicate list is empty, returns the child
/// group unchanged.
GroupId InsertSelectOrChild(Memo* memo, std::vector<ScalarPtr> preds,
                            GroupId child) {
  preds = NormalizePredicates(std::move(preds));
  if (preds.empty()) return memo->Find(child);
  return memo->InsertExpr(MakeSelectExpr(std::move(preds), child));
}

class RuleContext {
 public:
  RuleContext(Memo* memo, const ExpandOptions& options)
      : memo_(memo),
        options_(options),
        goal_directed_(options.root_goal >= 0) {
    goal_sets_.reserve(options_.goal_table_sets.size());
    for (const auto& s : options_.goal_table_sets) {
      std::vector<std::string> sorted = s;
      std::sort(sorted.begin(), sorted.end());
      goal_sets_.push_back(std::move(sorted));
    }
  }

  size_t Run() {
    size_t total_added = 0;
    for (size_t pass = 0; pass < options_.max_passes; ++pass) {
      if (goal_directed_ && ShouldStop()) break;
      size_t before = memo_->num_exprs();
      if (goal_directed_) ComputeFrontier();
      // Goal-directed mode runs the rules in batched families (cheap
      // structural rewrites, then join reordering, then subsumption and
      // aggregate inference) so the expensive matchers always scan a
      // normalized memo; the exhaustive path keeps the single
      // all-rules-per-expression sweep.
      const int num_batches = goal_directed_ ? kNumBatches : 1;
      for (int batch = 0; batch < num_batches; ++batch) {
        RunBatch(batch);
        memo_->Canonicalize();
        if (budget_exhausted_) break;
        if (goal_directed_ && batch + 1 < num_batches && ShouldStop()) break;
      }
      size_t after = memo_->num_exprs();
      total_added += after - before;
      ++passes_;
      if (after == before || budget_exhausted_ || stopped_early_) break;
    }
    return total_added;
  }

  size_t passes() const { return passes_; }
  bool budget_exhausted() const { return budget_exhausted_; }
  size_t groups_pruned() const { return pruned_groups_.size(); }
  size_t exprs_skipped() const { return exprs_skipped_; }
  size_t frontier_depth() const { return frontier_depth_; }
  bool stopped_early() const { return stopped_early_; }

 private:
  static constexpr int kNumBatches = 3;

  bool ShouldStop() {
    if (!options_.should_stop) return false;
    // The callback typically runs a full validity propagation — only worth
    // re-polling after the memo changed. The state is read after the
    // callback, so the marks it sets do not count as a change.
    if (stop_polled_ && memo_->change_count() == last_stop_state_) {
      return stopped_early_;
    }
    stop_polled_ = true;
    if (options_.should_stop()) stopped_early_ = true;
    last_stop_state_ = memo_->change_count();
    return stopped_early_;
  }

  /// The proof frontier: groups reachable top-down from the root goal or
  /// from an already-(conditionally-)valid group. Expressions outside it
  /// cannot participate in any derivation that changes the verdict, so
  /// their pending rule applications are dropped. Recomputed per pass —
  /// new expressions splice new groups into the frontier.
  void ComputeFrontier() {
    frontier_.assign(memo_->num_groups(), 0);
    std::vector<std::pair<GroupId, size_t>> queue;
    auto seed = [&](GroupId g) {
      g = memo_->Find(g);
      if (!frontier_[g]) {
        frontier_[g] = 1;
        queue.emplace_back(g, 0);
      }
    };
    seed(options_.root_goal);
    // DAG sources are goals in their own right: inference rules (join
    // introduction, C3 remainders) insert standalone proof obligations
    // that no expression references from above, and they only make
    // progress if the frontier reaches them.
    std::vector<char> has_parent(memo_->num_groups(), 0);
    for (ExprId eid = 0; eid < static_cast<ExprId>(memo_->num_exprs());
         ++eid) {
      const MemoExpr& e = memo_->expr(eid);
      if (e.dead) continue;
      for (GroupId c : e.children) has_parent[memo_->Find(c)] = 1;
    }
    for (GroupId g = 0; g < static_cast<GroupId>(memo_->num_groups()); ++g) {
      if (memo_->Find(g) != g) continue;
      if (memo_->group(g).valid_c || !has_parent[g]) seed(g);
    }
    for (size_t i = 0; i < queue.size(); ++i) {
      GroupId g = queue[i].first;
      size_t depth = queue[i].second;
      frontier_depth_ = std::max(frontier_depth_, depth);
      for (ExprId eid : memo_->GroupExprs(g)) {
        for (GroupId c : memo_->expr(eid).children) {
          c = memo_->Find(c);
          if (!frontier_[c]) {
            frontier_[c] = 1;
            queue.emplace_back(c, depth + 1);
          }
        }
      }
    }
  }

  /// Groups created after the frontier snapshot are products of frontier
  /// rules and count as reachable.
  bool InFrontier(GroupId g) const {
    g = memo_->Find(g);
    return g >= static_cast<GroupId>(frontier_.size()) || frontier_[g] != 0;
  }

  void RunBatch(int batch) {
    const size_t snapshot = memo_->num_exprs();
    std::vector<uint64_t>& sig = sigs_[batch];
    for (ExprId eid = 0; eid < static_cast<ExprId>(snapshot); ++eid) {
      if (memo_->num_exprs() >= options_.max_exprs) {
        budget_exhausted_ = true;
        break;
      }
      const MemoExpr& e = memo_->expr(eid);
      if (e.dead) continue;
      if (goal_directed_) {
        GroupId g = memo_->Find(e.group);
        // Dominance pruning: a group already proved unconditionally valid
        // cannot improve — drop its pending join-reorder applications
        // (batch 1), the generative family whose only payoff is proving
        // the group it rewrites. Batches 0 and 2 stay exempt: structural
        // normalization (collapse identity projections, push selections
        // into joins) and the subsumption matchers are *connective* — they
        // let unproven groups unify with or derive from the proven one,
        // and skipping them loses exactly those proofs.
        if (batch == 1 && options_.prune_dominated && memo_->IsValidU(g)) {
          pruned_groups_.insert(g);
          ++exprs_skipped_;
          continue;
        }
        if (!InFrontier(g)) {
          ++exprs_skipped_;
          continue;
        }
      }
      // Incremental pass: skip expressions whose inputs have not changed
      // since they were last processed. Distinct nodes are exempt (their
      // elimination rule depends on transitive duplicate-freeness proofs).
      uint64_t s = ExprSignature(e);
      if (e.kind != PlanKind::kDistinct &&
          eid < static_cast<ExprId>(sig.size()) && sig[eid] == s) {
        continue;
      }
      if (eid >= static_cast<ExprId>(sig.size())) sig.resize(eid + 1, 0);
      sig[eid] = s;
      if (goal_directed_) {
        ApplyBatch(eid, batch);
      } else {
        ApplyAll(eid);
      }
    }
  }
  /// Combines the canonical ids and versions of an expression's child
  /// groups; a changed signature means new alternatives appeared below.
  uint64_t ExprSignature(const MemoExpr& e) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL + e.children.size();
    for (GroupId c : e.children) {
      GroupId root = memo_->Find(c);
      h = h * 1315423911ULL + static_cast<uint64_t>(root) * 2654435761ULL +
          memo_->group(root).version;
    }
    // The owning group matters too (subsumption scans sibling parents).
    GroupId g = memo_->Find(e.group);
    h = h * 1315423911ULL + memo_->group(g).version;
    return h | 1;  // never 0
  }

  void ApplyAll(ExprId eid) {
    const MemoExpr& e = memo_->expr(eid);
    switch (e.kind) {
      case PlanKind::kSelect:
        if (options_.enable_select_merge) SelectMerge(eid);
        if (options_.enable_select_pushdown) SelectPushdown(eid);
        if (options_.enable_select_through_project) SelectThroughProject(eid);
        if (options_.enable_subsumption) SelectSubsumption(eid);
        if (options_.enable_aggregate_rules) SelectThroughAggregate(eid);
        break;
      case PlanKind::kJoin:
        if (options_.enable_join_commute) JoinCommute(eid);
        if (options_.enable_join_assoc) JoinAssoc(eid);
        break;
      case PlanKind::kProject:
        ProjectCollapse(eid);
        if (options_.enable_subsumption) ProjectSubsumption(eid);
        if (options_.enable_select_pushdown) ProjectPushIntoJoin(eid);
        break;
      case PlanKind::kAggregate:
        if (options_.enable_aggregate_rules) {
          AggPinnedKeyRollup(eid);
          AggListSubsumption(eid);
          AggThroughProject(eid);
        }
        break;
      case PlanKind::kDistinct:
        if (options_.enable_distinct_elim) DistinctElim(eid);
        DistinctPullThroughProject(eid);
        break;
      default:
        break;
    }
  }

  // Batched families (hyrise-style): 0 = cheap structural normalization,
  // 1 = join reordering, 2 = subsumption and aggregate/distinct inference.
  void ApplyBatch(ExprId eid, int batch) {
    const MemoExpr& e = memo_->expr(eid);
    switch (e.kind) {
      case PlanKind::kSelect:
        if (batch == 0) {
          if (options_.enable_select_merge) SelectMerge(eid);
          if (options_.enable_select_pushdown) SelectPushdown(eid);
          if (options_.enable_select_through_project) SelectThroughProject(eid);
        } else if (batch == 2) {
          if (options_.enable_subsumption) SelectSubsumption(eid);
          if (options_.enable_aggregate_rules) SelectThroughAggregate(eid);
        }
        break;
      case PlanKind::kJoin:
        if (batch == 1) {
          if (options_.enable_join_commute) JoinCommute(eid);
          if (options_.enable_join_assoc) JoinAssoc(eid);
        }
        break;
      case PlanKind::kProject:
        if (batch == 0) {
          ProjectCollapse(eid);
          if (options_.enable_select_pushdown) ProjectPushIntoJoin(eid);
        } else if (batch == 2) {
          if (options_.enable_subsumption) ProjectSubsumption(eid);
        }
        break;
      case PlanKind::kAggregate:
        if (batch == 2 && options_.enable_aggregate_rules) {
          AggPinnedKeyRollup(eid);
          AggListSubsumption(eid);
          AggThroughProject(eid);
        }
        break;
      case PlanKind::kDistinct:
        if (batch == 2) {
          if (options_.enable_distinct_elim) DistinctElim(eid);
          DistinctPullThroughProject(eid);
        }
        break;
      default:
        break;
    }
  }

  /// Sorted base tables of a group, cached per canonical id (a group's
  /// table set never changes: merges only join equivalent relations).
  const std::vector<std::string>& GroupTables(GroupId g) {
    g = memo_->Find(g);
    auto it = tables_cache_.find(g);
    if (it != tables_cache_.end()) return it->second;
    return tables_cache_.emplace(g, memo_->BaseTables(g)).first->second;
  }

  /// Goal gate for join associativity: a brand-new inner join group is only
  /// worth materializing when some authorization view (goal table set)
  /// could cover it.
  bool InnerCoveredByGoal(GroupId b, GroupId c) {
    const std::vector<std::string>& tb = GroupTables(b);
    const std::vector<std::string>& tc = GroupTables(c);
    std::vector<std::string> tables;
    tables.reserve(tb.size() + tc.size());
    std::set_union(tb.begin(), tb.end(), tc.begin(), tc.end(),
                   std::back_inserter(tables));
    for (const std::vector<std::string>& goal : goal_sets_) {
      if (std::includes(goal.begin(), goal.end(), tables.begin(),
                        tables.end())) {
        return true;
      }
    }
    return false;
  }

  // Select(P1, Select(P2, x)) => Select(P1 ∧ P2, x).
  void SelectMerge(ExprId eid) {
    MemoExpr e = memo_->expr(eid);  // copy: inserts may reallocate
    GroupId g = memo_->Find(e.group);
    for (ExprId fid : memo_->GroupExprs(e.children[0])) {
      const MemoExpr f = memo_->expr(fid);
      if (f.kind != PlanKind::kSelect) continue;
      std::vector<ScalarPtr> merged = e.predicates;
      merged.insert(merged.end(), f.predicates.begin(), f.predicates.end());
      memo_->InsertExpr(MakeSelectExpr(std::move(merged), f.children[0]), g);
    }
  }

  // Select(P, Join(a, b, JP)) => pushes single-side conjuncts below the
  // join and folds cross-side conjuncts into the join predicate.
  void SelectPushdown(ExprId eid) {
    MemoExpr e = memo_->expr(eid);
    GroupId g = memo_->Find(e.group);
    for (ExprId fid : memo_->GroupExprs(e.children[0])) {
      const MemoExpr f = memo_->expr(fid);
      if (f.kind != PlanKind::kJoin) continue;
      int la = static_cast<int>(memo_->group(f.children[0]).arity);
      std::vector<ScalarPtr> left_preds, right_preds, join_preds;
      for (const ScalarPtr& p : e.predicates) {
        SlotSpan span = SpanOf(p);
        if (!span.empty && span.max_slot < la) {
          left_preds.push_back(p);
        } else if (!span.empty && span.min_slot >= la) {
          right_preds.push_back(
              RemapSlots(p, [la](int s) { return s - la; }));
        } else {
          join_preds.push_back(p);
        }
      }
      std::vector<ScalarPtr> jp = f.predicates;
      jp.insert(jp.end(), join_preds.begin(), join_preds.end());
      jp = NormalizePredicates(std::move(jp));
      if (left_preds.empty() && right_preds.empty()) {
        // Nothing moves below the join; only fire if the join predicate
        // actually absorbs new conjuncts (cross-side predicates).
        if (jp.size() == f.predicates.size()) continue;
      }
      GroupId new_left = InsertSelectOrChild(memo_, left_preds, f.children[0]);
      GroupId new_right =
          InsertSelectOrChild(memo_, right_preds, f.children[1]);
      memo_->InsertExpr(MakeJoinExpr(std::move(jp), new_left, new_right), g);
    }
  }

  // Select(P, Project(X, d)) => Project(X, Select(P∘X, d)).
  void SelectThroughProject(ExprId eid) {
    MemoExpr e = memo_->expr(eid);
    GroupId g = memo_->Find(e.group);
    for (ExprId fid : memo_->GroupExprs(e.children[0])) {
      const MemoExpr f = memo_->expr(fid);
      if (f.kind != PlanKind::kProject) continue;
      std::vector<ScalarPtr> pushed;
      pushed.reserve(e.predicates.size());
      for (const ScalarPtr& p : e.predicates) {
        pushed.push_back(SubstituteSlots(p, f.exprs));
      }
      GroupId inner = InsertSelectOrChild(memo_, std::move(pushed),
                                          f.children[0]);
      memo_->InsertExpr(MakeProjectExpr(f.exprs, inner), g);
    }
  }

  // Join(a, b, P) => Project(swap, Join(b, a, P')) — commutativity. The
  // memo is positional, so the commuted join has a different column order
  // and must be wrapped in a column-permuting projection to stay in the
  // same equivalence node.
  void JoinCommute(ExprId eid) {
    MemoExpr e = memo_->expr(eid);
    GroupId g = memo_->Find(e.group);
    int la = static_cast<int>(memo_->group(e.children[0]).arity);
    int lb = static_cast<int>(memo_->group(e.children[1]).arity);
    std::vector<ScalarPtr> preds;
    preds.reserve(e.predicates.size());
    for (const ScalarPtr& p : e.predicates) {
      preds.push_back(RemapSlots(
          p, [la, lb](int s) { return s < la ? s + lb : s - la; }));
    }
    GroupId commuted = memo_->InsertExpr(
        MakeJoinExpr(std::move(preds), e.children[1], e.children[0]));
    if (memo_->Find(commuted) == g) return;  // self-commute degenerated
    std::vector<ScalarPtr> swap;
    swap.reserve(static_cast<size_t>(la + lb));
    for (int i = 0; i < la; ++i) swap.push_back(MakeColumn(lb + i));
    for (int i = 0; i < lb; ++i) swap.push_back(MakeColumn(i));
    memo_->InsertExpr(MakeProjectExpr(std::move(swap), commuted), g);
  }

  // Project(X, Project(Y, h)) => Project(X∘Y, h).
  void ProjectCollapse(ExprId eid) {
    MemoExpr e = memo_->expr(eid);
    GroupId g = memo_->Find(e.group);
    for (ExprId fid : memo_->GroupExprs(e.children[0])) {
      const MemoExpr f = memo_->expr(fid);
      if (f.kind != PlanKind::kProject) continue;
      std::vector<ScalarPtr> composed;
      composed.reserve(e.exprs.size());
      for (const ScalarPtr& x : e.exprs) {
        composed.push_back(
            algebra::NormalizeScalar(SubstituteSlots(x, f.exprs)));
      }
      memo_->InsertExpr(MakeProjectExpr(std::move(composed), f.children[0]), g);
    }
  }

  // Projection-list subsumption: π_B(x) = π_{B'}(π_A(x)) when every element
  // of B appears in A. Lets a narrow query projection be computed from a
  // wider (possibly valid) projection over the same input. Applied in both
  // directions relative to the triggering expression.
  void ProjectSubsumption(ExprId eid) {
    MemoExpr e = memo_->expr(eid);
    GroupId g = memo_->Find(e.group);
    GroupId child = memo_->Find(e.children[0]);
    auto derive = [this](const MemoExpr& narrow, GroupId narrow_group,
                         const MemoExpr& wide, GroupId wide_group) {
      std::vector<ScalarPtr> remapped;
      for (const ScalarPtr& b : narrow.exprs) {
        int pos = -1;
        for (size_t i = 0; i < wide.exprs.size(); ++i) {
          if (ScalarEquals(b, wide.exprs[i])) {
            pos = static_cast<int>(i);
            break;
          }
        }
        if (pos < 0) return;
        remapped.push_back(MakeColumn(pos));
      }
      memo_->InsertExpr(MakeProjectExpr(std::move(remapped), wide_group),
                        narrow_group);
    };
    for (ExprId fid : memo_->ParentsOf(child)) {
      const MemoExpr f = memo_->expr(fid);
      if (f.kind != PlanKind::kProject || memo_->Find(f.children[0]) != child) {
        continue;
      }
      GroupId fg = memo_->Find(f.group);
      if (fg == g) continue;
      if (f.exprs.size() >= e.exprs.size()) derive(e, g, f, fg);
      if (e.exprs.size() >= f.exprs.size()) derive(f, fg, e, g);
    }
  }

  // Projection pushdown into a join: columns of either input that feed
  // neither the projection nor the join predicate can be projected away
  // below the join. Connects queries to views that expose only some
  // columns of a joined table (cell-level authorization).
  void ProjectPushIntoJoin(ExprId eid) {
    MemoExpr e = memo_->expr(eid);
    GroupId g = memo_->Find(e.group);
    for (ExprId fid : memo_->GroupExprs(e.children[0])) {
      const MemoExpr f = memo_->expr(fid);
      if (f.kind != PlanKind::kJoin) continue;
      int la = static_cast<int>(memo_->group(f.children[0]).arity);
      int lb = static_cast<int>(memo_->group(f.children[1]).arity);
      std::set<int> used;
      for (const ScalarPtr& x : e.exprs) CollectSlots(x, &used);
      for (const ScalarPtr& p : f.predicates) CollectSlots(p, &used);
      std::vector<int> keep_l, keep_r;
      for (int s = 0; s < la; ++s) {
        if (used.count(s)) keep_l.push_back(s);
      }
      for (int s = 0; s < lb; ++s) {
        if (used.count(la + s)) keep_r.push_back(la + s);
      }
      bool trim_l = static_cast<int>(keep_l.size()) < la && !keep_l.empty();
      bool trim_r = static_cast<int>(keep_r.size()) < lb && !keep_r.empty();
      if (!trim_l && !trim_r) continue;
      // Old combined slot -> new combined slot.
      std::map<int, int> remap;
      GroupId new_l = f.children[0];
      if (trim_l) {
        std::vector<ScalarPtr> proj;
        for (size_t i = 0; i < keep_l.size(); ++i) {
          proj.push_back(MakeColumn(keep_l[i]));
          remap[keep_l[i]] = static_cast<int>(i);
        }
        new_l = memo_->InsertExpr(MakeProjectExpr(std::move(proj), new_l));
      } else {
        for (int s = 0; s < la; ++s) remap[s] = s;
      }
      int new_la = trim_l ? static_cast<int>(keep_l.size()) : la;
      GroupId new_r = f.children[1];
      if (trim_r) {
        std::vector<ScalarPtr> proj;
        for (size_t i = 0; i < keep_r.size(); ++i) {
          proj.push_back(MakeColumn(keep_r[i] - la));
          remap[keep_r[i]] = new_la + static_cast<int>(i);
        }
        new_r = memo_->InsertExpr(MakeProjectExpr(std::move(proj), new_r));
      } else {
        for (int s = 0; s < lb; ++s) remap[la + s] = new_la + s;
      }
      auto do_remap = [&remap](const ScalarPtr& s) {
        return RemapSlots(s, [&remap](int slot) {
          auto it = remap.find(slot);
          return it == remap.end() ? -1 : it->second;
        });
      };
      std::vector<ScalarPtr> new_preds;
      for (const ScalarPtr& p : f.predicates) new_preds.push_back(do_remap(p));
      GroupId new_join = memo_->InsertExpr(
          MakeJoinExpr(std::move(new_preds), new_l, new_r));
      std::vector<ScalarPtr> new_exprs;
      for (const ScalarPtr& x : e.exprs) new_exprs.push_back(do_remap(x));
      memo_->InsertExpr(MakeProjectExpr(std::move(new_exprs), new_join), g);
    }
  }

  // Aggregate over a projection: Agg(G, aggs, x) = Agg(G', aggs', π_A(x))
  // when every slot consumed by the grouping and aggregate arguments
  // survives A as a bare column — projections are one-to-one on rows, so
  // multiplicities (and hence every aggregate) are unchanged. Connects
  // query aggregates over joins to views that project the join.
  void AggThroughProject(ExprId eid) {
    MemoExpr e = memo_->expr(eid);
    GroupId g = memo_->Find(e.group);
    GroupId child = memo_->Find(e.children[0]);
    for (ExprId pid : memo_->ParentsOf(child)) {
      const MemoExpr p = memo_->expr(pid);
      if (p.kind != PlanKind::kProject || memo_->Find(p.children[0]) != child) {
        continue;
      }
      // Old child slot -> position in the projection (bare columns only).
      std::map<int, int> pos;
      for (size_t i = 0; i < p.exprs.size(); ++i) {
        if (p.exprs[i]->kind == algebra::ScalarKind::kColumn) {
          pos.emplace(p.exprs[i]->slot, static_cast<int>(i));
        }
      }
      std::set<int> used;
      for (const ScalarPtr& x : e.group_by) CollectSlots(x, &used);
      for (const algebra::AggExpr& a : e.aggs) CollectSlots(a.arg, &used);
      bool covered = std::all_of(used.begin(), used.end(), [&](int s) {
        return pos.count(s) > 0;
      });
      if (!covered) continue;
      auto remap = [&pos](const ScalarPtr& s) {
        return RemapSlots(s, [&pos](int slot) { return pos.at(slot); });
      };
      std::vector<ScalarPtr> group_by;
      for (const ScalarPtr& x : e.group_by) group_by.push_back(remap(x));
      std::vector<algebra::AggExpr> aggs;
      for (const algebra::AggExpr& a : e.aggs) {
        aggs.push_back({a.func, a.arg == nullptr ? nullptr : remap(a.arg),
                        a.distinct});
      }
      memo_->InsertExpr(
          MakeAggregateExpr(std::move(group_by), std::move(aggs),
                            memo_->Find(p.group)),
          g);
    }
  }

  // Aggregate-list subsumption: Agg(G, A1, x) = Project(Agg(G, A2, x)) when
  // A1 ⊆ A2 (same grouping, same input). Lets a query needing one aggregate
  // be answered from a view computing more aggregates over the same groups
  // (e.g. Example 4.2's avg answered from an avg+count view).
  void AggListSubsumption(ExprId eid) {
    MemoExpr e = memo_->expr(eid);
    GroupId g = memo_->Find(e.group);
    GroupId child = memo_->Find(e.children[0]);
    auto derive = [this](const MemoExpr& narrow, GroupId narrow_group,
                         const MemoExpr& wide, GroupId wide_group) {
      std::vector<ScalarPtr> proj;
      for (size_t i = 0; i < narrow.group_by.size(); ++i) {
        proj.push_back(MakeColumn(static_cast<int>(i)));
      }
      for (const algebra::AggExpr& a1 : narrow.aggs) {
        int found = -1;
        for (size_t j = 0; j < wide.aggs.size(); ++j) {
          if (algebra::AggExprEquals(a1, wide.aggs[j])) {
            found = static_cast<int>(j);
            break;
          }
        }
        if (found < 0) return;
        proj.push_back(
            MakeColumn(static_cast<int>(narrow.group_by.size()) + found));
      }
      memo_->InsertExpr(MakeProjectExpr(std::move(proj), wide_group),
                        narrow_group);
    };
    for (ExprId fid : memo_->ParentsOf(child)) {
      const MemoExpr f = memo_->expr(fid);
      if (f.kind != PlanKind::kAggregate ||
          memo_->Find(f.children[0]) != child ||
          f.group_by.size() != e.group_by.size()) {
        continue;
      }
      GroupId fg = memo_->Find(f.group);
      if (fg == g) continue;
      bool same_groups = true;
      for (size_t i = 0; i < e.group_by.size(); ++i) {
        if (!ScalarEquals(e.group_by[i], f.group_by[i])) {
          same_groups = false;
          break;
        }
      }
      if (!same_groups) continue;
      if (f.aggs.size() > e.aggs.size()) derive(e, g, f, fg);
      if (e.aggs.size() > f.aggs.size()) derive(f, fg, e, g);
    }
  }

  // Distinct(Project(X, h)) => Distinct(Project(X, Distinct(h))): the set of
  // projected tuples is unchanged by pre-deduplication. Lets a valid
  // DISTINCT core (from U3) feed narrower DISTINCT projections.
  void DistinctPullThroughProject(ExprId eid) {
    MemoExpr e = memo_->expr(eid);
    GroupId g = memo_->Find(e.group);
    for (ExprId fid : memo_->GroupExprs(e.children[0])) {
      const MemoExpr f = memo_->expr(fid);
      if (f.kind != PlanKind::kProject) continue;
      MemoExpr inner_distinct;
      inner_distinct.kind = PlanKind::kDistinct;
      inner_distinct.children = {f.children[0]};
      GroupId dh = memo_->InsertExpr(std::move(inner_distinct));
      GroupId p2 = memo_->InsertExpr(MakeProjectExpr(f.exprs, dh));
      MemoExpr outer;
      outer.kind = PlanKind::kDistinct;
      outer.children = {p2};
      memo_->InsertExpr(std::move(outer), g);
    }
  }

  // Join(Join(a, b, P1), c, P2) => Join(a, Join(b, c, inner), outer).
  void JoinAssoc(ExprId eid) {
    MemoExpr e = memo_->expr(eid);
    GroupId g = memo_->Find(e.group);
    for (ExprId fid : memo_->GroupExprs(e.children[0])) {
      const MemoExpr f = memo_->expr(fid);
      if (f.kind != PlanKind::kJoin) continue;
      int la = static_cast<int>(memo_->group(f.children[0]).arity);
      // Combined slot space: a [0,la), b [la,la+lb), c [la+lb, ...).
      // P1 (over a,b) already uses it; so does P2 (over (ab),c).
      std::vector<ScalarPtr> all = f.predicates;
      all.insert(all.end(), e.predicates.begin(), e.predicates.end());
      std::vector<ScalarPtr> inner, outer;
      for (const ScalarPtr& p : all) {
        SlotSpan span = SpanOf(p);
        if (!span.empty && span.min_slot >= la) {
          inner.push_back(RemapSlots(p, [la](int s) { return s - la; }));
        } else {
          outer.push_back(p);
        }
      }
      MemoExpr inner_join =
          MakeJoinExpr(std::move(inner), f.children[1], e.children[1]);
      // Goal-directed gate: only materialize a *new* inner join group when
      // its base tables fit inside some goal (view) table set — a join no
      // view could cover cannot appear in a validity proof. Inner shapes
      // that hash-cons into an existing group are always free.
      if (goal_directed_ && !goal_sets_.empty() &&
          memo_->FindExisting(inner_join) < 0 &&
          !InnerCoveredByGoal(f.children[1], e.children[1])) {
        ++exprs_skipped_;
        continue;
      }
      GroupId gi = memo_->InsertExpr(std::move(inner_join));
      // New layout a then (b,c) keeps the same global slots; no remap.
      memo_->InsertExpr(MakeJoinExpr(std::move(outer), f.children[0], gi), g);
    }
  }

  // Subsumption derivation: Select(P1, x) can be computed from Select(P2, x)
  // when P1 => P2 (Section 5.6.1). Applied in both directions so that a
  // newly inserted selection connects to previously processed siblings.
  void SelectSubsumption(ExprId eid) {
    MemoExpr e = memo_->expr(eid);
    GroupId g = memo_->Find(e.group);
    GroupId child = memo_->Find(e.children[0]);
    for (ExprId fid : memo_->ParentsOf(child)) {
      const MemoExpr f = memo_->expr(fid);
      if (f.kind != PlanKind::kSelect || memo_->Find(f.children[0]) != child) {
        continue;
      }
      GroupId fg = memo_->Find(f.group);
      if (fg == g) continue;
      if (ImpliesAll(e.predicates, f.predicates)) {
        DeriveStrongFromWeak(e.predicates, g, f.predicates, fg);
        if (memo_->Find(g) == memo_->Find(fg)) return;  // unified
      }
      if (ImpliesAll(f.predicates, e.predicates)) {
        DeriveStrongFromWeak(f.predicates, fg, e.predicates, g);
        if (memo_->Find(g) == memo_->Find(fg)) return;
      }
    }
  }

  /// Adds σ_{strong}(x) = σ_{residual}(σ_{weak}(x)) to the strong group.
  /// When weak ⊆ strong structurally the residual is the set difference;
  /// otherwise re-applying all of `strong` is correct since strong => weak.
  void DeriveStrongFromWeak(const std::vector<ScalarPtr>& strong,
                            GroupId strong_group,
                            const std::vector<ScalarPtr>& weak,
                            GroupId weak_group) {
    std::vector<ScalarPtr> residual;
    bool syntactic_subset = true;
    for (const ScalarPtr& pw : weak) {
      bool found = std::any_of(
          strong.begin(), strong.end(),
          [&](const ScalarPtr& ps) { return ScalarEquals(ps, pw); });
      if (!found) {
        syntactic_subset = false;
        break;
      }
    }
    if (syntactic_subset) {
      for (const ScalarPtr& ps : strong) {
        bool in_weak = std::any_of(
            weak.begin(), weak.end(),
            [&](const ScalarPtr& pw) { return ScalarEquals(ps, pw); });
        if (!in_weak) residual.push_back(ps);
      }
    } else {
      residual = strong;
    }
    if (residual.empty()) {
      // strong == weak semantically; unify the groups.
      memo_->Unify(strong_group, weak_group);
      return;
    }
    memo_->InsertExpr(MakeSelectExpr(std::move(residual), weak_group),
                      strong_group);
  }

  // Select(P, Aggregate(G, aggs, d)): conjuncts over group columns push
  // below the aggregation.
  void SelectThroughAggregate(ExprId eid) {
    MemoExpr e = memo_->expr(eid);
    GroupId g = memo_->Find(e.group);
    for (ExprId fid : memo_->GroupExprs(e.children[0])) {
      const MemoExpr f = memo_->expr(fid);
      if (f.kind != PlanKind::kAggregate) continue;
      int n = static_cast<int>(f.group_by.size());
      std::vector<ScalarPtr> pushable, rest;
      for (const ScalarPtr& p : e.predicates) {
        SlotSpan span = SpanOf(p);
        if (!span.empty && span.max_slot < n) {
          pushable.push_back(SubstituteSlots(p, f.group_by));
        } else {
          rest.push_back(p);
        }
      }
      if (pushable.empty()) continue;
      GroupId inner =
          InsertSelectOrChild(memo_, std::move(pushable), f.children[0]);
      GroupId agg = memo_->InsertExpr(
          MakeAggregateExpr(f.group_by, f.aggs, inner));
      if (rest.empty()) {
        memo_->Unify(g, agg);
      } else {
        memo_->InsertExpr(MakeSelectExpr(std::move(rest), agg), g);
      }
    }
  }

  // Aggregate(G1, aggs, Select(pins ∧ rest, x)) =>
  //   Project(σ_{keycols = lits}(Aggregate(G1 ∪ pins, aggs, Select(rest,x))))
  // — the pinned-group-key roll-through enabling aggregation views
  // (Examples 4.1/4.2). See ExpandOptions::enable_aggregate_rules for the
  // empty-input caveat.
  void AggPinnedKeyRollup(ExprId eid) {
    MemoExpr e = memo_->expr(eid);
    GroupId g = memo_->Find(e.group);
    for (ExprId fid : memo_->GroupExprs(e.children[0])) {
      const MemoExpr f = memo_->expr(fid);
      if (f.kind != PlanKind::kSelect) continue;
      std::vector<ScalarPtr> pin_exprs, rest;
      std::vector<Value> pin_values;
      for (const ScalarPtr& p : f.predicates) {
        std::optional<Atom> atom = ExtractAtom(p);
        bool is_new_pin = false;
        if (atom.has_value() && atom->op == Atom::Op::kEq) {
          bool already_grouped = std::any_of(
              e.group_by.begin(), e.group_by.end(),
              [&](const ScalarPtr& gx) { return ScalarEquals(gx, atom->expr); });
          bool duplicate_pin = std::any_of(
              pin_exprs.begin(), pin_exprs.end(),
              [&](const ScalarPtr& px) { return ScalarEquals(px, atom->expr); });
          if (!already_grouped && !duplicate_pin) {
            pin_exprs.push_back(atom->expr);
            pin_values.push_back(atom->literal);
            is_new_pin = true;
          }
        }
        if (!is_new_pin) rest.push_back(p);
      }
      if (pin_exprs.empty()) continue;
      GroupId inner = InsertSelectOrChild(memo_, rest, f.children[0]);
      std::vector<ScalarPtr> g2 = e.group_by;
      g2.insert(g2.end(), pin_exprs.begin(), pin_exprs.end());
      GroupId agg = memo_->InsertExpr(MakeAggregateExpr(g2, e.aggs, inner));
      int n1 = static_cast<int>(e.group_by.size());
      int npins = static_cast<int>(pin_exprs.size());
      std::vector<ScalarPtr> sel_preds;
      for (int i = 0; i < npins; ++i) {
        sel_preds.push_back(MakeBinaryScalar(
            sql::BinOp::kEq, MakeColumn(n1 + i),
            MakeLiteralScalar(pin_values[i])));
      }
      GroupId sel = memo_->InsertExpr(MakeSelectExpr(std::move(sel_preds), agg));
      std::vector<ScalarPtr> proj;
      for (int i = 0; i < n1; ++i) proj.push_back(MakeColumn(i));
      for (size_t i = 0; i < e.aggs.size(); ++i) {
        proj.push_back(MakeColumn(n1 + npins + static_cast<int>(i)));
      }
      memo_->InsertExpr(MakeProjectExpr(std::move(proj), sel), g);
    }
  }

  // Distinct(x) where x is duplicate-free is x itself.
  void DistinctElim(ExprId eid) {
    MemoExpr e = memo_->expr(eid);
    GroupId g = memo_->Find(e.group);
    GroupId child = memo_->Find(e.children[0]);
    if (g == child) return;
    if (GroupDuplicateFree(*memo_, child, options_)) {
      memo_->Unify(g, child);
    }
  }

  Memo* memo_;
  const ExpandOptions& options_;
  const bool goal_directed_;
  size_t passes_ = 0;
  bool budget_exhausted_ = false;
  bool stopped_early_ = false;
  bool stop_polled_ = false;
  uint64_t last_stop_state_ = 0;
  size_t exprs_skipped_ = 0;
  size_t frontier_depth_ = 0;
  std::set<GroupId> pruned_groups_;
  std::vector<char> frontier_;
  std::vector<std::vector<std::string>> goal_sets_;
  std::map<GroupId, std::vector<std::string>> tables_cache_;
  std::vector<uint64_t> sigs_[kNumBatches];
};

}  // namespace

ExpandStats ExpandMemo(Memo* memo, const ExpandOptions& options) {
  RuleContext ctx(memo, options);
  ExpandStats stats;
  stats.exprs_added = ctx.Run();
  stats.passes = ctx.passes();
  stats.budget_exhausted = ctx.budget_exhausted();
  stats.groups_pruned = ctx.groups_pruned();
  stats.exprs_skipped = ctx.exprs_skipped();
  stats.frontier_depth = ctx.frontier_depth();
  stats.stopped_early = ctx.stopped_early();
  return stats;
}

namespace {

bool DuplicateFreeRec(const Memo& memo, GroupId g, const ExpandOptions& options,
                      std::map<GroupId, int>* state);

/// Finds the base table reachable from `g` through Select nodes only, and
/// reports which of its PK slots survive (identity-mapped).
bool PkSlotsPreservedByProject(const Memo& memo, const MemoExpr& project,
                               const ExpandOptions& options) {
  if (options.table_pk_slots == nullptr) return false;
  GroupId g = memo.Find(project.children[0]);
  for (int depth = 0; depth < 8; ++depth) {
    for (ExprId eid : memo.GroupExprs(g)) {
      const MemoExpr& e = memo.expr(eid);
      if (e.kind == PlanKind::kGet) {
        std::vector<int> pk = options.table_pk_slots(e.table);
        if (pk.empty()) return false;
        for (int slot : pk) {
          bool present = std::any_of(
              project.exprs.begin(), project.exprs.end(),
              [slot](const ScalarPtr& x) {
                return x->kind == algebra::ScalarKind::kColumn &&
                       x->slot == slot;
              });
          if (!present) return false;
        }
        return true;
      }
      if (e.kind == PlanKind::kSelect) {
        g = memo.Find(e.children[0]);
        goto next_level;
      }
    }
    return false;
  next_level:;
  }
  return false;
}

bool ExprDuplicateFree(const Memo& memo, const MemoExpr& e,
                       const ExpandOptions& options,
                       std::map<GroupId, int>* state) {
  switch (e.kind) {
    case PlanKind::kGet: {
      if (options.table_pk_slots == nullptr) return false;
      return !options.table_pk_slots(e.table).empty();
    }
    case PlanKind::kValues: {
      for (size_t i = 0; i < e.rows.size(); ++i) {
        for (size_t j = i + 1; j < e.rows.size(); ++j) {
          if (RowEq()(e.rows[i], e.rows[j])) return false;
        }
      }
      return true;
    }
    case PlanKind::kSelect:
    case PlanKind::kSort:
    case PlanKind::kLimit:
      return DuplicateFreeRec(memo, e.children[0], options, state);
    case PlanKind::kJoin:
      return DuplicateFreeRec(memo, e.children[0], options, state) &&
             DuplicateFreeRec(memo, e.children[1], options, state);
    case PlanKind::kDistinct:
    case PlanKind::kAggregate:
      return true;
    case PlanKind::kProject: {
      if (!DuplicateFreeRec(memo, e.children[0], options, state)) {
        // A projection can still be duplicate-free if it keeps a key.
        return PkSlotsPreservedByProject(memo, e, options);
      }
      // Child duplicate-free and projection keeps every child slot?
      size_t child_arity = memo.group(e.children[0]).arity;
      std::set<int> kept;
      for (const ScalarPtr& x : e.exprs) {
        if (x->kind == algebra::ScalarKind::kColumn) kept.insert(x->slot);
      }
      if (kept.size() == child_arity) return true;
      return PkSlotsPreservedByProject(memo, e, options);
    }
    case PlanKind::kUnionAll:
      return false;
  }
  return false;
}

bool DuplicateFreeRec(const Memo& memo, GroupId g, const ExpandOptions& options,
                      std::map<GroupId, int>* state) {
  g = memo.Find(g);
  auto it = state->find(g);
  if (it != state->end()) {
    if (it->second == 2) return true;   // proven
    return false;                       // in-progress or disproven
  }
  (*state)[g] = 1;  // in progress
  for (ExprId eid : memo.GroupExprs(g)) {
    if (ExprDuplicateFree(memo, memo.expr(eid), options, state)) {
      (*state)[g] = 2;
      return true;
    }
  }
  (*state)[g] = 0;
  return false;
}

}  // namespace

bool GroupDuplicateFree(const Memo& memo, GroupId g,
                        const ExpandOptions& options) {
  std::map<GroupId, int> state;
  return DuplicateFreeRec(memo, g, options, &state);
}

}  // namespace fgac::optimizer

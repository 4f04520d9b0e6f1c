#include "optimizer/memo.h"

#include <algorithm>
#include <cassert>

#include "algebra/plan_hash.h"

namespace fgac::optimizer {

using algebra::AggExprEquals;
using algebra::AggExprFingerprint;
using algebra::PlanKind;
using algebra::ScalarEquals;
using algebra::ScalarFingerprint;

namespace {

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4));
}

}  // namespace

GroupId Memo::Find(GroupId g) const {
  while (uf_[g] != g) {
    uf_[g] = uf_[uf_[g]];  // path halving
    g = uf_[g];
  }
  return g;
}

size_t Memo::num_live_groups() const {
  size_t n = 0;
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (!groups_[g].merged) ++n;
  }
  return n;
}

size_t Memo::num_live_exprs() const {
  size_t n = 0;
  for (const MemoExpr& e : exprs_) {
    if (!e.dead) ++n;
  }
  return n;
}

size_t Memo::ExprArity(const MemoExpr& e) const {
  switch (e.kind) {
    case PlanKind::kGet:
      return e.get_columns.size();
    case PlanKind::kValues:
      return e.values_arity;
    case PlanKind::kSelect:
    case PlanKind::kDistinct:
    case PlanKind::kSort:
    case PlanKind::kLimit:
    case PlanKind::kUnionAll:
      return groups_[Find(e.children[0])].arity;
    case PlanKind::kProject:
      return e.exprs.size();
    case PlanKind::kJoin:
      return groups_[Find(e.children[0])].arity +
             groups_[Find(e.children[1])].arity;
    case PlanKind::kAggregate:
      return e.group_by.size() + e.aggs.size();
  }
  return 0;
}

uint64_t Memo::ExprKey(const MemoExpr& e) const {
  uint64_t h = static_cast<uint64_t>(e.kind) * 0x100000001b3ULL + 0x9747b28c;
  switch (e.kind) {
    case PlanKind::kGet:
      h = HashCombine(h, std::hash<std::string>()(e.table));
      break;
    case PlanKind::kValues:
      h = HashCombine(h, e.values_arity);
      for (const Row& r : e.rows) h = HashCombine(h, RowHash()(r));
      break;
    case PlanKind::kSelect:
    case PlanKind::kJoin:
      for (const auto& p : e.predicates) {
        h = HashCombine(h, ScalarFingerprint(p));
      }
      break;
    case PlanKind::kProject:
      for (const auto& x : e.exprs) h = HashCombine(h, ScalarFingerprint(x));
      break;
    case PlanKind::kAggregate:
      for (const auto& g : e.group_by) h = HashCombine(h, ScalarFingerprint(g));
      h = HashCombine(h, 0x5151);
      for (const auto& a : e.aggs) h = HashCombine(h, AggExprFingerprint(a));
      break;
    case PlanKind::kDistinct:
    case PlanKind::kUnionAll:
      break;
    case PlanKind::kSort:
      for (const auto& s : e.sort_items) {
        h = HashCombine(h, ScalarFingerprint(s.expr) * (s.descending ? 3 : 1));
      }
      break;
    case PlanKind::kLimit:
      h = HashCombine(h, static_cast<uint64_t>(e.limit));
      break;
  }
  for (GroupId c : e.children) {
    h = HashCombine(h, static_cast<uint64_t>(Find(c)) + 0x51f1);
  }
  return h;
}

bool Memo::ExprPayloadEquals(const MemoExpr& a, const MemoExpr& b) const {
  if (a.kind != b.kind || a.children.size() != b.children.size()) return false;
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (Find(a.children[i]) != Find(b.children[i])) return false;
  }
  switch (a.kind) {
    case PlanKind::kGet:
      return a.table == b.table;
    case PlanKind::kValues: {
      if (a.values_arity != b.values_arity || a.rows.size() != b.rows.size()) {
        return false;
      }
      RowEq eq;
      for (size_t i = 0; i < a.rows.size(); ++i) {
        if (!eq(a.rows[i], b.rows[i])) return false;
      }
      return true;
    }
    case PlanKind::kSelect:
    case PlanKind::kJoin: {
      if (a.predicates.size() != b.predicates.size()) return false;
      for (size_t i = 0; i < a.predicates.size(); ++i) {
        if (!ScalarEquals(a.predicates[i], b.predicates[i])) return false;
      }
      return true;
    }
    case PlanKind::kProject: {
      if (a.exprs.size() != b.exprs.size()) return false;
      for (size_t i = 0; i < a.exprs.size(); ++i) {
        if (!ScalarEquals(a.exprs[i], b.exprs[i])) return false;
      }
      return true;
    }
    case PlanKind::kAggregate: {
      if (a.group_by.size() != b.group_by.size() ||
          a.aggs.size() != b.aggs.size()) {
        return false;
      }
      for (size_t i = 0; i < a.group_by.size(); ++i) {
        if (!ScalarEquals(a.group_by[i], b.group_by[i])) return false;
      }
      for (size_t i = 0; i < a.aggs.size(); ++i) {
        if (!AggExprEquals(a.aggs[i], b.aggs[i])) return false;
      }
      return true;
    }
    case PlanKind::kDistinct:
    case PlanKind::kUnionAll:
      return true;
    case PlanKind::kSort: {
      if (a.sort_items.size() != b.sort_items.size()) return false;
      for (size_t i = 0; i < a.sort_items.size(); ++i) {
        if (a.sort_items[i].descending != b.sort_items[i].descending ||
            !ScalarEquals(a.sort_items[i].expr, b.sort_items[i].expr)) {
          return false;
        }
      }
      return true;
    }
    case PlanKind::kLimit:
      return a.limit == b.limit;
  }
  return false;
}

bool Memo::IsSelfLoop(const MemoExpr& e) const {
  return (e.kind == PlanKind::kDistinct || e.kind == PlanKind::kSort) &&
         !e.children.empty() && Find(e.children[0]) == Find(e.group);
}

bool Memo::Indexed(const MemoExpr& e) const {
  return !e.dead || IsSelfLoop(e);
}

GroupId Memo::FindExisting(const MemoExpr& expr) const {
  auto it = dedup_.find(ExprKey(expr));
  if (it == dedup_.end()) return -1;
  for (ExprId eid : it->second) {
    const MemoExpr& existing = exprs_[eid];
    if (Indexed(existing) && ExprPayloadEquals(existing, expr)) {
      return Find(existing.group);
    }
  }
  return -1;
}

GroupId Memo::InsertExpr(MemoExpr expr, GroupId target) {
  // Canonicalize child references.
  for (GroupId& c : expr.children) c = Find(c);
  if (target >= 0) target = Find(target);

  // Trivial nodes collapse into their child so that derived expressions
  // unify with existing groups: an empty Select and an identity Project
  // are the child itself.
  if (expr.kind == PlanKind::kSelect && expr.predicates.empty()) {
    GroupId child = Find(expr.children[0]);
    if (target >= 0 && target != child) {
      MergeGroups(target, child);
      return Find(child);
    }
    return child;
  }
  if (expr.kind == PlanKind::kProject &&
      expr.exprs.size() == groups_[Find(expr.children[0])].arity) {
    bool identity = true;
    for (size_t i = 0; i < expr.exprs.size(); ++i) {
      if (expr.exprs[i]->kind != algebra::ScalarKind::kColumn ||
          expr.exprs[i]->slot != static_cast<int>(i)) {
        identity = false;
        break;
      }
    }
    if (identity) {
      GroupId child = Find(expr.children[0]);
      if (target >= 0 && target != child) {
        MergeGroups(target, child);
        return Find(child);
      }
      return child;
    }
  }

  uint64_t key = ExprKey(expr);
  auto it = dedup_.find(key);
  if (it != dedup_.end()) {
    for (ExprId eid : it->second) {
      const MemoExpr& existing = exprs_[eid];
      if (!Indexed(existing) || !ExprPayloadEquals(existing, expr)) continue;
      GroupId found = Find(existing.group);
      if (target < 0 || target == found) return found;
      // Unification: the same operation node appears in two equivalence
      // nodes -> the nodes represent the same expression; merge them.
      // Congruence closure is deferred to the next Canonicalize() batch.
      MergeGroups(target, found);
      return Find(target);
    }
  }

  ExprId eid = static_cast<ExprId>(exprs_.size());
  if (target < 0) {
    target = static_cast<GroupId>(groups_.size());
    MemoGroup g;
    g.arity = ExprArity(expr);
    groups_.push_back(std::move(g));
    uf_.push_back(target);
  }
  assert(groups_[target].arity == ExprArity(expr));
  if (groups_[target].arity != ExprArity(expr)) {
    // Arity clash means the caller routed the expression to the wrong
    // equivalence node (a rule bug). Isolate it in a fresh node rather
    // than corrupting an existing one's invariants.
    target = static_cast<GroupId>(groups_.size());
    MemoGroup g;
    g.arity = ExprArity(expr);
    groups_.push_back(std::move(g));
    uf_.push_back(target);
  }
  expr.group = target;
  for (GroupId c : expr.children) parents_[Find(c)].push_back(eid);
  exprs_.push_back(std::move(expr));
  groups_[target].exprs.push_back(eid);
  ++groups_[target].version;
  dedup_[key].push_back(eid);
  ++change_count_;
  return target;
}

GroupId Memo::InsertPlan(const algebra::PlanPtr& plan) {
  assert(plan != nullptr);
  if (plan == nullptr) {
    // Treat a missing subtree as the empty relation so exploration can
    // proceed; the planner will simply find no rows on this branch.
    MemoExpr empty;
    empty.kind = algebra::PlanKind::kValues;
    empty.values_arity = 0;
    return InsertExpr(std::move(empty));
  }
  MemoExpr e;
  e.kind = plan->kind;
  for (const algebra::PlanPtr& c : plan->children) {
    e.children.push_back(InsertPlan(c));
  }
  e.table = plan->table;
  e.get_columns = plan->get_columns;
  e.rows = plan->rows;
  e.values_arity = plan->values_arity;
  e.predicates = plan->predicates;
  e.exprs = plan->exprs;
  e.group_by = plan->group_by;
  e.aggs = plan->aggs;
  e.sort_items = plan->sort_items;
  e.limit = plan->limit;
  return InsertExpr(std::move(e));
}

void Memo::Unify(GroupId a, GroupId b) {
  MergeGroups(a, b);
  Canonicalize();
}

void Memo::MergeGroups(GroupId a, GroupId b) {
  a = Find(a);
  b = Find(b);
  if (a == b) return;
  GroupId winner = std::min(a, b);
  GroupId loser = std::max(a, b);
  MemoGroup& w = groups_[winner];
  MemoGroup& l = groups_[loser];
  assert(w.arity == l.arity);
  if (w.arity != l.arity) {
    // Merging nodes of different arity would make every expression in one
    // of them ill-typed. Refuse the merge: keeping the nodes separate only
    // costs duplicate exploration, never a wrong plan.
    return;
  }
  for (ExprId eid : l.exprs) {
    exprs_[eid].group = winner;
    w.exprs.push_back(eid);
  }
  l.exprs.clear();
  l.merged = true;
  w.version += l.version + 1;
  w.valid_u = w.valid_u || l.valid_u;
  w.valid_c = w.valid_c || l.valid_c;
  // Splice the loser's parent index into the winner's.
  auto lit = parents_.find(loser);
  if (lit != parents_.end()) {
    auto& wlist = parents_[winner];
    wlist.insert(wlist.end(), lit->second.begin(), lit->second.end());
    parents_.erase(lit);
  }
  uf_[loser] = winner;
  needs_canonicalize_ = true;
  ++change_count_;
}

void Memo::Canonicalize() {
  if (!needs_canonicalize_) return;
  bool changed = true;
  while (changed) {
    changed = false;
    needs_canonicalize_ = false;
    dedup_.clear();
    for (ExprId eid = 0; eid < static_cast<ExprId>(exprs_.size()); ++eid) {
      MemoExpr& e = exprs_[eid];
      if (!Indexed(e)) continue;
      e.group = Find(e.group);
      for (GroupId& c : e.children) c = Find(c);
      // Drop degenerate self-loops created by unification of an operator
      // with its own input (e.g. Distinct over a duplicate-free group), but
      // keep them in the dedup index: re-deriving the operator over that
      // input then resolves to the group instead of a fresh expression.
      if (IsSelfLoop(e)) {
        e.dead = true;
        dedup_[ExprKey(e)].push_back(eid);
        continue;
      }
      if (e.dead) continue;
      uint64_t key = ExprKey(e);
      auto& bucket = dedup_[key];
      bool duplicate = false;
      for (ExprId other : bucket) {
        if (!Indexed(exprs_[other]) || !ExprPayloadEquals(exprs_[other], e)) {
          continue;
        }
        GroupId go = Find(exprs_[other].group);
        if (go == e.group) {
          e.dead = true;  // same node twice in one group
        } else {
          MergeGroups(go, e.group);
          changed = true;
        }
        duplicate = true;
        break;
      }
      if (!duplicate) bucket.push_back(eid);
    }
  }
  // Compact group expr lists (drop dead entries and stale ids).
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].merged) continue;
    auto& list = groups_[g].exprs;
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](ExprId eid) {
                                return exprs_[eid].dead ||
                                       exprs_[eid].group !=
                                           static_cast<GroupId>(g);
                              }),
               list.end());
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
}

std::vector<ExprId> Memo::GroupExprs(GroupId g) const {
  g = Find(g);
  std::vector<ExprId> out;
  for (ExprId eid : groups_[g].exprs) {
    if (!exprs_[eid].dead) out.push_back(eid);
  }
  return out;
}

std::vector<ExprId> Memo::ParentsOf(GroupId g) const {
  g = Find(g);
  std::vector<ExprId> out;
  auto it = parents_.find(g);
  if (it == parents_.end()) return out;
  for (ExprId eid : it->second) {
    const MemoExpr& e = exprs_[eid];
    if (e.dead) continue;
    bool references = false;
    for (GroupId c : e.children) {
      if (Find(c) == g) {
        references = true;
        break;
      }
    }
    if (references) out.push_back(eid);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Memo::MarkValidU(GroupId g) {
  MemoGroup& grp = mutable_group(g);
  if (grp.valid_u && grp.valid_c) return;
  grp.valid_u = true;
  grp.valid_c = true;  // rule C1
  ++change_count_;
}

void Memo::MarkValidC(GroupId g) {
  MemoGroup& grp = mutable_group(g);
  if (grp.valid_c) return;
  grp.valid_c = true;
  ++change_count_;
}

namespace {

algebra::PlanPtr PlanFromExprPayload(const MemoExpr& e,
                                     std::vector<algebra::PlanPtr> children) {
  auto p = std::make_shared<algebra::Plan>();
  p->kind = e.kind;
  p->children = std::move(children);
  p->table = e.table;
  p->get_columns = e.get_columns;
  p->rows = e.rows;
  p->values_arity = e.values_arity;
  p->predicates = e.predicates;
  p->exprs = e.exprs;
  p->group_by = e.group_by;
  p->aggs = e.aggs;
  p->sort_items = e.sort_items;
  p->limit = e.limit;
  return p;
}

}  // namespace

Result<algebra::PlanPtr> Memo::AnyPlan(GroupId g) const {
  g = Find(g);
  // Iterative-deepening-free approach: DFS with an on-path guard; try each
  // expression until one closes without a cycle.
  std::vector<bool> on_path(groups_.size(), false);
  std::function<Result<algebra::PlanPtr>(GroupId)> build =
      [&](GroupId gid) -> Result<algebra::PlanPtr> {
    gid = Find(gid);
    if (on_path[gid]) {
      return Status::InvalidArgument("cycle in memo group " +
                                     std::to_string(gid));
    }
    on_path[gid] = true;
    Status last = Status::InvalidArgument("group has no live expressions");
    for (ExprId eid : GroupExprs(gid)) {
      const MemoExpr& e = exprs_[eid];
      std::vector<algebra::PlanPtr> children;
      bool ok = true;
      for (GroupId c : e.children) {
        Result<algebra::PlanPtr> child = build(c);
        if (!child.ok()) {
          last = child.status();
          ok = false;
          break;
        }
        children.push_back(std::move(child).value());
      }
      if (!ok) continue;
      on_path[gid] = false;
      return PlanFromExprPayload(e, std::move(children));
    }
    on_path[gid] = false;
    return last;
  };
  return build(g);
}

std::vector<std::string> Memo::BaseTables(GroupId g) const {
  std::vector<std::string> out;
  std::vector<bool> on_path(groups_.size(), false);
  std::function<void(GroupId)> walk = [&](GroupId gid) {
    gid = Find(gid);
    if (on_path[gid]) return;
    on_path[gid] = true;
    for (ExprId eid : groups_[gid].exprs) {
      const MemoExpr& e = exprs_[eid];
      if (e.dead) continue;
      if (e.kind == PlanKind::kGet) {
        out.push_back(e.table);
      } else {
        for (GroupId c : e.children) walk(c);
      }
      break;  // one witness expression suffices; alternatives agree
    }
    on_path[gid] = false;
  };
  walk(g);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

double Memo::CountPlans(GroupId g, double cap) const {
  std::vector<double> memo(groups_.size(), -1.0);
  std::vector<bool> on_path(groups_.size(), false);
  std::function<double(GroupId)> count = [&](GroupId gid) -> double {
    gid = Find(gid);
    if (memo[gid] >= 0) return memo[gid];
    if (on_path[gid]) return 0.0;  // break cycles conservatively
    on_path[gid] = true;
    double total = 0.0;
    for (ExprId eid : GroupExprs(gid)) {
      const MemoExpr& e = exprs_[eid];
      double prod = 1.0;
      for (GroupId c : e.children) prod *= count(c);
      total += prod;
      if (total > cap) {
        total = cap;
        break;
      }
    }
    on_path[gid] = false;
    memo[gid] = total;
    return total;
  };
  return count(g);
}

std::string Memo::ToString() const {
  std::string out;
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].merged) continue;
    out += "group " + std::to_string(g);
    if (groups_[g].valid_u) out += " [valid-U]";
    else if (groups_[g].valid_c) out += " [valid-C]";
    out += " (arity " + std::to_string(groups_[g].arity) + ")\n";
    for (ExprId eid : groups_[g].exprs) {
      const MemoExpr& e = exprs_[eid];
      if (e.dead) continue;
      out += "  #" + std::to_string(eid) + " ";
      switch (e.kind) {
        case PlanKind::kGet: out += "Get(" + e.table + ")"; break;
        case PlanKind::kValues:
          out += "Values(" + std::to_string(e.rows.size()) + ")";
          break;
        case PlanKind::kSelect: {
          out += "Select[";
          for (size_t i = 0; i < e.predicates.size(); ++i) {
            if (i > 0) out += " AND ";
            out += algebra::ScalarToString(e.predicates[i]);
          }
          out += "]";
          break;
        }
        case PlanKind::kProject: {
          out += "Project[";
          for (size_t i = 0; i < e.exprs.size(); ++i) {
            if (i > 0) out += ", ";
            out += algebra::ScalarToString(e.exprs[i]);
          }
          out += "]";
          break;
        }
        case PlanKind::kJoin: {
          out += e.predicates.empty() ? "CrossJoin" : "Join[";
          for (size_t i = 0; i < e.predicates.size(); ++i) {
            if (i > 0) out += " AND ";
            out += algebra::ScalarToString(e.predicates[i]);
          }
          if (!e.predicates.empty()) out += "]";
          break;
        }
        case PlanKind::kAggregate: {
          out += "Aggregate[by ";
          for (size_t i = 0; i < e.group_by.size(); ++i) {
            if (i > 0) out += ",";
            out += algebra::ScalarToString(e.group_by[i]);
          }
          out += "; ";
          for (size_t i = 0; i < e.aggs.size(); ++i) {
            if (i > 0) out += ",";
            out += algebra::AggFuncName(e.aggs[i].func);
          }
          out += "]";
          break;
        }
        case PlanKind::kDistinct: out += "Distinct"; break;
        case PlanKind::kSort: out += "Sort"; break;
        case PlanKind::kLimit:
          out += "Limit[" + std::to_string(e.limit) + "]";
          break;
        case PlanKind::kUnionAll: out += "UnionAll"; break;
      }
      out += " (";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(Find(e.children[i]));
      }
      out += ")\n";
    }
  }
  return out;
}

}  // namespace fgac::optimizer

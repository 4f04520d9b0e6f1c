#include "optimizer/optimizer.h"

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>

#include "algebra/normalize.h"

namespace fgac::optimizer {

using algebra::PlanKind;
using algebra::PlanPtr;
using algebra::ScalarPtr;

namespace {

struct Best {
  ExprId expr = -1;
  CostEstimate estimate;
};

class Extractor {
 public:
  Extractor(const Memo& memo, const TableRowCount& row_count)
      : memo_(memo), row_count_(row_count) {}

  Result<Best> BestOf(GroupId g) {
    g = memo_.Find(g);
    auto it = best_.find(g);
    if (it != best_.end()) return it->second;
    if (on_path_.count(g) > 0) {
      // Cycle: no finite plan through this path.
      return Status::InvalidArgument("cyclic memo group");
    }
    on_path_.insert(g);
    Best best;
    best.estimate.cost = std::numeric_limits<double>::infinity();
    for (ExprId eid : memo_.GroupExprs(g)) {
      const MemoExpr& e = memo_.expr(eid);
      bool feasible = true;
      auto child_cost = [&](GroupId c) -> CostEstimate {
        Result<Best> b = BestOf(c);
        if (!b.ok()) {
          feasible = false;
          return CostEstimate{0.0, std::numeric_limits<double>::infinity()};
        }
        return b.value().estimate;
      };
      CostEstimate est = e.kind == PlanKind::kGet
                             ? ScanCost(e.table, row_count_)
                             : EstimateExprCost(memo_, eid, child_cost);
      if (!feasible || std::isinf(est.cost)) continue;
      if (est.cost < best.estimate.cost) {
        best.expr = eid;
        best.estimate = est;
      }
    }
    on_path_.erase(g);
    if (best.expr < 0) {
      return Status::InvalidArgument("no feasible plan for memo group " +
                                     std::to_string(g));
    }
    best_.emplace(g, best);
    return best;
  }

  Result<PlanPtr> BuildPlan(GroupId g) {
    FGAC_ASSIGN_OR_RETURN(Best best, BestOf(g));
    const MemoExpr& e = memo_.expr(best.expr);
    auto p = std::make_shared<algebra::Plan>();
    p->kind = e.kind;
    for (GroupId c : e.children) {
      FGAC_ASSIGN_OR_RETURN(PlanPtr child, BuildPlan(c));
      p->children.push_back(std::move(child));
    }
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
    return PlanPtr(p);
  }

 private:
  const Memo& memo_;
  const TableRowCount& row_count_;
  std::map<GroupId, Best> best_;
  std::set<GroupId> on_path_;
};

/// Join ordering over maximal inner-join regions of an extracted plan: a
/// tree of Joins, plus Selects over Joins, whose leaves are any other
/// operators. Each region is flattened into its leaves, each leaf
/// reordered recursively, and the region's conjuncts are remapped into one
/// slot space. A conjunct runs at the lowest join that covers its leaves;
/// a single-leaf conjunct filters its leaf.
///
/// The order is chosen by dynamic programming over leaf subsets (DPsub:
/// every split of every subset, both orientations, cross products
/// included), or past kMaxDpLeaves by a greedy pairwise merge. The memo
/// is positional, so a join order fixes a column order too. Each subset
/// keeps two entries: its cheapest tree in any column order, and its
/// cheapest tree in written order (leaves ascending), which is either a
/// join of two written-order parts, the first's leaves all before the
/// second's, or a restoring Project over the any-order tree. A Project or
/// Aggregate directly above the region absorbs the permutation instead.
/// The written region stays a candidate, so the result never costs more
/// under the model; ties keep the earlier candidate and the first split
/// enumerated.
class JoinOrderer {
 public:
  explicit JoinOrderer(const TableRowCount& row_count)
      : row_count_(row_count) {}

  PlanPtr Reorder(const PlanPtr& plan) {
    if ((plan->kind == PlanKind::kProject ||
         plan->kind == PlanKind::kAggregate) &&
        IsRegionNode(*plan->children[0])) {
      return OrderRegion(plan->children[0], plan);
    }
    if (IsRegionNode(*plan)) return OrderRegion(plan, nullptr);
    std::vector<PlanPtr> children;
    for (const PlanPtr& c : plan->children) children.push_back(Reorder(c));
    return WithChildren(plan, std::move(children));
  }

  size_t leaves() const { return leaves_; }
  size_t splits() const { return splits_; }

 private:
  static constexpr size_t kMaxDpLeaves = 10;
  /// Leaf sets are 64-bit masks; a wider region keeps its written order.
  static constexpr size_t kMaxLeaves = 64;
  using LeafSet = uint64_t;

  /// A conjunct over two or more leaves, in the region's slot space.
  struct Conjunct {
    ScalarPtr pred;
    LeafSet leaves = 0;
    /// For `x = y`: the leaves each operand reads (hash-join test).
    LeafSet lhs = 0;
    LeafSet rhs = 0;
    double selectivity = 1.0;
  };

  struct Region {
    std::vector<PlanPtr> leaves;
    std::vector<int> offset;  // first region slot of each leaf
    std::vector<int> arity;
    int width = 0;
    std::vector<ScalarPtr> preds;  // every conjunct, region slot space
  };

  /// The conjuncts that lie within a leaf set: how many, and the product
  /// of their selectivities. The conjuncts that run at a join of `l` and
  /// `r` are those within l ∪ r but within neither side.
  struct Inside {
    size_t count = 0;
    double sel = 1.0;
  };

  /// A join tree over a leaf set: its estimate and the conjuncts within.
  struct Part {
    LeafSet leaves = 0;
    CostEstimate est;
    Inside inside;
  };

  /// How a subset's entry is built: a join of the any-order or of the
  /// written-order entries of `left` and the rest, or a restoring Project
  /// over the subset's any-order entry.
  enum class How { kJoinAny, kJoinWritten, kRestore };
  struct Choice {
    How how = How::kJoinAny;
    LeafSet left = 0;
  };

  static bool IsRegionNode(const algebra::Plan& p) {
    return p.kind == PlanKind::kJoin ||
           (p.kind == PlanKind::kSelect && IsRegionNode(*p.children[0]));
  }

  static PlanPtr WithChildren(const PlanPtr& node,
                              std::vector<PlanPtr> children) {
    if (children == node->children) return node;
    auto copy = std::make_shared<algebra::Plan>(*node);
    copy->children = std::move(children);
    return copy;
  }

  static ScalarPtr Shift(const ScalarPtr& s, int by) {
    if (by == 0) return s;
    return algebra::RemapSlots(s, [by](int slot) { return slot + by; });
  }

  static bool Within(LeafSet a, LeafSet b) { return (a & ~b) == 0; }

  /// Collects the region's leaves (reordered recursively) and conjuncts;
  /// returns the region's written tree over the reordered leaves.
  PlanPtr Flatten(const PlanPtr& node, Region* r) {
    const int base = r->width;
    if (!IsRegionNode(*node)) {
      PlanPtr leaf = Reorder(node);
      r->leaves.push_back(leaf);
      r->offset.push_back(base);
      r->arity.push_back(static_cast<int>(algebra::OutputArity(*leaf)));
      r->width += r->arity.back();
      return leaf;
    }
    std::vector<PlanPtr> children;
    for (const PlanPtr& c : node->children) children.push_back(Flatten(c, r));
    for (const ScalarPtr& p : node->predicates) r->preds.push_back(Shift(p, base));
    return WithChildren(node, std::move(children));
  }

  /// Orders the region rooted at `root`. `consumer`, when set, is the
  /// Project or Aggregate directly above it, which the result then
  /// includes: it reads its input by slot, so it can absorb a permutation.
  PlanPtr OrderRegion(const PlanPtr& root, const PlanPtr& consumer) {
    Region r;
    PlanPtr written = Flatten(root, &r);
    if (consumer != nullptr) written = WithChildren(consumer, {written});
    const size_t n = r.leaves.size();
    if (n > kMaxLeaves) return written;
    leaves_ += n;
    PrepareRegion(&r);
    if (n <= kMaxDpLeaves) {
      DpSub(n);
    } else {
      Greedy(n);
    }
    // Candidates in preference order; the first of the cheapest wins.
    const LeafSet all = n == 64 ? ~LeafSet{0} : (LeafSet{1} << n) - 1;
    std::vector<int> order;
    PlanPtr tree = Build(all, /*written=*/true, r, &order);
    std::vector<PlanPtr> candidates = {
        written, consumer == nullptr ? tree : WithChildren(consumer, {tree})};
    if (consumer != nullptr) {
      order.clear();
      candidates.push_back(
          Absorb(consumer, Build(all, /*written=*/false, r, &order), order));
    }
    PlanPtr best = written;
    double best_cost = EstimatePlanCost(written, row_count_).cost;
    for (size_t i = 1; i < candidates.size(); ++i) {
      double cost = EstimatePlanCost(candidates[i], row_count_).cost;
      if (cost < best_cost) {
        best = candidates[i];
        best_cost = cost;
      }
    }
    return best;
  }

  /// `consumer` over `tree`, whose column k holds region slot order[k].
  static PlanPtr Absorb(const PlanPtr& consumer, PlanPtr tree,
                        const std::vector<int>& order) {
    std::vector<ScalarPtr> columns(order.size());
    for (size_t pos = 0; pos < order.size(); ++pos) {
      columns[static_cast<size_t>(order[pos])] =
          algebra::MakeColumn(static_cast<int>(pos));
    }
    auto permuted = [&columns](const ScalarPtr& x) {
      return x == nullptr ? x
                          : algebra::NormalizeScalar(
                                algebra::SubstituteSlots(x, columns));
    };
    auto absorbed = std::make_shared<algebra::Plan>(*consumer);
    for (ScalarPtr& x : absorbed->exprs) x = permuted(x);
    for (ScalarPtr& x : absorbed->group_by) x = permuted(x);
    for (algebra::AggExpr& a : absorbed->aggs) a.arg = permuted(a.arg);
    absorbed->children = {std::move(tree)};
    return absorbed;
  }

  /// Classifies the region's conjuncts and prices its leaves, each
  /// filtered by its single-leaf conjuncts.
  void PrepareRegion(Region* r) {
    const size_t n = r->leaves.size();
    std::vector<int> slot_leaf(static_cast<size_t>(r->width));
    for (size_t i = 0; i < n; ++i) {
      for (int s = 0; s < r->arity[i]; ++s) {
        slot_leaf[static_cast<size_t>(r->offset[i] + s)] = static_cast<int>(i);
      }
    }
    auto leaves_of = [&](const ScalarPtr& s) {
      std::set<int> slots;
      algebra::CollectSlots(s, &slots);
      LeafSet m = 0;
      for (int slot : slots) m |= LeafSet{1} << slot_leaf[static_cast<size_t>(slot)];
      return m;
    };
    // Sorting, dedup and the equality closure over the whole region.
    std::vector<std::vector<ScalarPtr>> leaf_preds(n);
    conjuncts_.clear();
    constant_.clear();
    for (const ScalarPtr& p : algebra::NormalizePredicates(r->preds)) {
      LeafSet m = leaves_of(p);
      if (m == 0) {
        constant_.push_back(p);
      } else if (std::popcount(m) == 1) {
        int i = std::countr_zero(m);
        leaf_preds[static_cast<size_t>(i)].push_back(Shift(p, -r->offset[i]));
      } else {
        Conjunct c;
        c.pred = p;
        c.leaves = m;
        if (p->kind == algebra::ScalarKind::kBinary &&
            p->bin_op == sql::BinOp::kEq) {
          c.lhs = leaves_of(p->left);
          c.rhs = leaves_of(p->right);
        }
        c.selectivity = ConjunctSelectivity(p);
        conjuncts_.push_back(std::move(c));
      }
    }
    eq_neighbors_.assign(n, 0);
    wide_equi_.clear();
    for (const Conjunct& c : conjuncts_) {
      if (c.lhs == 0 || c.rhs == 0) continue;
      if (std::popcount(c.lhs) == 1 && std::popcount(c.rhs) == 1) {
        eq_neighbors_[static_cast<size_t>(std::countr_zero(c.lhs))] |= c.rhs;
        eq_neighbors_[static_cast<size_t>(std::countr_zero(c.rhs))] |= c.lhs;
      } else {
        wide_equi_.push_back(&c);
      }
    }
    leaf_plans_.clear();
    leaf_est_.clear();
    for (size_t i = 0; i < n; ++i) {
      leaf_plans_.push_back(WithFilter(r->leaves[i], std::move(leaf_preds[i])));
      leaf_est_.push_back(EstimatePlanCost(leaf_plans_.back(), row_count_));
    }
    any_.clear();
    written_.clear();
  }

  static PlanPtr WithFilter(const PlanPtr& leaf, std::vector<ScalarPtr> preds) {
    if (preds.empty()) return leaf;
    if (leaf->kind != PlanKind::kSelect) {
      return algebra::MakeSelect(algebra::NormalizePredicates(std::move(preds)),
                                 leaf);
    }
    preds.insert(preds.end(), leaf->predicates.begin(), leaf->predicates.end());
    return algebra::MakeSelect(algebra::NormalizePredicates(std::move(preds)),
                               leaf->children[0]);
  }

  Inside InsideOf(LeafSet s) const {
    Inside in;
    for (const Conjunct& c : conjuncts_) {
      if (!Within(c.leaves, s)) continue;
      ++in.count;
      in.sel *= c.selectivity;
    }
    return in;
  }

  /// True when some `x = y` conjunct reads only `l` on one side and only
  /// `r` on the other: the cost model's hash-join test.
  bool Equi(LeafSet l, LeafSet r) const {
    for (LeafSet m = l; m != 0; m &= m - 1) {
      if ((eq_neighbors_[static_cast<size_t>(std::countr_zero(m))] & r) != 0) {
        return true;
      }
    }
    for (const Conjunct* c : wide_equi_) {
      if ((Within(c->lhs, l) && Within(c->rhs, r)) ||
          (Within(c->lhs, r) && Within(c->rhs, l))) {
        return true;
      }
    }
    return false;
  }

  /// The cost model's estimate for joining `l` (left, probe) with `r`
  /// (right, build) under the conjuncts that run there; `both` is
  /// InsideOf(l ∪ r).
  CostEstimate Join(const Part& l, const Part& r, const Inside& both) {
    ++splits_;
    size_t placed = both.count - l.inside.count - r.inside.count;
    // Products of hundreds of conjuncts underflow; the floor applies then.
    double outside = l.inside.sel * r.inside.sel;
    double sel = outside > 0.0 ? both.sel / outside : 0.0;
    return JoinCost(l.est, r.est, placed > 0, Equi(l.leaves, r.leaves),
                    std::max(sel, 1e-9));
  }

  /// Exact search over every leaf subset in increasing mask order (a
  /// subset's proper subsets are smaller masks).
  void DpSub(size_t n) {
    const LeafSet full = (LeafSet{1} << n) - 1;
    std::vector<Part> any(full + 1), written(full + 1);
    for (LeafSet s = 1; s <= full; ++s) {
      Part& a = any[s];
      Part& w = written[s];
      a.leaves = w.leaves = s;
      a.inside = w.inside = InsideOf(s);
      if (std::popcount(s) == 1) {
        a.est = w.est = leaf_est_[static_cast<size_t>(std::countr_zero(s))];
        continue;
      }
      Choice ac, wc;
      for (LeafSet l = (s - 1) & s; l != 0; l = (l - 1) & s) {
        LeafSet rest = s ^ l;
        // The first split is taken even at an infinite cost.
        CostEstimate est = Join(any[l], any[rest], a.inside);
        if (ac.left == 0 || est.cost < a.est.cost) {
          a.est = est;
          ac = {How::kJoinAny, l};
        }
        if (static_cast<int>(std::bit_width(l)) <= std::countr_zero(rest)) {
          est = Join(written[l], written[rest], a.inside);
          if (wc.left == 0 || est.cost < w.est.cost) {
            w.est = est;
            wc = {How::kJoinWritten, l};
          }
        }
      }
      CostEstimate restore{a.est.rows, a.est.cost + a.est.rows};
      if (restore.cost < w.est.cost) {
        w.est = restore;
        wc = {How::kRestore, s};
      }
      if (w.est.cost < a.est.cost) {
        a.est = w.est;
        ac = wc;
      }
      any_[s] = ac;
      written_[s] = wc;
    }
  }

  /// Past kMaxDpLeaves: repeatedly make the cheapest join of two current
  /// subtrees (either orientation; ties keep the lowest index pair), then
  /// restore the written order at the top.
  void Greedy(size_t n) {
    std::vector<Part> parts;
    for (size_t i = 0; i < n; ++i) {
      LeafSet s = LeafSet{1} << i;
      parts.push_back(Part{s, leaf_est_[i], InsideOf(s)});
    }
    while (parts.size() > 1) {
      size_t bi = 0, bj = 1;
      Part best;
      for (size_t i = 0; i < parts.size(); ++i) {
        for (size_t j = 0; j < parts.size(); ++j) {
          if (i == j) continue;
          LeafSet s = parts[i].leaves | parts[j].leaves;
          Inside both = InsideOf(s);
          CostEstimate est = Join(parts[i], parts[j], both);
          if (best.leaves == 0 || est.cost < best.est.cost) {
            best = Part{s, est, both};
            bi = i;
            bj = j;
          }
        }
      }
      any_[best.leaves] = {How::kJoinAny, parts[bi].leaves};
      parts[std::min(bi, bj)] = best;
      parts.erase(parts.begin() +
                  static_cast<std::ptrdiff_t>(std::max(bi, bj)));
    }
    written_[parts[0].leaves] = {How::kRestore, parts[0].leaves};
  }

  /// Materializes the any-order or written-order entry of leaf set `s`,
  /// appending the region slot of each output column to `order`.
  PlanPtr Build(LeafSet s, bool written, const Region& r,
                std::vector<int>* order) {
    const size_t start = order->size();
    if (std::popcount(s) == 1) {
      int i = std::countr_zero(s);
      for (int k = 0; k < r.arity[static_cast<size_t>(i)]; ++k) {
        order->push_back(r.offset[static_cast<size_t>(i)] + k);
      }
      return leaf_plans_[static_cast<size_t>(i)];
    }
    const Choice& c = written ? written_.at(s) : any_.at(s);
    if (c.how == How::kRestore) {
      PlanPtr tree = Build(s, /*written=*/false, r, order);
      std::vector<int> slots(order->begin() + static_cast<std::ptrdiff_t>(start),
                             order->end());
      std::vector<int> sorted = slots;
      std::sort(sorted.begin(), sorted.end());
      if (slots == sorted) return tree;
      std::vector<ScalarPtr> columns;
      for (int slot : sorted) {
        auto it = std::find(slots.begin(), slots.end(), slot);
        columns.push_back(
            algebra::MakeColumn(static_cast<int>(it - slots.begin())));
      }
      std::copy(sorted.begin(), sorted.end(),
                order->begin() + static_cast<std::ptrdiff_t>(start));
      return algebra::MakeProject(std::move(columns), {}, tree);
    }
    const bool children_written = c.how == How::kJoinWritten;
    const LeafSet rest = s ^ c.left;
    PlanPtr left = Build(c.left, children_written, r, order);
    PlanPtr right = Build(rest, children_written, r, order);
    // Region slot -> column of this join's output (the tail of `order`).
    std::vector<int> pos(static_cast<size_t>(r.width), -1);
    for (size_t k = start; k < order->size(); ++k) {
      pos[static_cast<size_t>((*order)[k])] = static_cast<int>(k - start);
    }
    std::vector<ScalarPtr> preds;
    for (const Conjunct& cj : conjuncts_) {
      if (!Within(cj.leaves, s) || Within(cj.leaves, c.left) ||
          Within(cj.leaves, rest)) {
        continue;
      }
      preds.push_back(algebra::RemapSlots(cj.pred, [&pos](int slot) {
        return pos[static_cast<size_t>(slot)];
      }));
    }
    // Slot-free conjuncts run once, at the region's top join.
    if (std::popcount(s) == static_cast<int>(r.leaves.size())) {
      preds.insert(preds.end(), constant_.begin(), constant_.end());
    }
    return algebra::MakeJoin(algebra::NormalizePredicates(std::move(preds)),
                             std::move(left), std::move(right));
  }

  const TableRowCount& row_count_;
  size_t leaves_ = 0;
  size_t splits_ = 0;
  // Per-region scratch.
  std::vector<Conjunct> conjuncts_;
  std::vector<ScalarPtr> constant_;
  /// Per leaf: the leaves it shares an `x = y` conjunct with, each side
  /// one leaf; wide_equi_ holds the `x = y` conjuncts with a wider side.
  std::vector<LeafSet> eq_neighbors_;
  std::vector<const Conjunct*> wide_equi_;
  std::vector<PlanPtr> leaf_plans_;
  std::vector<CostEstimate> leaf_est_;
  std::unordered_map<LeafSet, Choice> any_;
  std::unordered_map<LeafSet, Choice> written_;
};

}  // namespace

Result<OptimizeResult> ExtractBestPlan(const Memo& memo, GroupId root,
                                       const TableRowCount& row_count) {
  Extractor extractor(memo, row_count);
  FGAC_ASSIGN_OR_RETURN(Best best, extractor.BestOf(root));
  OptimizeResult out;
  FGAC_ASSIGN_OR_RETURN(out.plan, extractor.BuildPlan(root));
  out.estimated_rows = best.estimate.rows;
  out.estimated_cost = best.estimate.cost;
  out.memo_groups = memo.num_live_groups();
  out.memo_exprs = memo.num_live_exprs();
  return out;
}

Result<OptimizeResult> Optimize(const algebra::PlanPtr& plan,
                                const ExpandOptions& options,
                                const TableRowCount& row_count) {
  // Join order is the JoinOrderer's job: commute/associate expansion would
  // enumerate the same orders as memo expressions, exponentially many.
  ExpandOptions structural = options;
  structural.enable_join_commute = false;
  structural.enable_join_assoc = false;
  Memo memo;
  GroupId root = memo.InsertPlan(plan);
  ExpandStats stats = ExpandMemo(&memo, structural);
  FGAC_ASSIGN_OR_RETURN(OptimizeResult out,
                        ExtractBestPlan(memo, memo.Find(root), row_count));
  out.expand_stats = stats;
  JoinOrderer orderer(row_count);
  out.plan = orderer.Reorder(out.plan);
  CostEstimate est = EstimatePlanCost(out.plan, row_count);
  out.estimated_rows = est.rows;
  out.estimated_cost = est.cost;
  out.join_leaves = orderer.leaves();
  out.join_splits = orderer.splits();
  return out;
}

}  // namespace fgac::optimizer

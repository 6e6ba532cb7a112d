// Value-change cutoff recalculation and the dirty-subgraph wave plans
// the recalc scheduler (sched/recalc_scheduler.h) builds, runs and
// summarizes for EXPLAIN.
//
// Full recalc re-evaluates the whole transitive closure of a dirty set
// even when most recomputed values come out identical (a constant
// overwritten with the same constant, an IF/MIN that absorbs the change,
// a chain where the delta dies two hops in). Cutoff recalc evaluates the
// frontier wave-by-wave and compares each committed value against its
// prior cached value: dependents reachable ONLY through unchanged cells
// are pruned from later waves and their prior values restored instead of
// recomputed.
//
// Correctness argument (why cutoff output is cell-for-cell identical to
// full recalc, by construction):
//   * Acyclic dirty formulas are pure functions of their precedents. A
//     node is pruned only when it has no direct seed input (no reference
//     overlapping an edited rectangle, not itself edited) and every
//     dirty precedent committed value-unchanged — so every one of its
//     inputs holds exactly the value it held before the edit, and
//     re-evaluating it would reproduce the prior value bit-for-bit.
//   * Pruning requires a captured prior: a cell whose value was never
//     cached (cold cache, fresh session) always evaluates.
//   * Cycle-involved cells and their downstream never become ready in
//     Kahn's algorithm; they replay serially in node order exactly like
//     the un-cut path, so #CYCLE! placement is order-identical. Cutoff
//     NEVER applies to them.

#ifndef TACO_EVAL_CUTOFF_H_
#define TACO_EVAL_CUTOFF_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "eval/evaluator.h"
#include "eval/value.h"
#include "formula/ast.h"
#include "sheet/sheet.h"

namespace taco {

/// Per-pass cutoff state, captured by the engine BEFORE the dirty set is
/// invalidated: the edited rectangles (whose dependents must always
/// evaluate) and the prior cached value of every dirty formula cell that
/// had one. A cell absent from `prior` is treated as changed.
struct CutoffContext {
  std::vector<Range> seeds;
  std::unordered_map<Cell, Value> prior;
};

/// Snapshots the cached value of every dirty formula cell into
/// `ctx->prior`. Must run before the evaluator is invalidated for the
/// pass (the whole point is remembering what the cells were worth).
void CapturePriorValues(const Sheet& sheet, const Evaluator& evaluator,
                        std::span<const Range> dirty, CutoffContext* ctx);

/// Appends every dirty formula cell (and its AST) in dirty-range
/// enumeration order — the node order both serial-inline evaluation and
/// the leftover replay depend on.
void CollectDirtyFormulaCells(const Sheet& sheet, std::span<const Range> dirty,
                              std::vector<Cell>* nodes,
                              std::vector<const Expr*>* asts);

/// The dirty subgraph in wave form: one node per dirty formula cell,
/// cell-level edges from reference expansion, Kahn waves, and the
/// cycle-blocked leftover.
struct CellWavePlan {
  std::vector<Cell> nodes;
  std::vector<const Expr*> asts;
  /// adj[p] lists the node indices depending on node p. Duplicate
  /// references produce duplicate edges (harmless: indegree and
  /// adjacency stay matched).
  std::vector<std::vector<int>> adj;
  /// Node reads an edited rectangle directly (a reference overlaps a
  /// seed, or the node itself was edited): cutoff never prunes it.
  std::vector<char> forced;
  uint64_t edges = 0;
  /// Edge expansion blew `max_edges`; waves/leftover are unusable and
  /// the caller runs the pass serial-inline.
  bool over_budget = false;
  std::vector<std::vector<int>> waves;
  std::vector<int> leftover;  ///< Cycle members + downstream, node order.
};

/// Expands `nodes`' references into cell-level edges (bounded by
/// `max_edges`), marks the nodes that read or are one of the edited
/// `seeds` (cutoff never prunes them), and builds the waves.
CellWavePlan BuildCellWavePlan(std::vector<Cell> nodes,
                               std::vector<const Expr*> asts,
                               std::span<const Range> seeds,
                               uint64_t max_edges);

}  // namespace taco

#endif  // TACO_EVAL_CUTOFF_H_

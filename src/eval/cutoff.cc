#include "eval/cutoff.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/range_set.h"
#include "formula/references.h"

namespace taco {

void CapturePriorValues(const Sheet& sheet, const Evaluator& evaluator,
                        std::span<const Range> dirty, CutoffContext* ctx) {
  for (const Range& range : dirty) {
    for (const Cell& cell : EnumerateCells(range)) {
      if (!sheet.IsFormulaCell(cell)) continue;
      if (const Value* cached = evaluator.FindCached(cell)) {
        ctx->prior.emplace(cell, *cached);
      }
    }
  }
}

namespace {

/// Partitions Kahn-style ready counts into waves. `adj[p]` lists the
/// nodes depending on p; `indeg` is consumed. Waves come out sorted by
/// node index so the partition is canonical regardless of adjacency
/// discovery order. Nodes still blocked at the end (on or downstream of
/// a cycle) are returned through `leftover`, in node order.
std::vector<std::vector<int>> BuildWaves(
    const std::vector<std::vector<int>>& adj, std::vector<int>* indeg,
    std::vector<int>* leftover) {
  const int n = static_cast<int>(indeg->size());
  std::vector<std::vector<int>> waves;
  std::vector<int> current;
  for (int i = 0; i < n; ++i) {
    if ((*indeg)[i] == 0) current.push_back(i);
  }
  int scheduled = 0;
  while (!current.empty()) {
    scheduled += static_cast<int>(current.size());
    std::vector<int> next;
    for (int node : current) {
      for (int dependent : adj[node]) {
        if (--(*indeg)[dependent] == 0) next.push_back(dependent);
      }
    }
    std::sort(next.begin(), next.end());
    waves.push_back(std::move(current));
    current = std::move(next);
  }
  if (scheduled < n) {
    leftover->reserve(n - scheduled);
    for (int i = 0; i < n; ++i) {
      if ((*indeg)[i] > 0) leftover->push_back(i);
    }
  }
  return waves;
}

}  // namespace

void CollectDirtyFormulaCells(const Sheet& sheet, std::span<const Range> dirty,
                              std::vector<Cell>* nodes,
                              std::vector<const Expr*>* asts) {
  for (const Range& range : dirty) {
    for (const Cell& cell : EnumerateCells(range)) {
      const CellContent* content = sheet.Get(cell);
      if (content != nullptr && content->IsFormula()) {
        nodes->push_back(cell);
        asts->push_back(content->formula().ast.get());
      }
    }
  }
}

CellWavePlan BuildCellWavePlan(std::vector<Cell> nodes,
                               std::vector<const Expr*> asts,
                               std::span<const Range> seeds,
                               uint64_t max_edges) {
  CellWavePlan plan;
  plan.nodes = std::move(nodes);
  plan.asts = std::move(asts);
  const int n = static_cast<int>(plan.nodes.size());
  plan.forced.assign(n, 0);

  // Per-column row index over the dirty nodes, for reference-range
  // intersection: ordered by column so a wide reference only visits
  // columns that actually hold dirty cells.
  std::map<int32_t, std::vector<std::pair<int32_t, int>>> columns;
  for (int i = 0; i < n; ++i) {
    columns[plan.nodes[i].col].emplace_back(plan.nodes[i].row, i);
    if (!seeds.empty() && CoversCell(seeds, plan.nodes[i])) {
      plan.forced[i] = 1;  // The node itself was edited.
    }
  }
  for (auto& [col, rows] : columns) std::sort(rows.begin(), rows.end());

  // Expand each node's references into cell-level dirty edges
  // (precedent -> dependent), bounded by the edge budget.
  plan.adj.resize(n);
  std::vector<int> indeg(n, 0);
  std::vector<A1Reference> refs;
  for (int d = 0; d < n && !plan.over_budget; ++d) {
    refs.clear();
    ExtractReferences(*plan.asts[d], &refs);
    for (const A1Reference& ref : refs) {
      const Range& r = ref.range;
      if (!r.IsValid()) continue;
      if (!plan.forced[d]) {
        for (const Range& seed : seeds) {
          if (r.Overlaps(seed)) {
            plan.forced[d] = 1;
            break;
          }
        }
      }
      for (auto it = columns.lower_bound(r.head.col);
           it != columns.end() && it->first <= r.tail.col; ++it) {
        const auto& rows = it->second;
        auto lo = std::lower_bound(rows.begin(), rows.end(),
                                   std::make_pair(r.head.row, -1));
        for (auto row_it = lo;
             row_it != rows.end() && row_it->first <= r.tail.row; ++row_it) {
          // Duplicate references produce duplicate edges; indegree and
          // adjacency stay matched, so Kahn still converges. A
          // self-reference blocks its own node forever — exactly the
          // serial #CYCLE! case, resolved by the leftover pass.
          plan.adj[row_it->second].push_back(d);
          ++indeg[d];
          if (++plan.edges > max_edges) {
            plan.over_budget = true;
            break;
          }
        }
        if (plan.over_budget) break;
      }
      if (plan.over_budget) break;
    }
  }

  if (!plan.over_budget) {
    plan.waves = BuildWaves(plan.adj, &indeg, &plan.leftover);
  }
  return plan;
}

}  // namespace taco

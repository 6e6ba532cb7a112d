#include "sched/recalc_scheduler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/range.h"
#include "eval/cutoff.h"
#include "eval/evaluator.h"
#include "sheet/sheet.h"

namespace taco {
namespace {

/// Formats "lhs(value)cmp rhs(threshold)" decision tokens for plans.
std::string Decision(const char* format, uint64_t a, uint64_t b) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), format, a, b);
  return buffer;
}

/// Formula cells in `dirty`, for serial-inline plan summaries. The pass
/// it describes enumerates the same cells, so the dry run cannot outlast
/// it.
uint64_t CountDirtyFormulas(const Sheet& sheet, std::span<const Range> dirty) {
  uint64_t formulas = 0;
  for (const Range& range : dirty) {
    for (const Cell& cell : EnumerateCells(range)) {
      if (sheet.IsFormulaCell(cell)) ++formulas;
    }
  }
  return formulas;
}

/// True when `cell` committed a value other than its captured prior (or
/// had none), i.e. its dependents must evaluate.
bool ChangedFromPrior(const CutoffContext& cutoff, const Cell& cell,
                      const Value& now) {
  auto it = cutoff.prior.find(cell);
  return it == cutoff.prior.end() || !(now == it->second);
}

}  // namespace

uint64_t RecalcPlan::max_wave_cells() const {
  uint64_t max_cells = 0;
  for (uint64_t cells : wave_cells) max_cells = std::max(max_cells, cells);
  return max_cells;
}

std::string_view RecalcPlan::granularity_name() const {
  switch (granularity) {
    case Granularity::kSerialInline: return "serial-inline";
    case Granularity::kCellGranular: return "cell-granular";
  }
  return "?";
}

RecalcScheduler::PassPlan RecalcScheduler::PlanPass(
    const Sheet& sheet, std::span<const Range> dirty,
    std::span<const Range> seeds, bool cutoff) const {
  PassPlan pass;
  RecalcPlan& plan = pass.summary;
  plan.cutoff = cutoff;
  plan.dirty_ranges = dirty.size();
  for (const Range& range : dirty) plan.dirty_area += range.Area();

  // Waves exist for pruning: without cutoff there is nothing to prune,
  // and dirty-range enumeration order is already a valid serial order.
  if (!cutoff) {
    plan.decision = "cutoff(off)";
    return pass;
  }
  // The engine captures no priors past this bound, so the pass it runs
  // is the uncut serial one.
  if (plan.dirty_area > options_.max_cells) {
    plan.cutoff = false;
    plan.decision = Decision("dirty_area(%" PRIu64 ")>max_cells(%" PRIu64 ")",
                             plan.dirty_area, options_.max_cells);
    return pass;
  }

  // Nodes: every dirty formula cell, in dirty-range enumeration order.
  std::vector<Cell> nodes;
  std::vector<const Expr*> asts;
  CollectDirtyFormulaCells(sheet, dirty, &nodes, &asts);
  plan.dirty_formulas = nodes.size();
  pass.cells = BuildCellWavePlan(std::move(nodes), std::move(asts), seeds,
                                 options_.max_edges);
  plan.edges = pass.cells.edges;
  if (pass.cells.over_budget) {
    plan.decision = Decision("edges(%" PRIu64 ")>max_edges(%" PRIu64 ")",
                             plan.edges, options_.max_edges);
    pass.cells = CellWavePlan{};  // Free the aborted expansion.
    return pass;
  }
  plan.granularity = RecalcPlan::Granularity::kCellGranular;
  plan.decision = Decision("edges(%" PRIu64 ")<=max_edges(%" PRIu64 ")",
                           plan.edges, options_.max_edges);
  plan.wave_cells.reserve(pass.cells.waves.size());
  plan.wave_cutoff_eligible.reserve(pass.cells.waves.size());
  for (const std::vector<int>& wave : pass.cells.waves) {
    plan.wave_cells.push_back(wave.size());
    // Upper bound: nodes with no direct seed input MAY skip when their
    // dirty precedents all commit unchanged (and a prior value is
    // cached — unknowable in a dry run).
    uint64_t eligible = 0;
    for (int idx : wave) eligible += pass.cells.forced[idx] == 0;
    plan.wave_cutoff_eligible.push_back(eligible);
  }
  plan.cycle_cells = pass.cells.leftover.size();
  return pass;
}

RecalcPlan RecalcScheduler::Plan(const Sheet& sheet,
                                 std::span<const Range> dirty,
                                 std::span<const Range> seeds,
                                 bool cutoff) const {
  RecalcPlan plan = PlanPass(sheet, dirty, seeds, cutoff).summary;
  // Serial-inline execution counts formulas as it evaluates them; a dry
  // run has to count them here.
  if (plan.granularity == RecalcPlan::Granularity::kSerialInline) {
    plan.dirty_formulas = CountDirtyFormulas(sheet, dirty);
  }
  return plan;
}

RecalcScheduler::Outcome RecalcScheduler::Execute(
    const Sheet& sheet, Evaluator* evaluator, std::span<const Range> dirty,
    const CutoffContext* cutoff) const {
  PassPlan pass = PlanPass(
      sheet, dirty,
      cutoff != nullptr ? std::span<const Range>(cutoff->seeds)
                        : std::span<const Range>(),
      cutoff != nullptr);
  Outcome outcome;
  if (pass.summary.granularity == RecalcPlan::Granularity::kSerialInline) {
    for (const Range& range : dirty) {
      for (const Cell& cell : EnumerateCells(range)) {
        if (!sheet.IsFormulaCell(cell)) continue;
        evaluator->EvaluateCell(cell);
        ++outcome.recalculated;
      }
    }
    outcome.dirty_formulas = outcome.recalculated;
    return outcome;
  }
  outcome.waves = pass.summary.waves();
  outcome.max_wave_cells = pass.summary.max_wave_cells();
  RunCellWaves(pass.cells, evaluator, *cutoff, &outcome);
  return outcome;
}

void RecalcScheduler::RunCellWaves(const CellWavePlan& plan,
                                   Evaluator* evaluator,
                                   const CutoffContext& cutoff,
                                   Outcome* outcome) const {
  const size_t n = plan.nodes.size();
  outcome->dirty_formulas = n;

  // A node evaluates when it was edited, reads a seed, had no captured
  // prior, or a dirty precedent committed a changed value (marked as
  // earlier waves commit). Everything else restores its prior value.
  // Nodes of one wave never depend on each other, so the order within
  // a wave is semantics-free.
  std::vector<char> needs_eval(n);
  for (size_t i = 0; i < n; ++i) {
    needs_eval[i] = plan.forced[i] != 0 ||
                    cutoff.prior.find(plan.nodes[i]) == cutoff.prior.end();
  }
  for (const std::vector<int>& wave : plan.waves) {
    for (int idx : wave) {
      const Cell& cell = plan.nodes[idx];
      if (!needs_eval[idx]) {
        evaluator->Prime(cell, cutoff.prior.at(cell));
        ++outcome->cells_skipped_cutoff;
        continue;
      }
      ++outcome->recalculated;
      if (ChangedFromPrior(cutoff, cell, evaluator->EvaluateCell(cell))) {
        for (int d : plan.adj[idx]) needs_eval[d] = 1;
      }
    }
  }
  // Cycle members and their downstream dependents replay un-cut, in
  // serial node order.
  for (int idx : plan.leftover) evaluator->EvaluateCell(plan.nodes[idx]);
  outcome->recalculated += plan.leftover.size();
}

}  // namespace taco

#include "sched/recalc_scheduler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/range_set.h"
#include "eval/cutoff.h"
#include "eval/evaluator.h"
#include "sheet/sheet.h"

namespace taco {
namespace {

/// One worker's private evaluation context: an overlay evaluator that
/// reads through to the engine's shared cache but writes only locally.
/// Contexts persist across the waves of one pass, so a worker re-reads
/// its own earlier results without a base-cache hop; they are discarded
/// at the end of the pass.
struct WorkerContext {
  explicit WorkerContext(const Sheet& sheet, const Evaluator* base)
      : eval(&sheet, base) {}
  Evaluator eval;
};

/// Builds the per-pass worker contexts (lazily — passes whose waves all
/// run inline never allocate them).
std::vector<std::unique_ptr<WorkerContext>> MakeContexts(
    int n, const Sheet& sheet, const Evaluator* base) {
  std::vector<std::unique_ptr<WorkerContext>> contexts;
  contexts.reserve(n);
  for (int i = 0; i < n; ++i) {
    contexts.push_back(std::make_unique<WorkerContext>(sheet, base));
  }
  return contexts;
}

/// Formats "lhs(value)cmp rhs(threshold)" decision tokens for plans.
std::string Decision(const char* format, uint64_t a, uint64_t b) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), format, a, b);
  return buffer;
}

/// Evaluates the formula cells of `range` in enumeration order on the
/// calling thread; returns how many there were.
uint64_t EvaluateRange(const Sheet& sheet, Evaluator* evaluator,
                       const Range& range) {
  uint64_t evaluated = 0;
  for (const Cell& cell : EnumerateCells(range)) {
    if (sheet.IsFormulaCell(cell)) {
      evaluator->EvaluateCell(cell);
      ++evaluated;
    }
  }
  return evaluated;
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

RecalcScheduler::RecalcScheduler(ThreadPool* pool, SchedulerOptions options)
    : pool_(pool), options_(options) {}

int RecalcScheduler::width() const {
  return pool_ == nullptr
             ? 1
             : std::max(1, std::min(options_.threads, pool_->num_threads()));
}

RecalcScheduler::PassPlan RecalcScheduler::PlanPass(
    const Sheet& sheet, std::span<const Range> dirty,
    std::span<const Range> seeds, bool cutoff) const {
  PassPlan pass;
  RecalcPlan& plan = pass.summary;
  plan.cutoff = cutoff;
  plan.width = width();
  plan.dirty_ranges = dirty.size();
  for (const Range& range : dirty) plan.dirty_area += range.Area();
  if (!cutoff) seeds = {};

  // Without cutoff, passes too narrow or too small to pay for planning
  // evaluate inline. A cutoff pass builds waves regardless: pruning
  // needs the wave structure, and narrow waves just run inline.
  if (!cutoff && plan.width <= 1) {
    plan.decision = Decision("width(%" PRIu64 ")<=1 no_pool(%" PRIu64 ")",
                             static_cast<uint64_t>(plan.width),
                             static_cast<uint64_t>(pool_ == nullptr ? 1 : 0));
    return pass;
  }
  if (!cutoff && plan.dirty_area < options_.min_parallel_cells) {
    plan.decision =
        Decision("dirty_area(%" PRIu64 ")<min_parallel_cells(%" PRIu64 ")",
                 plan.dirty_area, options_.min_parallel_cells);
    return pass;
  }
  // Too fragmented to be worth planning: without cutoff such a pass
  // runs inline. A cutoff pass still builds cell-granular waves, whose
  // cost does not grow with the range count.
  if (!cutoff && dirty.size() > options_.max_ranges) {
    plan.decision =
        Decision("dirty_ranges(%" PRIu64 ")>max_ranges(%" PRIu64 ")",
                 plan.dirty_ranges, options_.max_ranges);
    return pass;
  }
  if (plan.dirty_area > options_.max_cells) {
    plan.decision = Decision("dirty_area(%" PRIu64 ")>max_cells(%" PRIu64 ")",
                             plan.dirty_area, options_.max_cells);
    return pass;
  }

  // Nodes: every dirty formula cell, in dirty-range enumeration order.
  std::vector<Cell> nodes;
  std::vector<const Expr*> asts;
  CollectDirtyFormulaCells(sheet, dirty, &nodes, &asts);
  plan.dirty_formulas = nodes.size();
  if (!cutoff && nodes.size() < options_.min_parallel_cells) {
    plan.decision =
        Decision("dirty_formulas(%" PRIu64 ")<min_parallel_cells(%" PRIu64 ")",
                 plan.dirty_formulas, options_.min_parallel_cells);
    pass.cells.nodes = std::move(nodes);
    return pass;
  }
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
  for (const std::vector<int>& wave : pass.cells.waves) {
    plan.wave_cells.push_back(wave.size());
    if (cutoff) {
      // Upper bound: nodes with no direct seed input MAY skip when their
      // dirty precedents all commit unchanged (and a prior value is
      // cached — unknowable in a dry run).
      uint64_t eligible = 0;
      for (int idx : wave) eligible += pass.cells.forced[idx] == 0;
      plan.wave_cutoff_eligible.push_back(eligible);
    }
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
  outcome.waves = pass.summary.waves();
  outcome.max_wave_cells = pass.summary.max_wave_cells();
  switch (pass.summary.granularity) {
    case RecalcPlan::Granularity::kSerialInline:
      // Dirty-range enumeration order, or the same order through the
      // nodes the planner already collected.
      if (!pass.cells.nodes.empty()) {
        for (const Cell& cell : pass.cells.nodes) evaluator->EvaluateCell(cell);
        outcome.recalculated = pass.cells.nodes.size();
      } else {
        for (const Range& range : dirty) {
          outcome.recalculated += EvaluateRange(sheet, evaluator, range);
        }
      }
      outcome.dirty_formulas = outcome.recalculated;
      break;
    case RecalcPlan::Granularity::kCellGranular:
      RunCellWaves(pass.cells, sheet, evaluator, cutoff, &outcome);
      break;
  }
  return outcome;
}

void RecalcScheduler::RunCellWaves(const CellWavePlan& plan,
                                   const Sheet& sheet, Evaluator* evaluator,
                                   const CutoffContext* cutoff,
                                   Outcome* outcome) const {
  const int n = static_cast<int>(plan.nodes.size());
  const int width = this->width();
  outcome->dirty_formulas = static_cast<uint64_t>(n);

  // Cutoff: a node evaluates when it was edited, reads a seed, had no
  // captured prior, or a dirty precedent committed a changed value
  // (marked as earlier waves commit). Everything else restores its
  // prior value.
  std::vector<char> needs_eval;
  if (cutoff != nullptr) {
    needs_eval.resize(n);
    for (int i = 0; i < n; ++i) {
      needs_eval[i] = plan.forced[i] != 0 ||
                      cutoff->prior.find(plan.nodes[i]) == cutoff->prior.end();
    }
  }
  auto mark_if_changed = [&](int idx, const Value& now) {
    if (!ChangedFromPrior(*cutoff, plan.nodes[idx], now)) return;
    for (int d : plan.adj[idx]) needs_eval[d] = 1;
  };

  std::vector<std::unique_ptr<WorkerContext>> contexts;
  std::vector<Value> values;
  std::vector<int> eval_list;
  WaitGroup group;
  for (const std::vector<int>& wave : plan.waves) {
    std::span<const int> run(wave);
    if (cutoff != nullptr) {
      // Prune BEFORE dispatching the wave's workers: pruned nodes prime
      // the shared cache, which workers read through — the restore must
      // be visible to them and must not race them. Within a wave the
      // nodes are independent, so prime-then-evaluate order is
      // semantics-free.
      eval_list.clear();
      for (int idx : wave) {
        if (needs_eval[idx]) {
          eval_list.push_back(idx);
          continue;
        }
        evaluator->Prime(plan.nodes[idx], cutoff->prior.at(plan.nodes[idx]));
        ++outcome->cells_skipped_cutoff;
      }
      run = eval_list;
    }
    outcome->recalculated += run.size();
    if (width <= 1 || run.size() < options_.min_parallel_wave) {
      for (int idx : run) {
        if (cutoff == nullptr) {
          evaluator->EvaluateCell(plan.nodes[idx]);
        } else {
          mark_if_changed(idx, evaluator->EvaluateCell(plan.nodes[idx]));
        }
      }
      continue;
    }
    if (contexts.empty()) {
      contexts = MakeContexts(width, sheet, evaluator);
      values.resize(n);
    }
    // Strided assignment balances skewed per-cell costs (e.g. the
    // growing SUM($A$1:Ar) of an FR column) across workers.
    const int tasks = std::min<int>(width, static_cast<int>(run.size()));
    for (int c = 0; c < tasks; ++c) {
      pool_->Submit(&group, [&, c, tasks] {
        Evaluator& eval = contexts[c]->eval;
        for (size_t pos = c; pos < run.size();
             pos += static_cast<size_t>(tasks)) {
          const int idx = run[pos];
          values[idx] = eval.EvaluateCell(plan.nodes[idx]);
        }
      });
    }
    auto barrier_start = SteadyNow();
    group.Wait();
    outcome->barrier_wait_ns += NsSince(barrier_start);
    // Single-threaded commit: workers never touch the shared cache.
    // Compare before the move steals the value.
    for (int idx : run) {
      if (cutoff != nullptr) mark_if_changed(idx, values[idx]);
      evaluator->Prime(plan.nodes[idx], std::move(values[idx]));
    }
  }
  // Cycle members and their downstream dependents replay un-cut, in
  // serial node order.
  for (int idx : plan.leftover) evaluator->EvaluateCell(plan.nodes[idx]);
  outcome->recalculated += plan.leftover.size();
}

}  // namespace taco

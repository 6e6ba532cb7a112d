// The recalculation scheduler: every recalc pass evaluates its dirty
// subgraph here, on the calling thread (the session that holds the lock).
//
// After a batch of edits, RecalcEngine knows WHAT to re-evaluate (the
// merged dirty ranges from FindDependents) and hands them to Execute.
// One planner (PlanPass) chooses one of two shapes per pass; Execute
// runs what it returns and Plan (EXPLAIN) returns its summary, so a plan
// always matches the pass a mutation would run:
//   * Serial inline: every pass without value-change cutoff, and cutoff
//     passes over either planning budget, evaluate in dirty-range
//     enumeration order, with no waves.
//   * Cell-granular waves (cutoff passes): each dirty formula cell is a
//     node; its direct precedents come from its parsed references,
//     intersected with the dirty set through a per-column row index.
//     Kahn-style ready counts partition the nodes into waves — every
//     formula in wave k depends, among dirty cells, only on formulas in
//     waves < k — and pruning walks them in order: a node whose dirty
//     precedents all committed unchanged restores its prior value
//     instead of evaluating. Bounded by `max_cells` nodes and
//     `max_edges` expanded (cell-level) edges.
//
// Determinism contract — wave results are CELL-FOR-CELL IDENTICAL to
// serial-inline evaluation, errors and #CYCLE! included:
//   * Acyclic dirty formulas are pure functions of committed inputs:
//     same AST, same operand values, same result, in any topological
//     order. A wave cell's dirty precedents were committed by earlier
//     waves; its clean precedents never change during the pass (a
//     formula that transitively depends on an edit is dirty by
//     definition).
//   * Cells on or downstream of reference cycles never become ready in
//     Kahn's algorithm. These leftovers are evaluated in the same
//     dirty-range enumeration order as serial-inline evaluation, AFTER
//     all waves — so cycle detection sees the same first-touch order
//     and reports exactly the serial #CYCLE! pattern.
//
// This determinism is what makes the MVCC read path plan-independent:
// when Execute returns, the evaluator cache holds exactly the values a
// serial pass would have produced, so the ValueVersion the session
// publishes at this commit point (RecalcEngine::PublishVersion, still
// under the session lock) is identical whichever plan ran.
//
// The scheduler holds no per-pass state beyond its budgets.

#ifndef TACO_SCHED_RECALC_SCHEDULER_H_
#define TACO_SCHED_RECALC_SCHEDULER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "eval/cutoff.h"

namespace taco {

/// A dry run of the planner: what Execute WOULD do with a dirty set,
/// without evaluating anything. This is the inspectable unit behind the
/// EXPLAIN protocol verb; Execute runs the very plan it summarizes.
struct RecalcPlan {
  enum class Granularity {
    kSerialInline,  ///< Dirty-range enumeration order, no waves.
    kCellGranular,  ///< Per-cell nodes, Kahn waves.
  };

  Granularity granularity = Granularity::kSerialInline;
  /// The threshold that made the decision, as a compact machine-greppable
  /// token (e.g. "edges(12)<=max_edges(4194304)").  Never empty.
  std::string decision;
  /// The plan models a cutoff pass: waves are built when the planning
  /// budgets allow, and `wave_cutoff_eligible` is filled.
  bool cutoff = false;
  uint64_t dirty_ranges = 0;         ///< Disjoint dirty rectangles.
  uint64_t dirty_area = 0;           ///< Total cells covered by them.
  uint64_t dirty_formulas = 0;       ///< Formula cells among them.
  uint64_t edges = 0;                ///< Dependency edges the plan expanded.
  uint64_t cycle_cells = 0;          ///< Nodes on/downstream of cycles.
  std::vector<uint64_t> wave_cells;  ///< Work units per topological wave.
  /// Per-wave upper bound on cutoff pruning (cutoff plans only): work
  /// units with no direct seed input. Whether they actually skip depends
  /// on runtime values, so execution's skip count is <= the sum of this.
  std::vector<uint64_t> wave_cutoff_eligible;

  uint64_t waves() const { return wave_cells.size(); }
  uint64_t max_wave_cells() const;
  std::string_view granularity_name() const;
};

/// The cutoff planning budgets; a cutoff pass over either runs
/// serial-inline, uncut.
struct SchedulerOptions {
  /// `max_cells` bounds the node arrays (dirty AREA, so a sparse
  /// million-cell rectangle cannot allocate a node per blank cell) and
  /// the engine's prior capture; `max_edges` bounds per-cell precedent
  /// expansion (a SUM over a dirty column expands to one edge per dirty
  /// cell in it).
  uint64_t max_cells = 1u << 20;
  uint64_t max_edges = 4u << 20;
};

/// Plans and runs recalc passes on the calling thread.
class RecalcScheduler {
 public:
  /// What a pass did, for RecalcResult's counters.
  struct Outcome {
    uint64_t recalculated = 0;    ///< Formula cells evaluated.
    /// Formula cells pruned by value-change cutoff (prior restored).
    uint64_t cells_skipped_cutoff = 0;
    /// Total formula cells of the pass (recalculated + skipped).
    uint64_t dirty_formulas = 0;
    uint64_t waves = 0;           ///< Topological waves executed.
    uint64_t max_wave_cells = 0;  ///< Largest wave, in formula cells.
  };

  explicit RecalcScheduler(SchedulerOptions options = {})
      : options_(options) {}

  /// Evaluates every dirty formula cell into `evaluator`'s cache.
  /// `dirty` ranges are disjoint; the evaluator has already been
  /// invalidated for them. `cutoff` non-null enables value-change cutoff
  /// for the pass (see eval/cutoff.h for the contract): waves are pruned
  /// at nodes whose dirty precedents all committed unchanged, and pruned
  /// cells get their prior value restored; a serial-inline pass runs
  /// un-cut. Results remain cell-for-cell identical to an un-cut pass.
  Outcome Execute(const Sheet& sheet, Evaluator* evaluator,
                  std::span<const Range> dirty,
                  const CutoffContext* cutoff) const;

  /// The EXPLAIN dry run: the summary of the plan Execute would run for
  /// `dirty` with cutoff `seeds` (used only when `cutoff`). Evaluates
  /// nothing and touches no evaluator. With `cutoff` it also reports the
  /// per-wave upper bound of prunable cells (nodes with no direct seed
  /// input) in `wave_cutoff_eligible`. A cutoff request over `max_cells`
  /// plans the uncut serial pass the engine would run instead.
  RecalcPlan Plan(const Sheet& sheet, std::span<const Range> dirty,
                  std::span<const Range> seeds, bool cutoff) const;

  const SchedulerOptions& options() const { return options_; }

 private:
  /// The planner's output: the summary plus the cell waves.
  struct PassPlan {
    RecalcPlan summary;
    CellWavePlan cells;
  };
  PassPlan PlanPass(const Sheet& sheet, std::span<const Range> dirty,
                    std::span<const Range> seeds, bool cutoff) const;

  /// The cutoff wave loop: pruned nodes restore their prior, evaluated
  /// nodes whose value changed mark their dependents.
  void RunCellWaves(const CellWavePlan& plan, Evaluator* evaluator,
                    const CutoffContext& cutoff, Outcome* outcome) const;

  SchedulerOptions options_;
};

}  // namespace taco

#endif  // TACO_SCHED_RECALC_SCHEDULER_H_

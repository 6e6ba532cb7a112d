// The recalculation scheduler: every recalc pass evaluates its dirty
// subgraph here, as waves of a topological traversal.
//
// After a batch of edits, RecalcEngine knows WHAT to re-evaluate (the
// merged dirty ranges from FindDependents) and hands them to Execute.
// Dependent-cell recomputation is a topological traversal of the dirty
// subgraph, which parallelizes naturally by level: every formula in wave
// k depends — among dirty cells — only on formulas in waves < k, so one
// wave's cells can be evaluated concurrently and the next wave starts
// after a barrier. A scheduler without a pool runs at width 1: the same
// plans, with every wave evaluated on the calling thread.
//
// One planner (PlanPass) chooses one of two granularities per pass;
// Execute runs what it returns and Plan (EXPLAIN) returns its summary,
// so a plan always matches the pass a mutation would run:
//   * Cell-granular (the default): each dirty formula cell is a node;
//     its direct precedents come from its parsed references, intersected
//     with the dirty set through a per-column row index. Kahn-style
//     ready counts partition the nodes into waves. Bounded by
//     `max_cells` nodes and `max_edges` expanded (cell-level) edges.
//   * Serial inline: passes over either budget, and without cutoff,
//     passes at width 1, below `min_parallel_cells` or more fragmented
//     than `max_ranges`, evaluate on the calling thread in dirty-range
//     enumeration order, with no waves and no cutoff.
//
// Determinism contract — wave results are CELL-FOR-CELL IDENTICAL to
// serial-inline evaluation, errors and #CYCLE! included:
//   * Acyclic dirty formulas are pure functions of committed inputs:
//     same AST, same operand values, same result, on any thread. A wave
//     cell's dirty precedents are committed by earlier waves' barriers;
//     its clean precedents never change during the pass (a formula that
//     transitively depends on an edit is dirty by definition), so
//     worker-local lazy evaluation of clean cells is race-free and
//     yields the serial values.
//   * Workers never write the shared evaluator. Each worker evaluates
//     into a private overlay evaluator (read-through to the shared
//     cache); the scheduler commits a wave's results single-threaded
//     after the wave's WaitGroup barrier.
//   * Cells on or downstream of reference cycles never become ready in
//     Kahn's algorithm. These leftovers are evaluated serially, in the
//     same dirty-range enumeration order as serial-inline evaluation,
//     AFTER all waves — so cycle detection sees the same first-touch
//     order and reports exactly the serial #CYCLE! pattern.
//
// This determinism is what makes the MVCC read path width-independent:
// when Execute returns, the shared evaluator cache holds exactly the
// values a serial pass would have produced, so the ValueVersion the
// session publishes at this commit point (RecalcEngine::PublishVersion,
// still under the session lock) is identical whichever plan ran — the
// final barrier doubles as the version boundary readers observe.
//
// The scheduler holds no per-pass state: one instance is safely shared
// by every session of a service, and concurrent Execute calls interleave
// on the shared ThreadPool without blocking each other's progress.

#ifndef TACO_SCHED_RECALC_SCHEDULER_H_
#define TACO_SCHED_RECALC_SCHEDULER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "eval/cutoff.h"
#include "sched/thread_pool.h"

namespace taco {

/// A dry run of the planner: what Execute WOULD do with a dirty set,
/// without evaluating anything. This is the inspectable unit behind the
/// EXPLAIN protocol verb; Execute runs the very plan it summarizes.
struct RecalcPlan {
  enum class Granularity {
    kSerialInline,  ///< Evaluated on the calling thread, no waves.
    kCellGranular,  ///< Per-cell nodes, Kahn waves.
  };

  Granularity granularity = Granularity::kSerialInline;
  /// The threshold that made the decision, as a compact machine-greppable
  /// token (e.g. "dirty_area(12)<min_parallel_cells(64)").  Never empty.
  std::string decision;
  int width = 1;                     ///< Wave-execution width (threads).
  /// The plan models a cutoff pass: the width/min_parallel_cells serial
  /// short-circuits don't apply (cutoff always builds waves when the
  /// planning budgets allow), and `wave_cutoff_eligible` is filled.
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

struct SchedulerOptions {
  /// Wave-execution width: tasks per wave (clamped to the pool size).
  int threads = 4;

  /// Without cutoff, dirty sets smaller than this (formula cells)
  /// evaluate serially inline — planning overhead would exceed the work.
  uint64_t min_parallel_cells = 64;

  /// Waves smaller than this evaluate inline on the calling thread
  /// instead of paying task dispatch (chain-shaped subgraphs produce
  /// thousands of single-cell waves).
  uint64_t min_parallel_wave = 32;

  /// Cell-granular planning budgets; exceeding either runs serial-inline.
  /// `max_cells` bounds the node arrays (dirty AREA, so a sparse
  /// million-cell rectangle cannot allocate a node per blank cell);
  /// `max_edges` bounds per-cell precedent expansion (a SUM over a dirty
  /// column expands to one edge per dirty cell in it). `max_cells` also
  /// bounds the engine's cutoff prior capture: a pass dirtying a larger
  /// area runs without cutoff.
  uint64_t max_cells = 1u << 20;
  uint64_t max_edges = 4u << 20;

  /// Non-cutoff passes more fragmented than this (disjoint dirty ranges)
  /// skip planning and run serial-inline.
  uint64_t max_ranges = 4096;
};

/// Wave-based recalc over an optional shared ThreadPool. The pool must
/// outlive the scheduler and must NOT be the pool the caller itself runs
/// on (a wave barrier inside a pool task would deadlock a fully loaded
/// pool); the workbook service keeps a dedicated recalc pool for this.
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
    uint64_t barrier_wait_ns = 0; ///< Time the coordinator spent blocked
                                  ///  on wave barriers (contention signal:
                                  ///  eval_ns minus this is compute).
  };

  /// `pool` may be null: every pass then runs at width 1.
  explicit RecalcScheduler(ThreadPool* pool, SchedulerOptions options = {});

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
  /// input) in `wave_cutoff_eligible`.
  RecalcPlan Plan(const Sheet& sheet, std::span<const Range> dirty,
                  std::span<const Range> seeds, bool cutoff) const;

  const SchedulerOptions& options() const { return options_; }

 private:
  /// The planner's output: the summary plus the cell waves. Serial-inline
  /// passes that already enumerated the dirty formula cells keep them in
  /// `cells.nodes`.
  struct PassPlan {
    RecalcPlan summary;
    CellWavePlan cells;
  };
  PassPlan PlanPass(const Sheet& sheet, std::span<const Range> dirty,
                    std::span<const Range> seeds, bool cutoff) const;

  /// The wave loop. Without `cutoff` every node evaluates and nothing is
  /// compared or marked; with it, pruned nodes are primed from their
  /// prior before the wave dispatches and changed commits mark their
  /// dependents.
  void RunCellWaves(const CellWavePlan& plan, const Sheet& sheet,
                    Evaluator* evaluator, const CutoffContext* cutoff,
                    Outcome* outcome) const;

  /// Tasks per wave: 1 without a pool.
  int width() const;

  ThreadPool* pool_;
  SchedulerOptions options_;
};

}  // namespace taco

#endif  // TACO_SCHED_RECALC_SCHEDULER_H_

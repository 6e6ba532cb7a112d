// The recalculation engine: the application layer that makes formula-graph
// queries latency-critical (Sec. I of the paper).
//
// On every update the engine asks the formula graph for the transitive
// dependents of the changed cell — exactly the step DataSpread performs
// before returning control to the user — then re-evaluates those formulas.
// The dirty-set identification time and size are reported per update so
// benchmarks and examples can attribute latency to the graph query.

#ifndef TACO_EVAL_RECALC_H_
#define TACO_EVAL_RECALC_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "eval/evaluator.h"
#include "eval/value_version.h"
#include "graph/dependency_graph.h"
#include "sched/recalc_scheduler.h"
#include "sheet/sheet.h"

namespace taco {

/// Outcome of one update (or one batch of updates).
struct RecalcResult {
  std::vector<Range> dirty;        ///< Ranges of formulas needing recalc.
  uint64_t dirty_cells = 0;        ///< Total dirty formula cells.
  uint64_t recalculated = 0;       ///< Formulas actually re-evaluated.
  /// Dirty formulas pruned by value-change cutoff (prior value restored
  /// instead of recomputed). Zero when cutoff is off or didn't apply.
  /// `recalculated + cells_skipped_cutoff == dirty_formulas` always.
  uint64_t cells_skipped_cutoff = 0;
  /// Total dirty formula cells the pass was responsible for (evaluated
  /// plus cutoff-skipped).
  uint64_t dirty_formulas = 0;
  uint64_t recalc_passes = 0;      ///< Merged recalc passes (1 per batch).
  uint64_t edits_applied = 0;      ///< Sheet/graph mutations performed.
  double find_dependents_ms = 0;   ///< Time spent in FindDependents.
  double eval_ms = 0;              ///< Time spent re-evaluating formulas.
  /// The same two phases in integer nanoseconds (the ms fields are
  /// derived from these). Trace spans and histograms keep ns end-to-end;
  /// a FindDependents probe on a small sheet runs in single-digit µs,
  /// which a double-ms aggregate quietly rounds into noise.
  uint64_t find_dependents_ns = 0;
  uint64_t eval_ns = 0;
  uint64_t barrier_wait_ns = 0;    ///< Wave-barrier wait (pooled waves only).
  uint64_t waves = 0;              ///< Topological waves (0 = serial-inline).
  uint64_t max_wave_cells = 0;     ///< Largest wave, in formula cells.
};

/// One deferred cell mutation, for batched application. Constructed via
/// the factory helpers; `range` is used by kClearRange, `cell` by the
/// others.
struct Edit {
  enum class Kind { kSetNumber, kSetText, kSetFormula, kClearRange };

  Kind kind = Kind::kSetNumber;
  Cell cell;
  Range range;
  double number = 0;
  std::string text;  ///< Text value or formula source (no leading '=').

  static Edit SetNumber(const Cell& cell, double value);
  static Edit SetText(const Cell& cell, std::string value);
  static Edit SetFormula(const Cell& cell, std::string text);
  static Edit ClearRange(const Range& range);
};

/// An ordered list of edits applied with a single merged dirty-set
/// computation and recalc pass (RecalcEngine::ApplyBatch).
using EditBatch = std::vector<Edit>;

/// Couples a Sheet, a DependencyGraph, and an Evaluator into a live
/// spreadsheet engine. The graph implementation is pluggable — pass a
/// TacoGraph for compressed operation or a NoCompGraph as the baseline.
class RecalcEngine {
 public:
  /// `sheet` and `graph` must outlive the engine. The graph must already
  /// reflect the sheet's dependencies (BuildGraphFromSheet).
  RecalcEngine(Sheet* sheet, DependencyGraph* graph);

  /// Updates a literal cell and recalculates its dependents.
  Result<RecalcResult> SetNumber(const Cell& cell, double value);
  Result<RecalcResult> SetText(const Cell& cell, std::string value);

  /// Replaces a cell's formula (clear + insert in the graph) and
  /// recalculates.
  Result<RecalcResult> SetFormula(const Cell& cell, std::string_view text);

  /// Clears a range of cells, removing their dependencies.
  Result<RecalcResult> ClearRange(const Range& range);

  /// Applies every edit of `batch` in order, then performs ONE merged
  /// dirty-set computation and recalc pass instead of one per edit — the
  /// serving-path batching the paper's latency argument calls for. Each
  /// dirty formula is re-evaluated at most once per batch regardless of
  /// how many edits dirtied it; the result's `recalc_passes` is 1 and
  /// `edits_applied` is batch.size().
  ///
  /// Batches are not atomic: a failing edit (e.g. a formula parse error)
  /// stops application at that edit (applying nothing of it), but the
  /// edits before it stay applied and their merged recalc still runs
  /// before the error is returned, so the engine is always left
  /// consistent. When `partial` is non-null and the batch fails, it
  /// receives the recalc outcome of the edits that DID apply (zeroed
  /// when none did) — callers tracking work done must not lose it just
  /// because the Result carries an error.
  Result<RecalcResult> ApplyBatch(const EditBatch& batch,
                                  RecalcResult* partial = nullptr);

  /// Current value of a cell (cached; evaluates on demand).
  Value GetValue(const Cell& cell) { return evaluator_.EvaluateCell(cell); }

  /// What a mutation of `target` would recalculate, without mutating:
  /// the dependency-closure half of EXPLAIN.  Runs the exact dirty-set
  /// recipe of RecalculateMerged (FindDependents per disjoint seed,
  /// union disjointified) and then asks the scheduler to Plan the pass.
  /// Non-const only because graph queries update the graph's query
  /// counters; no sheet/graph/evaluator/version state changes.
  struct ExplainInfo {
    std::vector<Range> seeds;        ///< Disjointified seed rectangles.
    std::vector<Range> dirty;        ///< The would-be dirty ranges.
    uint64_t dirty_cells = 0;        ///< Area covered by `dirty`.
    uint64_t find_dependents_ns = 0; ///< Closure query time (measured).
    bool cutoff = false;             ///< Value-change cutoff enabled.
    RecalcPlan plan;
  };
  ExplainInfo Explain(const Range& target);

  /// The version-publication hook at the recalc commit point: builds the
  /// immutable ValueVersion succeeding the last published one, covering
  /// `touched` (the commit's seed rectangles plus its dirty ranges).
  /// Every commit calls this identically — by the scheduler's contract
  /// the evaluator cache holds the same committed values at any width,
  /// so the published version is width-independent.
  /// NOT thread-safe; the caller serializes it with mutations (the
  /// session lock) and hands the result to readers via an atomic store.
  std::shared_ptr<const ValueVersion> PublishVersion(
      std::span<const Range> touched);

  /// The most recently published version (null before the first commit).
  const std::shared_ptr<const ValueVersion>& latest_version() const {
    return version_;
  }

  /// Plugs in (or clears, with null) a shared wave scheduler, which
  /// must outlive the engine. Without one the engine runs every pass
  /// through its own pool-less scheduler, i.e. at width 1. Switching
  /// between operations is safe: each pass consults it at the start.
  void set_scheduler(RecalcScheduler* scheduler) { scheduler_ = scheduler; }

  /// Toggles value-change cutoff: recalc passes compare each committed
  /// value against its prior and prune dependents reachable only
  /// through unchanged cells (eval/cutoff.h documents why results stay
  /// cell-for-cell identical). Off by default.
  void set_cutoff(bool cutoff) { cutoff_ = cutoff; }
  bool cutoff() const { return cutoff_; }

 private:
  /// One merged dirty-set computation: FindDependents per distinct
  /// changed rectangle (`seeds`), the union collapsed into disjoint
  /// `dirty` ranges covering `dirty_cells`. Returns the query time in ns.
  uint64_t FindDirty(std::span<const Range> changed, std::vector<Range>* seeds,
                     std::vector<Range>* dirty, uint64_t* dirty_cells);

  /// Invalidates and re-evaluates everything depending on `changed`, in
  /// one de-duplicated pass.
  RecalcResult RecalculateMerged(std::span<const Range> changed);

  RecalcScheduler& scheduler() {
    return scheduler_ != nullptr ? *scheduler_ : own_scheduler_;
  }
  /// Cutoff applies to a pass when enabled and the dirty area is within
  /// the scheduler's `max_cells` (the bound on prior capture).
  bool CutoffApplies(uint64_t dirty_cells) {
    return cutoff_ && dirty_cells <= scheduler().options().max_cells;
  }

  /// Mutates sheet + graph for one edit without recalculating; appends
  /// the changed rectangle to `changed`.
  Status ApplyEditNoRecalc(const Edit& edit, std::vector<Range>* changed);

  Sheet* sheet_;
  DependencyGraph* graph_;
  Evaluator evaluator_;
  RecalcScheduler own_scheduler_{nullptr};
  RecalcScheduler* scheduler_ = nullptr;  ///< Plugged in; null = own.
  bool cutoff_ = false;
  std::shared_ptr<const ValueVersion> version_;  ///< Last published.
};

}  // namespace taco

#endif  // TACO_EVAL_RECALC_H_

#include "eval/recalc.h"

#include <unordered_set>
#include <utility>

#include "common/clock.h"
#include "common/range_set.h"
#include "eval/cutoff.h"
#include "formula/references.h"

namespace taco {

Edit Edit::SetNumber(const Cell& cell, double value) {
  Edit edit;
  edit.kind = Kind::kSetNumber;
  edit.cell = cell;
  edit.number = value;
  return edit;
}

Edit Edit::SetText(const Cell& cell, std::string value) {
  Edit edit;
  edit.kind = Kind::kSetText;
  edit.cell = cell;
  edit.text = std::move(value);
  return edit;
}

Edit Edit::SetFormula(const Cell& cell, std::string text) {
  Edit edit;
  edit.kind = Kind::kSetFormula;
  edit.cell = cell;
  edit.text = std::move(text);
  return edit;
}

Edit Edit::ClearRange(const Range& range) {
  Edit edit;
  edit.kind = Kind::kClearRange;
  edit.range = range;
  return edit;
}

RecalcEngine::RecalcEngine(Sheet* sheet, DependencyGraph* graph,
                           SchedulerOptions budgets)
    : sheet_(sheet), graph_(graph), evaluator_(sheet), scheduler_(budgets) {}

uint64_t RecalcEngine::FindDirty(std::span<const Range> changed,
                                 std::vector<Range>* seeds,
                                 std::vector<Range>* dirty,
                                 uint64_t* dirty_cells) {
  *seeds = DisjointifyRanges(changed);
  std::vector<Range> dirty_union;
  auto start = SteadyNow();
  for (const Range& seed : *seeds) {
    std::vector<Range> found = graph_->FindDependents(seed);
    dirty_union.insert(dirty_union.end(), found.begin(), found.end());
  }
  *dirty = DisjointifyRanges(dirty_union);
  uint64_t ns = NsSince(start);
  for (const Range& range : *dirty) *dirty_cells += range.Area();
  return ns;
}

RecalcResult RecalcEngine::RecalculateMerged(std::span<const Range> changed) {
  RecalcResult result;
  result.recalc_passes = 1;
  CutoffContext ctx;
  result.find_dependents_ns =
      FindDirty(changed, &ctx.seeds, &result.dirty, &result.dirty_cells);
  result.find_dependents_ms = double(result.find_dependents_ns) / 1e6;

  // Cutoff needs the dirty cells' prior values, which invalidation is
  // about to destroy — capture them first.
  const bool cut = CutoffApplies(result.dirty_cells);
  if (cut) CapturePriorValues(*sheet_, evaluator_, result.dirty, &ctx);

  for (const Range& seed : ctx.seeds) evaluator_.Invalidate(seed);
  for (const Range& range : result.dirty) evaluator_.Invalidate(range);

  auto eval_start = SteadyNow();
  RecalcScheduler::Outcome outcome = scheduler_.Execute(
      *sheet_, &evaluator_, result.dirty, cut ? &ctx : nullptr);
  result.eval_ns = NsSince(eval_start);
  result.eval_ms = double(result.eval_ns) / 1e6;
  result.recalculated = outcome.recalculated;
  result.cells_skipped_cutoff = outcome.cells_skipped_cutoff;
  result.dirty_formulas = outcome.dirty_formulas;
  result.waves = outcome.waves;
  result.max_wave_cells = outcome.max_wave_cells;
  return result;
}

RecalcEngine::ExplainInfo RecalcEngine::Explain(const Range& target) {
  ExplainInfo info;
  info.cutoff = cutoff_;
  info.find_dependents_ns =
      FindDirty({&target, 1}, &info.seeds, &info.dirty, &info.dirty_cells);
  // The planner, not CutoffApplies, judges `max_cells` here, so a
  // cutoff session's plan names the budget that ran its pass uncut.
  info.plan = scheduler_.Plan(*sheet_, info.dirty, info.seeds, cutoff_);
  return info;
}

std::shared_ptr<const ValueVersion> RecalcEngine::PublishVersion(
    std::span<const Range> touched) {
  // A freshly set formula's own cell is NOT in the dirty set (only its
  // dependents are) and is evaluated lazily — but a published version
  // must carry its committed value, so `touched` always includes the
  // seed rectangles. Evaluating here, before readers see the version,
  // keeps the lazy path out of the lock-free read side entirely.
  uint64_t id = version_ != nullptr ? version_->id() + 1 : 1;
  version_ = ValueVersion::Delta(id, version_, *sheet_, &evaluator_, touched);
  return version_;
}

Status RecalcEngine::ApplyEditNoRecalc(const Edit& edit,
                                       std::vector<Range>* changed) {
  switch (edit.kind) {
    case Edit::Kind::kSetNumber:
      // Replacing a formula cell also drops its outgoing dependencies.
      if (sheet_->IsFormulaCell(edit.cell)) {
        TACO_RETURN_IF_ERROR(graph_->RemoveFormulaCells(Range(edit.cell)));
      }
      TACO_RETURN_IF_ERROR(sheet_->SetNumber(edit.cell, edit.number));
      changed->push_back(Range(edit.cell));
      return Status::OK();
    case Edit::Kind::kSetText:
      if (sheet_->IsFormulaCell(edit.cell)) {
        TACO_RETURN_IF_ERROR(graph_->RemoveFormulaCells(Range(edit.cell)));
      }
      TACO_RETURN_IF_ERROR(sheet_->SetText(edit.cell, edit.text));
      changed->push_back(Range(edit.cell));
      return Status::OK();
    case Edit::Kind::kSetFormula: {
      // Parse/store the new formula BEFORE dropping the old one's graph
      // edges: a parse failure must leave sheet and graph untouched, not
      // a formula cell with its dependencies removed.
      bool was_formula = sheet_->IsFormulaCell(edit.cell);
      TACO_RETURN_IF_ERROR(sheet_->SetFormula(edit.cell, edit.text));
      if (was_formula) {
        TACO_RETURN_IF_ERROR(graph_->RemoveFormulaCells(Range(edit.cell)));
      }

      // Register the new formula's dependencies (an update is modeled as
      // clear + insert, Sec. IV-C).
      const CellContent* content = sheet_->Get(edit.cell);
      std::vector<A1Reference> refs =
          ExtractReferences(*content->formula().ast);
      std::unordered_set<Range> seen;
      for (const A1Reference& ref : refs) {
        if (!seen.insert(ref.range).second) continue;
        Dependency dep;
        dep.prec = ref.range;
        dep.dep = edit.cell;
        dep.head_flags = ref.head_flags;
        dep.tail_flags = ref.tail_flags;
        TACO_RETURN_IF_ERROR(graph_->AddDependency(dep));
      }
      changed->push_back(Range(edit.cell));
      return Status::OK();
    }
    case Edit::Kind::kClearRange:
      TACO_RETURN_IF_ERROR(graph_->RemoveFormulaCells(edit.range));
      TACO_RETURN_IF_ERROR(sheet_->ClearRange(edit.range));
      changed->push_back(edit.range);
      return Status::OK();
  }
  return Status::Internal("unknown edit kind");
}

Result<RecalcResult> RecalcEngine::SetNumber(const Cell& cell, double value) {
  return ApplyBatch({Edit::SetNumber(cell, value)});
}

Result<RecalcResult> RecalcEngine::SetText(const Cell& cell,
                                           std::string value) {
  return ApplyBatch({Edit::SetText(cell, std::move(value))});
}

Result<RecalcResult> RecalcEngine::SetFormula(const Cell& cell,
                                              std::string_view text) {
  return ApplyBatch({Edit::SetFormula(cell, std::string(text))});
}

Result<RecalcResult> RecalcEngine::ClearRange(const Range& range) {
  return ApplyBatch({Edit::ClearRange(range)});
}

Result<RecalcResult> RecalcEngine::ApplyBatch(const EditBatch& batch,
                                              RecalcResult* partial) {
  if (partial != nullptr) *partial = RecalcResult{};
  std::vector<Range> changed;
  changed.reserve(batch.size());
  Status failure = Status::OK();
  uint64_t applied = 0;
  for (const Edit& edit : batch) {
    failure = ApplyEditNoRecalc(edit, &changed);
    if (!failure.ok()) break;
    ++applied;
  }
  if (changed.empty()) {
    if (!failure.ok()) return failure;
    return RecalcResult{};  // Empty batch: nothing changed, no recalc pass.
  }
  RecalcResult result = RecalculateMerged(changed);
  result.edits_applied = applied;
  // A failing edit stops the batch, but the edits before it were applied
  // and recalculated above, leaving the engine consistent; the partial
  // outcome is reported through `partial` alongside the error.
  if (!failure.ok()) {
    if (partial != nullptr) *partial = std::move(result);
    return failure;
  }
  return result;
}

}  // namespace taco

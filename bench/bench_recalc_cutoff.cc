// Value-change cutoff on absorbing workloads: full vs. cutoff recalc
// across graph backends (the src/sched wave planner's headline numbers).
//
// Two absorbing shapes, after the region generators of src/corpus:
//   chain_absorb   running accumulators (RR-Chain) B[r] = B[r-1]+A[r]
//                  with an IF stage at `depth` that collapses the running
//                  sum to a constant, so everything past it is dirty but
//                  unchanged — the shape cutoff exists for.
//   fanout_absorb  a cumulative FR column feeding one absorber, with four
//                  downstream columns of O(r) aggregates gated on it: the
//                  expensive-downstream shape where cutoff wins wall
//                  clock, not just evaluated-cell counts.
//
// Every pass runs on the calling thread. The headline is the
// EVALUATED-CELL ratio (full/cutoff, from RecalcResult counters), which
// is machine-load-independent; the re-evaluation phase's wall clock
// (RecalcResult::eval_ms) is reported alongside.
//
//   TACO_BENCH_PROFILE=smoke|paper   scale preset (default: laptop)
//   TACO_BENCH_RECALC_REPS           timed repetitions per mode
//   TACO_BENCH_CUTOFF_DEPTH          absorber position in the chain
//                                    profile (default: rows/8)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eval/recalc.h"
#include "graph/nocomp_graph.h"
#include "sheet/sheet.h"
#include "taco/taco_graph.h"

using namespace taco;
using namespace taco::bench;

namespace {

struct Scale {
  int chain_rows;
  int fanout_rows;
  int reps;
};

Scale ActiveScale() {
  switch (ActiveBenchProfile()) {
    case BenchProfile::kSmoke: return {4000, 2000, 5};
    case BenchProfile::kPaper: return {60000, 6000, 9};
    case BenchProfile::kDefault: break;
  }
  return {20000, 4000, 7};
}

std::unique_ptr<DependencyGraph> MakeBackend(const std::string& name) {
  if (name == "taco") {
    return std::make_unique<TacoGraph>(TacoOptions::Full());
  }
  return std::make_unique<NoCompGraph>();
}

/// One prepared workload: a sheet+graph+engine and the cell whose edit
/// drives the timed recalcs.
struct Workload {
  Sheet sheet;
  std::unique_ptr<DependencyGraph> graph;
  std::unique_ptr<RecalcEngine> engine;
  Cell edit_cell;

  Workload() = default;

  void Finish(const std::string& backend) {
    graph = MakeBackend(backend);
    Status built = BuildGraphFromSheet(sheet, graph.get());
    if (!built.ok()) {
      std::fprintf(stderr, "graph build failed: %s\n",
                   built.ToString().c_str());
      std::exit(1);
    }
    engine = std::make_unique<RecalcEngine>(&sheet, graph.get());
  }
};

/// Absorbing chain: B[r] = B[r-1]+A[r] with an IF stage at `depth` that
/// collapses the running sum to 0/1. Alternating A1 edits change
/// B1..B[depth-1], the absorber re-evaluates to the same 0, and the
/// rows-depth links past it are dirty but value-unchanged — cutoff
/// should evaluate `depth` cells where a full pass evaluates `rows`.
Workload MakeAbsorbingChain(int rows, int depth, const std::string& backend) {
  Workload w;
  (void)w.sheet.SetNumber(Cell{1, 1}, 1.0);
  (void)w.sheet.SetFormula(Cell{2, 1}, "A1+1");
  for (int r = 2; r <= rows; ++r) {
    (void)w.sheet.SetNumber(Cell{1, r}, r * 1.0);
    if (r == depth) {
      (void)w.sheet.SetFormula(
          Cell{2, r}, "IF(B" + std::to_string(r - 1) + ">1E9,1,0)");
    } else {
      (void)w.sheet.SetFormula(Cell{2, r},
                               "B" + std::to_string(r - 1) + "+A" +
                                   std::to_string(r));
    }
  }
  w.edit_cell = Cell{1, 1};
  w.Finish(backend);
  return w;
}

/// Absorbing fanout: the FR column B feeds one absorber C1, and four
/// downstream columns (D..G) of cumulative SUMs gated on $C$1 fan out
/// from it. The downstream ranges start at $A$2, so an A1 edit reaches
/// them only through the absorber: full recalc re-runs all 4*rows O(r)
/// aggregates, cutoff prunes every one (rows+1 evaluated vs 5*rows+1) —
/// the expensive-downstream shape where cutoff wins wall clock, not
/// just evaluated-cell counts.
Workload MakeAbsorbingFanout(int rows, const std::string& backend) {
  Workload w;
  for (int r = 1; r <= rows; ++r) {
    (void)w.sheet.SetNumber(Cell{1, r}, r * 0.5);
    (void)w.sheet.SetFormula(Cell{2, r},
                             "SUM($A$1:A" + std::to_string(r) + ")");
  }
  (void)w.sheet.SetFormula(Cell{3, 1},
                           "IF(B" + std::to_string(rows) + ">1E9,1,0)");
  for (int col = 4; col <= 7; ++col) {
    (void)w.sheet.SetFormula(Cell{col, 1}, "$C$1*" + std::to_string(col));
    for (int r = 2; r <= rows; ++r) {
      (void)w.sheet.SetFormula(
          Cell{col, r}, "SUM($A$2:A" + std::to_string(r) + ")+$C$1");
    }
  }
  w.edit_cell = Cell{1, 1};
  w.Finish(backend);
  return w;
}

struct ModeResult {
  double eval_ms = 0;         // Mean re-evaluation phase.
  uint64_t dirty = 0;
  uint64_t recalculated = 0;  // Formula cells evaluated per edit.
  uint64_t skipped = 0;       // Cells pruned by cutoff per edit.
};

/// Runs `reps` timed edits (plus one warmup) in the engine's current
/// mode. Alternating values keep every rep's dirty work identical.
ModeResult RunMode(Workload* w, int reps) {
  ModeResult out;
  double value = 1000.0;
  auto edit = [&](double v) {
    auto result = w->engine->SetNumber(w->edit_cell, v);
    if (!result.ok()) {
      std::fprintf(stderr, "edit failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    return *std::move(result);
  };
  edit(value);  // Warmup: populate lazy caches, settle the dirty shape.
  std::vector<double> eval_ms;
  for (int rep = 0; rep < reps; ++rep) {
    value = value == 1000.0 ? 2000.0 : 1000.0;
    RecalcResult r = edit(value);
    eval_ms.push_back(r.eval_ms);
    out.dirty = r.dirty_cells;
    out.recalculated = r.recalculated;
    out.skipped = r.cells_skipped_cutoff;
  }
  out.eval_ms = Mean(eval_ms);
  return out;
}

}  // namespace

int main() {
  PrintHeader("Value-change cutoff: absorbing workloads (full vs. cutoff)",
              "src/sched RecalcScheduler; workload shapes after Sec. VI-E");
  Scale scale = ActiveScale();
  int reps = EnvInt("TACO_BENCH_RECALC_REPS", scale.reps);

  TablePrinter table({"profile", "graph", "dirty", "full_eval",
                             "cut_eval", "skipped", "ratio", "full_ms",
                             "cut_ms"});

  auto run_cutoff = [&](const char* name, Workload* w) {
    // Full pass baseline, then cutoff, on the same workload; counters
    // from the same RecalcResult the service reports from.
    ModeResult full = RunMode(w, reps);
    w->engine->set_cutoff(true);
    ModeResult cut = RunMode(w, reps);
    w->engine->set_cutoff(false);
    double ratio = cut.recalculated > 0
                       ? double(full.recalculated) / double(cut.recalculated)
                       : 0.0;
    char ratio_str[32];
    std::snprintf(ratio_str, sizeof(ratio_str), "%.1fx", ratio);
    const std::string backend_name =
        w->graph->Name().empty() ? "?" : std::string(w->graph->Name());
    table.AddRow({name, backend_name, std::to_string(full.dirty),
                         std::to_string(full.recalculated),
                         std::to_string(cut.recalculated),
                         std::to_string(cut.skipped), ratio_str,
                         FormatMs(full.eval_ms), FormatMs(cut.eval_ms)});
    return ratio;
  };

  const int chain_depth =
      EnvInt("TACO_BENCH_CUTOFF_DEPTH", std::max(1, scale.chain_rows / 8));
  double chain_ratio_min = 1e300;
  for (const std::string backend : {"taco", "nocomp"}) {
    Workload chain = MakeAbsorbingChain(scale.chain_rows, chain_depth, backend);
    chain_ratio_min =
        std::min(chain_ratio_min, run_cutoff("chain_absorb", &chain));
    Workload fanout = MakeAbsorbingFanout(scale.fanout_rows, backend);
    run_cutoff("fanout_absorb", &fanout);
  }
  table.Print();
  std::printf(
      "\nratio is full_eval/cut_eval — evaluated-cell counts from "
      "RecalcResult, so it is\nexact and machine-load-independent; ms "
      "columns are the usual wall-clock means.\nchain absorber sits at row "
      "%d of %d (TACO_BENCH_CUTOFF_DEPTH).\n",
      chain_depth, scale.chain_rows);
  if (chain_ratio_min < 5.0) {
    std::printf("WARNING: chain_absorb ratio %.1fx below the 5x target "
                "(depth override in effect?)\n",
                chain_ratio_min);
  }
  return 0;
}

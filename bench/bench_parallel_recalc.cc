// Serial vs. wave-parallel recalculation across graph backends and
// dirty-subgraph shapes (the src/sched subsystem's headline numbers).
//
// Three corpus profiles, matching the region generators of src/corpus:
//   chain   running accumulators (RR-Chain): B[r] = B[r-1]+A[r]. The
//           dirty subgraph is one long path — zero wave parallelism,
//           so this row measures scheduler overhead, not speedup.
//   fanout  cumulative FR columns: B[r] = SUM($A$1:A[r]). Editing A1
//           dirties every formula and none depends on another — one
//           wide wave with strongly skewed per-cell cost (the strided
//           assignment's stress shape).
//   mixed   the synthetic Enron corpus generator's default region mix
//           (sliding windows, derived columns, VLOOKUP tables, chains),
//           edited at its max-dependents anchor.
//
// Modes: serial (the engine with no pool), then wave-parallel at 2/4/8
// scheduler threads. The reported time is RecalcResult::eval_ms — the
// re-evaluation phase the scheduler parallelizes — with the
// FindDependents share shown separately (the paper's graph-query
// latency, unchanged by this layer).
//
// A second table measures value-change cutoff on absorbing workloads:
// the same chain/fanout shapes with an IF stage that collapses the
// edited value to a constant, so everything downstream of the absorber
// is dirty but unchanged — the shape cutoff exists for. The headline is
// the EVALUATED-CELL ratio (full/cutoff, from RecalcResult counters),
// which is machine-load-independent; wall clock is reported alongside.
//
//   TACO_BENCH_PROFILE=smoke|paper   scale preset (default: laptop)
//   TACO_BENCH_RECALC_REPS           timed repetitions per mode
//   TACO_BENCH_CUTOFF_DEPTH          absorber position in the cutoff
//                                    chain profile (default: rows/8)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "corpus/generator.h"
#include "eval/recalc.h"
#include "graph/nocomp_graph.h"
#include "sched/recalc_scheduler.h"
#include "sched/thread_pool.h"
#include "sheet/sheet.h"
#include "taco/taco_graph.h"

using namespace taco;
using namespace taco::bench;

namespace {

struct Scale {
  int chain_rows;
  int fanout_rows;
  int mixed_formulas;
  int reps;
};

Scale ActiveScale() {
  switch (ActiveBenchProfile()) {
    case BenchProfile::kSmoke: return {4000, 2000, 4000, 5};
    case BenchProfile::kPaper: return {60000, 6000, 60000, 9};
    case BenchProfile::kDefault: break;
  }
  return {20000, 4000, 20000, 7};
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

Workload MakeChain(int rows, const std::string& backend) {
  Workload w;
  (void)w.sheet.SetNumber(Cell{1, 1}, 1.0);
  (void)w.sheet.SetFormula(Cell{2, 1}, "A1+1");
  for (int r = 2; r <= rows; ++r) {
    (void)w.sheet.SetNumber(Cell{1, r}, r * 1.0);
    (void)w.sheet.SetFormula(Cell{2, r},
                             "B" + std::to_string(r - 1) + "+A" +
                                 std::to_string(r));
  }
  w.edit_cell = Cell{1, 1};
  w.Finish(backend);
  return w;
}

Workload MakeFanout(int rows, const std::string& backend) {
  Workload w;
  for (int r = 1; r <= rows; ++r) {
    (void)w.sheet.SetNumber(Cell{1, r}, r * 0.5);
    (void)w.sheet.SetFormula(Cell{2, r},
                             "SUM($A$1:A" + std::to_string(r) + ")");
  }
  w.edit_cell = Cell{1, 1};
  w.Finish(backend);
  return w;
}

Workload MakeMixed(int formulas, const std::string& backend) {
  CorpusProfile profile = CorpusProfile::Enron();
  profile.name = "MixedBench";
  profile.num_sheets = 1;
  profile.min_formulas_per_sheet = formulas;
  profile.max_formulas_per_sheet = formulas;
  profile.flat_sheet_probability = 0.0;  // Keep the anchor interesting.
  profile.fill_values = true;
  CorpusSheet generated = CorpusGenerator(profile).GenerateSheet(0);
  Workload w;
  w.sheet = std::move(generated.sheet);
  w.edit_cell = generated.max_dependents_cell;
  w.Finish(backend);
  return w;
}

/// Absorbing chain: the plain chain with an IF stage at `depth` that
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
  double eval_ms = 0;      // Mean re-evaluation phase.
  double find_ms = 0;      // Mean FindDependents phase.
  uint64_t dirty = 0;
  uint64_t waves = 0;
  uint64_t max_wave = 0;
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
  std::vector<double> eval_ms, find_ms;
  for (int rep = 0; rep < reps; ++rep) {
    value = value == 1000.0 ? 2000.0 : 1000.0;
    RecalcResult r = edit(value);
    eval_ms.push_back(r.eval_ms);
    find_ms.push_back(r.find_dependents_ms);
    out.dirty = r.dirty_cells;
    out.waves = r.waves;
    out.max_wave = r.max_wave_cells;
    out.recalculated = r.recalculated;
    out.skipped = r.cells_skipped_cutoff;
  }
  out.eval_ms = Mean(eval_ms);
  out.find_ms = Mean(find_ms);
  return out;
}

std::string Speedup(double serial_ms, double parallel_ms) {
  if (parallel_ms <= 0) return "-";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2fx", serial_ms / parallel_ms);
  return buffer;
}

}  // namespace

int main() {
  PrintHeader("Parallel recalculation: serial vs. wave-scheduled",
              "src/sched RecalcScheduler; workload shapes after Sec. VI-E");
  Scale scale = ActiveScale();
  int reps = EnvInt("TACO_BENCH_RECALC_REPS", scale.reps);
  const std::vector<int> thread_sweep = {2, 4, 8};

  TablePrinter table({"profile", "graph", "dirty", "waves", "serial",
                      "2T", "4T", "8T", "find_ms"});

  struct ProfileDef {
    const char* name;
    Workload (*make)(int, const std::string&);
    int size;
  };
  const ProfileDef profiles[] = {
      {"chain", +[](int n, const std::string& b) { return MakeChain(n, b); },
       scale.chain_rows},
      {"fanout", +[](int n, const std::string& b) { return MakeFanout(n, b); },
       scale.fanout_rows},
      {"mixed", +[](int n, const std::string& b) { return MakeMixed(n, b); },
       scale.mixed_formulas},
  };

  for (const ProfileDef& profile : profiles) {
    for (const std::string backend : {"taco", "nocomp"}) {
      Workload w = profile.make(profile.size, backend);

      // Serial: the engine's own pool-less scheduler.
      ModeResult serial = RunMode(&w, reps);

      std::vector<ModeResult> parallel;
      uint64_t waves = 0;
      for (int threads : thread_sweep) {
        ThreadPool pool(threads);
        SchedulerOptions options;
        options.threads = threads;
        RecalcScheduler scheduler(&pool, options);
        w.engine->set_scheduler(&scheduler);
        parallel.push_back(RunMode(&w, reps));
        waves = parallel.back().waves;
        // The scheduler dies with this scope; unplug it from the engine.
        w.engine->set_scheduler(nullptr);
      }

      table.AddRow({profile.name, backend, std::to_string(serial.dirty),
                    std::to_string(waves),
                    FormatMs(serial.eval_ms),
                    FormatMs(parallel[0].eval_ms) + " (" +
                        Speedup(serial.eval_ms, parallel[0].eval_ms) + ")",
                    FormatMs(parallel[1].eval_ms) + " (" +
                        Speedup(serial.eval_ms, parallel[1].eval_ms) + ")",
                    FormatMs(parallel[2].eval_ms) + " (" +
                        Speedup(serial.eval_ms, parallel[2].eval_ms) + ")",
                    FormatMs(serial.find_ms)});
    }
  }
  table.Print();
  std::printf(
      "\nTimes are the re-evaluation phase (RecalcResult::eval_ms), mean of "
      "%d reps.\nfind_ms is the FindDependents share of the same edits "
      "(unchanged by the scheduler).\nchain is wave-degenerate by "
      "construction: it measures scheduler overhead.\n",
      reps);

  // --- Value-change cutoff on absorbing workloads -----------------------
  std::printf("\nValue-change cutoff: absorbing workloads "
              "(full vs. cutoff recalc)\n\n");
  TablePrinter cutoff_table({"profile", "graph", "dirty", "full_eval",
                             "cut_eval", "skipped", "ratio", "full_ms",
                             "cut_ms", "cut_2T_ms"});

  auto run_cutoff = [&](const char* name, Workload* w) {
    // Full pass baseline, then cutoff with no pool, then cutoff on a
    // 2-thread pool — all on the same workload, counters from the same
    // RecalcResult the service reports from.
    ModeResult full = RunMode(w, reps);
    w->engine->set_cutoff(true);
    ModeResult cut = RunMode(w, reps);
    ModeResult cut2;
    {
      ThreadPool pool(2);
      SchedulerOptions options;
      options.threads = 2;
      RecalcScheduler scheduler(&pool, options);
      w->engine->set_scheduler(&scheduler);
      cut2 = RunMode(w, reps);
      w->engine->set_scheduler(nullptr);
    }
    w->engine->set_cutoff(false);

    double ratio = cut.recalculated > 0
                       ? double(full.recalculated) / double(cut.recalculated)
                       : 0.0;
    char ratio_str[32];
    std::snprintf(ratio_str, sizeof(ratio_str), "%.1fx", ratio);
    const std::string backend_name =
        w->graph->Name().empty() ? "?" : std::string(w->graph->Name());
    cutoff_table.AddRow({name, backend_name, std::to_string(full.dirty),
                         std::to_string(full.recalculated),
                         std::to_string(cut.recalculated),
                         std::to_string(cut.skipped), ratio_str,
                         FormatMs(full.eval_ms), FormatMs(cut.eval_ms),
                         FormatMs(cut2.eval_ms)});
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
  cutoff_table.Print();
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

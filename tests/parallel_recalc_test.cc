// Parallel recalculation determinism: an engine plugged into a pooled
// wave scheduler must produce sheets CELL-FOR-CELL identical to one with
// no pool (serial-inline evaluation in dirty-range enumeration order) —
// values, error cells, and #CYCLE! patterns included — with
// identical recalc_passes, across both planning granularities
// (cell-granular Kahn waves, serial inline) and over-budget passes.
// The randomized suites double as the TSan workload for the scheduler.

#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/antifreeze.h"
#include "baselines/calcgraph.h"
#include "baselines/cellgraph.h"
#include "baselines/excellike.h"
#include "eval/recalc.h"
#include "graph/nocomp_graph.h"
#include "sched/recalc_scheduler.h"
#include "sched/thread_pool.h"
#include "sheet/sheet.h"
#include "taco/pattern.h"
#include "taco/taco_graph.h"

namespace taco {
namespace {

std::unique_ptr<DependencyGraph> MakeGraph(bool taco) {
  if (taco) return std::make_unique<TacoGraph>();
  return std::make_unique<NoCompGraph>();
}

/// Sheet + graph + engine, optionally wired to a wave scheduler.
struct Rig {
  Rig(bool taco, RecalcScheduler* scheduler)
      : graph(MakeGraph(taco)), engine(&sheet, graph.get()) {
    engine.set_scheduler(scheduler);
  }
  Sheet sheet;
  std::unique_ptr<DependencyGraph> graph;
  RecalcEngine engine;
};

/// Asserts every cell of `range` evaluates identically in both rigs.
void ExpectSameValues(Rig* serial, Rig* parallel, const Range& range) {
  for (const Cell& cell : EnumerateCells(range)) {
    Value expected = serial->engine.GetValue(cell);
    Value actual = parallel->engine.GetValue(cell);
    EXPECT_EQ(expected, actual)
        << "cell " << cell.ToString() << ": serial=" << expected.ToString()
        << " parallel=" << actual.ToString();
  }
}

/// Aggressive options: no serial fast path, every wave parallel, so even
/// tiny workloads exercise the wave machinery.
SchedulerOptions EagerOptions() {
  SchedulerOptions options;
  options.threads = 3;
  options.min_parallel_cells = 1;
  options.min_parallel_wave = 1;
  return options;
}

class ParallelRecalcTest : public ::testing::TestWithParam<bool> {};

TEST_P(ParallelRecalcTest, FanOutRunsInOneWave) {
  ThreadPool pool(3);
  RecalcScheduler scheduler(&pool, EagerOptions());
  Rig serial(GetParam(), nullptr);
  Rig parallel(GetParam(), &scheduler);

  constexpr int kRows = 200;
  for (Rig* rig : {&serial, &parallel}) {
    ASSERT_TRUE(rig->engine.SetNumber(Cell{1, 1}, 10.0).ok());
    EditBatch setup;
    for (int r = 1; r <= kRows; ++r) {
      setup.push_back(
          Edit::SetFormula(Cell{2, r}, "$A$1*" + std::to_string(r)));
    }
    ASSERT_TRUE(rig->engine.ApplyBatch(setup).ok());
  }

  auto serial_result = serial.engine.SetNumber(Cell{1, 1}, 3.0);
  auto parallel_result = parallel.engine.SetNumber(Cell{1, 1}, 3.0);
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(parallel_result.ok());
  // Wide fan-out: every dependent is independent of the others, so the
  // whole dirty set executes as one wave.
  EXPECT_EQ(parallel_result->waves, 1u);
  EXPECT_EQ(parallel_result->max_wave_cells, static_cast<uint64_t>(kRows));
  EXPECT_EQ(parallel_result->recalculated, serial_result->recalculated);
  EXPECT_EQ(parallel_result->recalc_passes, serial_result->recalc_passes);
  ExpectSameValues(&serial, &parallel, Range(1, 1, 2, kRows));
}

TEST_P(ParallelRecalcTest, ChainRunsOneWavePerLink) {
  ThreadPool pool(3);
  RecalcScheduler scheduler(&pool, EagerOptions());
  Rig serial(GetParam(), nullptr);
  Rig parallel(GetParam(), &scheduler);

  constexpr int kRows = 60;
  for (Rig* rig : {&serial, &parallel}) {
    ASSERT_TRUE(rig->engine.SetNumber(Cell{1, 1}, 1.0).ok());
    EditBatch setup;
    setup.push_back(Edit::SetFormula(Cell{2, 1}, "A1+1"));
    for (int r = 2; r <= kRows; ++r) {
      setup.push_back(
          Edit::SetFormula(Cell{2, r}, "B" + std::to_string(r - 1) + "+1"));
    }
    ASSERT_TRUE(rig->engine.ApplyBatch(setup).ok());
  }

  auto serial_result = serial.engine.SetNumber(Cell{1, 1}, 5.0);
  auto parallel_result = parallel.engine.SetNumber(Cell{1, 1}, 5.0);
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(parallel_result.ok());
  // A pure chain is inherently serial: one wave per link, 1 cell each.
  EXPECT_EQ(parallel_result->waves, static_cast<uint64_t>(kRows));
  EXPECT_EQ(parallel_result->max_wave_cells, 1u);
  ExpectSameValues(&serial, &parallel, Range(1, 1, 2, kRows));
  EXPECT_EQ(parallel.engine.GetValue(Cell{2, kRows}),
            Value::Number(5.0 + kRows));
}

TEST_P(ParallelRecalcTest, CycleCellsMatchSerialIncludingOrderSensitivity) {
  ThreadPool pool(3);
  RecalcScheduler scheduler(&pool, EagerOptions());
  Rig serial(GetParam(), nullptr);
  Rig parallel(GetParam(), &scheduler);

  // COUNT swallows errors, so the cycle's outcome depends on which
  // member is evaluated first — the sharpest determinism probe we have:
  // serial evaluates in dirty-range enumeration order, and the parallel
  // leftover pass must replay exactly that order.
  for (Rig* rig : {&serial, &parallel}) {
    ASSERT_TRUE(rig->engine.SetNumber(Cell{4, 1}, 1.0).ok());  // D1
    EditBatch setup;
    setup.push_back(Edit::SetFormula(Cell{1, 1}, "COUNT(B1)+D1*0"));  // A1
    setup.push_back(Edit::SetFormula(Cell{2, 1}, "COUNT(A1)+D1*0"));  // B1
    // Downstream of the cycle plus an acyclic bystander.
    setup.push_back(Edit::SetFormula(Cell{3, 1}, "A1+B1"));           // C1
    setup.push_back(Edit::SetFormula(Cell{3, 2}, "D1*10"));           // C2
    ASSERT_TRUE(rig->engine.ApplyBatch(setup).ok());
  }

  // Editing D1 dirties the cycle, its downstream, and the bystander.
  auto serial_result = serial.engine.SetNumber(Cell{4, 1}, 2.0);
  auto parallel_result = parallel.engine.SetNumber(Cell{4, 1}, 2.0);
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(parallel_result.ok());
  EXPECT_EQ(parallel_result->recalculated, serial_result->recalculated);
  ExpectSameValues(&serial, &parallel, Range(1, 1, 4, 2));

  // Self-reference: the tightest cycle.
  for (Rig* rig : {&serial, &parallel}) {
    ASSERT_TRUE(rig->engine.SetFormula(Cell{5, 1}, "E1+D1").ok());
  }
  ASSERT_TRUE(serial.engine.SetNumber(Cell{4, 1}, 3.0).ok());
  ASSERT_TRUE(parallel.engine.SetNumber(Cell{4, 1}, 3.0).ok());
  ExpectSameValues(&serial, &parallel, Range(1, 1, 5, 2));
  EXPECT_EQ(parallel.engine.GetValue(Cell{5, 1}),
            Value::Error(EvalError::kCycle));
}

TEST_P(ParallelRecalcTest, EdgeBudgetOverflowRunsSerialInline) {
  ThreadPool pool(3);
  // An edge budget of 4 forces per-cell expansion to abort immediately:
  // the pooled pass runs serial-inline on a normal workload.
  SchedulerOptions options = EagerOptions();
  options.max_edges = 4;
  RecalcScheduler scheduler(&pool, options);
  Rig serial(GetParam(), nullptr);
  Rig parallel(GetParam(), &scheduler);

  constexpr int kRows = 40;
  for (Rig* rig : {&serial, &parallel}) {
    EditBatch setup;
    for (int r = 1; r <= kRows; ++r) {
      setup.push_back(Edit::SetNumber(Cell{1, r}, r * 1.0));
      setup.push_back(
          Edit::SetFormula(Cell{2, r}, "SUM($A$1:A" + std::to_string(r) + ")"));
      setup.push_back(
          Edit::SetFormula(Cell{3, r}, "B" + std::to_string(r) + "*2"));
    }
    ASSERT_TRUE(rig->engine.ApplyBatch(setup).ok());
  }

  auto serial_result = serial.engine.SetNumber(Cell{1, 1}, 100.0);
  auto parallel_result = parallel.engine.SetNumber(Cell{1, 1}, 100.0);
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(parallel_result.ok());
  EXPECT_EQ(parallel_result->waves, 0u);
  EXPECT_EQ(parallel_result->recalculated, serial_result->recalculated);
  ExpectSameValues(&serial, &parallel, Range(1, 1, 3, kRows));
}

TEST_P(ParallelRecalcTest, TinyDirtySetsTakeTheSerialInlinePath) {
  ThreadPool pool(3);
  SchedulerOptions options;
  options.threads = 3;
  options.min_parallel_cells = 1000;  // Force the inline path.
  RecalcScheduler scheduler(&pool, options);
  Rig serial(GetParam(), nullptr);
  Rig parallel(GetParam(), &scheduler);

  for (Rig* rig : {&serial, &parallel}) {
    ASSERT_TRUE(rig->engine.SetNumber(Cell{1, 1}, 2.0).ok());
    ASSERT_TRUE(rig->engine.SetFormula(Cell{2, 1}, "A1*3").ok());
    ASSERT_TRUE(rig->engine.SetFormula(Cell{2, 2}, "B1+1").ok());
  }
  auto serial_result = serial.engine.SetNumber(Cell{1, 1}, 4.0);
  auto parallel_result = parallel.engine.SetNumber(Cell{1, 1}, 4.0);
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(parallel_result.ok());
  EXPECT_EQ(parallel_result->waves, 0u);  // Inline: no waves scheduled.
  ExpectSameValues(&serial, &parallel, Range(1, 1, 2, 2));
}

// ---------------------------------------------------------------------------
// Randomized differential workloads: identical random edit batches are
// applied once without a pool and once pooled; after every batch the
// rigs must agree cell-for-cell (errors and #CYCLE! included) and on
// recalc_passes/recalculated. Formulas reference cells in any direction,
// so cycles, diamonds, and error propagation occur organically.
// ---------------------------------------------------------------------------

constexpr int kCols = 6;
constexpr int kRows = 12;

std::string RandomCellRef(std::mt19937* rng) {
  std::uniform_int_distribution<int> col(1, kCols);
  std::uniform_int_distribution<int> row(1, kRows);
  return Cell{col(*rng), row(*rng)}.ToString();
}

std::string RandomRangeRef(std::mt19937* rng) {
  std::uniform_int_distribution<int> col(1, kCols);
  std::uniform_int_distribution<int> row(1, kRows);
  std::uniform_int_distribution<int> extent(0, 2);
  int c1 = col(*rng), r1 = row(*rng);
  int c2 = std::min(kCols, c1 + extent(*rng));
  int r2 = std::min(kRows, r1 + extent(*rng));
  return Range(c1, r1, c2, r2).ToString();
}

Edit RandomEdit(std::mt19937* rng) {
  std::uniform_int_distribution<int> col(1, kCols);
  std::uniform_int_distribution<int> row(1, kRows);
  Cell cell{col(*rng), row(*rng)};
  switch (std::uniform_int_distribution<int>(0, 9)(*rng)) {
    case 0:
    case 1:
    case 2:
      return Edit::SetNumber(
          cell, std::uniform_int_distribution<int>(-5, 20)(*rng) * 1.0);
    case 3:
      return Edit::SetFormula(cell, "SUM(" + RandomRangeRef(rng) + ")");
    case 4:
      return Edit::SetFormula(cell, RandomCellRef(rng) + "*2+" +
                                        RandomCellRef(rng));
    case 5:
      return Edit::SetFormula(cell, "IF(" + RandomCellRef(rng) + ">0," +
                                        RandomCellRef(rng) + "," +
                                        RandomCellRef(rng) + ")");
    case 6:
      // COUNT swallows errors: the order-sensitive cycle probe.
      return Edit::SetFormula(cell, "COUNT(" + RandomRangeRef(rng) + ")");
    case 7:
      // Division: organic #DIV/0! propagation.
      return Edit::SetFormula(cell, RandomCellRef(rng) + "/" +
                                        RandomCellRef(rng));
    case 8: {
      std::uniform_int_distribution<int> extent(0, 1);
      int c1 = col(*rng), r1 = row(*rng);
      return Edit::ClearRange(Range(c1, r1, std::min(kCols, c1 + extent(*rng)),
                                    std::min(kRows, r1 + extent(*rng))));
    }
    default:
      return Edit::SetFormula(cell, "AVERAGE(" + RandomRangeRef(rng) + ")");
  }
}

void RunRandomizedWorkload(bool taco, const SchedulerOptions& options,
                           uint32_t seed, int rounds) {
  ThreadPool pool(options.threads);
  RecalcScheduler scheduler(&pool, options);
  Rig serial(taco, nullptr);
  Rig parallel(taco, &scheduler);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> batch_size(1, 8);

  const Range region(1, 1, kCols, kRows);
  for (int round = 0; round < rounds; ++round) {
    EditBatch batch;
    int n = batch_size(rng);
    for (int i = 0; i < n; ++i) batch.push_back(RandomEdit(&rng));

    RecalcResult serial_partial, parallel_partial;
    auto serial_result = serial.engine.ApplyBatch(batch, &serial_partial);
    auto parallel_result =
        parallel.engine.ApplyBatch(batch, &parallel_partial);
    ASSERT_EQ(serial_result.ok(), parallel_result.ok())
        << "round " << round << ": " << serial_result.status().ToString()
        << " vs " << parallel_result.status().ToString();
    const RecalcResult& s =
        serial_result.ok() ? *serial_result : serial_partial;
    const RecalcResult& p =
        parallel_result.ok() ? *parallel_result : parallel_partial;
    EXPECT_EQ(s.recalc_passes, p.recalc_passes) << "round " << round;
    EXPECT_EQ(s.recalculated, p.recalculated) << "round " << round;
    EXPECT_EQ(s.dirty_cells, p.dirty_cells) << "round " << round;
    EXPECT_EQ(p.recalculated, p.dirty_formulas) << "round " << round;
    EXPECT_EQ(p.cells_skipped_cutoff, 0u) << "round " << round;
    ExpectSameValues(&serial, &parallel, region);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(ParallelRecalcTest, RandomizedWorkloadsMatchCellForCell) {
  for (uint32_t seed : {11u, 23u, 57u}) {
    RunRandomizedWorkload(GetParam(), EagerOptions(), seed, 40);
  }
}

TEST_P(ParallelRecalcTest, RandomizedWorkloadsMatchOverEdgeBudget) {
  SchedulerOptions options = EagerOptions();
  options.max_edges = 2;  // Nearly every pass runs serial-inline.
  for (uint32_t seed : {5u, 71u}) {
    RunRandomizedWorkload(GetParam(), options, seed, 30);
  }
}

TEST_P(ParallelRecalcTest, RandomizedWorkloadsMatchAtDefaultBudgets) {
  // Default thresholds: small batches go inline, bigger dirty sets hit
  // the wave path — the mix a real service sees.
  SchedulerOptions options;
  options.threads = 4;
  options.min_parallel_cells = 8;
  options.min_parallel_wave = 2;
  RunRandomizedWorkload(GetParam(), options, 99u, 40);
}

INSTANTIATE_TEST_SUITE_P(Graphs, ParallelRecalcTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Taco" : "NoComp";
                         });

// ---------------------------------------------------------------------------
// Cutoff-vs-full differential: the same randomized workloads, but the
// twin engines differ in the value-change cutoff flag instead of the
// pool. Cutoff's contract is BY-CONSTRUCTION equality — every cell
// it prunes is provably unreachable from a changed value — so the rigs
// must agree cell-for-cell (errors and #CYCLE! included) across every
// DependencyGraph implementation, since each graph shapes dirty sets
// (and thus wave plans and prune opportunities) differently. Also the
// TSan workload for the cell-wave loop's prime-then-dispatch ordering.
// ---------------------------------------------------------------------------

/// The ten graph configurations of the differential suite
/// (tests/differential_test.cc kSpecs), reduced to name + factory.
struct CutoffGraphSpec {
  const char* name;
  std::unique_ptr<DependencyGraph> (*make)();
};

const CutoffGraphSpec kCutoffSpecs[] = {
    {"TacoFull",
     +[]() -> std::unique_ptr<DependencyGraph> {
       return std::make_unique<TacoGraph>(TacoOptions::Full());
     }},
    {"TacoInRow",
     +[]() -> std::unique_ptr<DependencyGraph> {
       return std::make_unique<TacoGraph>(TacoOptions::InRow());
     }},
    {"TacoNoHeuristics",
     +[]() -> std::unique_ptr<DependencyGraph> {
       return std::make_unique<TacoGraph>(TacoOptions::NoHeuristics());
     }},
    {"TacoExtendedPatterns",
     +[]() -> std::unique_ptr<DependencyGraph> {
       TacoOptions options;
       options.patterns = ExtendedPatternSet();
       return std::make_unique<TacoGraph>(options);
     }},
    {"NoComp",
     +[]() -> std::unique_ptr<DependencyGraph> {
       return std::make_unique<NoCompGraph>();
     }},
    {"CellGraph",
     +[]() -> std::unique_ptr<DependencyGraph> {
       return std::make_unique<CellGraph>();
     }},
    {"CalcGraph",
     +[]() -> std::unique_ptr<DependencyGraph> {
       return std::make_unique<CalcGraph>();
     }},
    {"CalcGraphTinyContainers",
     +[]() -> std::unique_ptr<DependencyGraph> {
       return std::make_unique<CalcGraph>(/*container_cols=*/2,
                                          /*container_rows=*/4);
     }},
    {"ExcelLike",
     +[]() -> std::unique_ptr<DependencyGraph> {
       return std::make_unique<ExcelLikeGraph>();
     }},
    {"Antifreeze",
     +[]() -> std::unique_ptr<DependencyGraph> {
       return std::make_unique<AntifreezeGraph>();
     }},
};

/// Sheet + graph + engine with an explicit cutoff flag.
struct CutoffRig {
  CutoffRig(const CutoffGraphSpec& spec, RecalcScheduler* scheduler,
            bool cutoff)
      : graph(spec.make()), engine(&sheet, graph.get()) {
    engine.set_scheduler(scheduler);
    engine.set_cutoff(cutoff);
  }
  Sheet sheet;
  std::unique_ptr<DependencyGraph> graph;
  RecalcEngine engine;
};

/// Identical random batches into a full rig and a cutoff rig; after
/// every batch: cell-for-cell equality plus the cutoff accounting
/// invariant `recalculated + cells_skipped_cutoff == dirty_formulas`.
/// `prunes` says whether the cutoff rig must prune somewhere in the run
/// or nowhere at all (every pass over budget, so every pass runs uncut).
void RunCutoffDifferential(const CutoffGraphSpec& spec,
                           const SchedulerOptions& options, bool parallel,
                           uint32_t seed, int rounds, bool prunes = true) {
  ThreadPool pool(options.threads);
  RecalcScheduler scheduler(&pool, options);
  RecalcScheduler* plugged = parallel ? &scheduler : nullptr;
  CutoffRig full(spec, plugged, /*cutoff=*/false);
  CutoffRig cut(spec, plugged, /*cutoff=*/true);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> batch_size(1, 8);

  const Range region(1, 1, kCols, kRows);
  uint64_t total_skipped = 0;
  for (int round = 0; round < rounds; ++round) {
    EditBatch batch;
    int n = batch_size(rng);
    for (int i = 0; i < n; ++i) batch.push_back(RandomEdit(&rng));

    RecalcResult full_partial, cut_partial;
    auto full_result = full.engine.ApplyBatch(batch, &full_partial);
    auto cut_result = cut.engine.ApplyBatch(batch, &cut_partial);
    ASSERT_EQ(full_result.ok(), cut_result.ok())
        << spec.name << " round " << round << ": "
        << full_result.status().ToString() << " vs "
        << cut_result.status().ToString();
    const RecalcResult& f = full_result.ok() ? *full_result : full_partial;
    const RecalcResult& c = cut_result.ok() ? *cut_result : cut_partial;
    EXPECT_EQ(f.recalc_passes, c.recalc_passes)
        << spec.name << " round " << round;
    EXPECT_EQ(f.dirty_cells, c.dirty_cells) << spec.name << " round " << round;
    // The accounting invariant, on both rigs: a full pass simply has
    // zero skips.
    EXPECT_EQ(c.recalculated + c.cells_skipped_cutoff, c.dirty_formulas)
        << spec.name << " round " << round;
    EXPECT_EQ(f.cells_skipped_cutoff, 0u) << spec.name << " round " << round;
    EXPECT_EQ(f.recalculated, f.dirty_formulas)
        << spec.name << " round " << round;
    if (!prunes) {
      EXPECT_EQ(c.cells_skipped_cutoff, 0u) << spec.name << " round " << round;
    }
    total_skipped += c.cells_skipped_cutoff;

    for (const Cell& cell : EnumerateCells(region)) {
      Value expected = full.engine.GetValue(cell);
      Value actual = cut.engine.GetValue(cell);
      EXPECT_EQ(expected, actual)
          << spec.name << " round " << round << " cell " << cell.ToString()
          << ": full=" << expected.ToString()
          << " cutoff=" << actual.ToString();
    }
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
  // The workload overwrites cells with fresh random values constantly;
  // a run where cutoff never pruned anything would mean the suite isn't
  // actually exercising the prune path.
  if (prunes) EXPECT_GT(total_skipped, 0u) << spec.name;
}

class CutoffDifferentialTest
    : public ::testing::TestWithParam<const CutoffGraphSpec*> {};

TEST_P(CutoffDifferentialTest, CellGranularWavesMatchFullRecalc) {
  SchedulerOptions options = EagerOptions();
  options.threads = 2;  // Matches the TSan CI job's recalc width.
  RunCutoffDifferential(*GetParam(), options, /*parallel=*/true, 11u, 30);
}

TEST_P(CutoffDifferentialTest, OverEdgeBudgetRunsUncutAndMatchesFullRecalc) {
  SchedulerOptions options = EagerOptions();
  options.threads = 2;
  options.max_edges = 2;  // Over-budget passes run serial-inline, uncut.
  RunCutoffDifferential(*GetParam(), options, /*parallel=*/true, 47u, 25,
                        /*prunes=*/false);
}

TEST_P(CutoffDifferentialTest, SerialEngineCutoffMatchesFullRecalc) {
  // No scheduler plugged: the engine's own pool-less one runs it.
  SchedulerOptions options = EagerOptions();  // Only sizes the unused pool.
  RunCutoffDifferential(*GetParam(), options, /*parallel=*/false, 83u, 25);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, CutoffDifferentialTest,
    ::testing::Values(&kCutoffSpecs[0], &kCutoffSpecs[1], &kCutoffSpecs[2],
                      &kCutoffSpecs[3], &kCutoffSpecs[4], &kCutoffSpecs[5],
                      &kCutoffSpecs[6], &kCutoffSpecs[7], &kCutoffSpecs[8],
                      &kCutoffSpecs[9]),
    [](const ::testing::TestParamInfo<const CutoffGraphSpec*>& info) {
      return std::string(info.param->name);
    });

}  // namespace
}  // namespace taco

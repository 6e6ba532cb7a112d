// Wave recalculation determinism: value-change cutoff passes run as
// cell-granular Kahn waves on the calling thread, and must leave sheets
// CELL-FOR-CELL identical to full serial-inline recalc (dirty-range
// enumeration order) — values, error cells, and #CYCLE! patterns
// included — with identical recalc_passes. The fixed shapes pin the wave
// structure (a fan-out is one wave, a chain one wave per link, cycles
// replay in serial order); the randomized cutoff-vs-full suites below
// cover every graph backend, in and over the planning budgets.

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
#include "sheet/sheet.h"
#include "taco/pattern.h"
#include "taco/taco_graph.h"

namespace taco {
namespace {

std::unique_ptr<DependencyGraph> MakeGraph(bool taco) {
  if (taco) return std::make_unique<TacoGraph>();
  return std::make_unique<NoCompGraph>();
}

/// Sheet + graph + engine; `cutoff` selects the wave path.
struct Rig {
  Rig(bool taco, bool cutoff, SchedulerOptions budgets = {})
      : graph(MakeGraph(taco)), engine(&sheet, graph.get(), budgets) {
    engine.set_cutoff(cutoff);
  }
  Sheet sheet;
  std::unique_ptr<DependencyGraph> graph;
  RecalcEngine engine;
};

/// Asserts every cell of `range` evaluates identically in both rigs.
void ExpectSameValues(Rig* serial, Rig* waves, const Range& range) {
  for (const Cell& cell : EnumerateCells(range)) {
    Value expected = serial->engine.GetValue(cell);
    Value actual = waves->engine.GetValue(cell);
    EXPECT_EQ(expected, actual)
        << "cell " << cell.ToString() << ": serial=" << expected.ToString()
        << " waves=" << actual.ToString();
  }
}

class ParallelRecalcTest : public ::testing::TestWithParam<bool> {};

TEST_P(ParallelRecalcTest, FanOutRunsInOneWave) {
  Rig serial(GetParam(), /*cutoff=*/false);
  Rig waves(GetParam(), /*cutoff=*/true);

  constexpr int kRows = 200;
  for (Rig* rig : {&serial, &waves}) {
    ASSERT_TRUE(rig->engine.SetNumber(Cell{1, 1}, 10.0).ok());
    EditBatch setup;
    for (int r = 1; r <= kRows; ++r) {
      setup.push_back(
          Edit::SetFormula(Cell{2, r}, "$A$1*" + std::to_string(r)));
    }
    ASSERT_TRUE(rig->engine.ApplyBatch(setup).ok());
  }

  auto serial_result = serial.engine.SetNumber(Cell{1, 1}, 3.0);
  auto wave_result = waves.engine.SetNumber(Cell{1, 1}, 3.0);
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(wave_result.ok());
  // Wide fan-out: every dependent is independent of the others, so the
  // whole dirty set is one wave. Every cell reads the seed: none prunes.
  EXPECT_EQ(serial_result->waves, 0u);
  EXPECT_EQ(wave_result->waves, 1u);
  EXPECT_EQ(wave_result->max_wave_cells, static_cast<uint64_t>(kRows));
  EXPECT_EQ(wave_result->recalculated, serial_result->recalculated);
  EXPECT_EQ(wave_result->recalc_passes, serial_result->recalc_passes);
  ExpectSameValues(&serial, &waves, Range(1, 1, 2, kRows));
}

TEST_P(ParallelRecalcTest, ChainRunsOneWavePerLink) {
  Rig serial(GetParam(), /*cutoff=*/false);
  Rig waves(GetParam(), /*cutoff=*/true);

  constexpr int kRows = 60;
  for (Rig* rig : {&serial, &waves}) {
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
  auto wave_result = waves.engine.SetNumber(Cell{1, 1}, 5.0);
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(wave_result.ok());
  // A pure chain is inherently serial: one wave per link, 1 cell each.
  EXPECT_EQ(wave_result->waves, static_cast<uint64_t>(kRows));
  EXPECT_EQ(wave_result->max_wave_cells, 1u);
  EXPECT_EQ(wave_result->recalculated, serial_result->recalculated);
  ExpectSameValues(&serial, &waves, Range(1, 1, 2, kRows));
  EXPECT_EQ(waves.engine.GetValue(Cell{2, kRows}),
            Value::Number(5.0 + kRows));
}

TEST_P(ParallelRecalcTest, CycleCellsMatchSerialIncludingOrderSensitivity) {
  Rig serial(GetParam(), /*cutoff=*/false);
  Rig waves(GetParam(), /*cutoff=*/true);

  // COUNT swallows errors, so the cycle's outcome depends on which
  // member is evaluated first — the sharpest determinism probe we have:
  // serial evaluates in dirty-range enumeration order, and the wave
  // pass's leftover replay must follow exactly that order.
  for (Rig* rig : {&serial, &waves}) {
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
  auto wave_result = waves.engine.SetNumber(Cell{4, 1}, 2.0);
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(wave_result.ok());
  EXPECT_EQ(wave_result->waves, 1u);  // Just the bystander.
  EXPECT_EQ(wave_result->recalculated, serial_result->recalculated);
  ExpectSameValues(&serial, &waves, Range(1, 1, 4, 2));

  // Self-reference: the tightest cycle.
  for (Rig* rig : {&serial, &waves}) {
    ASSERT_TRUE(rig->engine.SetFormula(Cell{5, 1}, "E1+D1").ok());
  }
  ASSERT_TRUE(serial.engine.SetNumber(Cell{4, 1}, 3.0).ok());
  ASSERT_TRUE(waves.engine.SetNumber(Cell{4, 1}, 3.0).ok());
  ExpectSameValues(&serial, &waves, Range(1, 1, 5, 2));
  EXPECT_EQ(waves.engine.GetValue(Cell{5, 1}),
            Value::Error(EvalError::kCycle));
}

TEST_P(ParallelRecalcTest, EdgeBudgetOverflowRunsSerialInline) {
  // An edge budget of 4 forces per-cell expansion to abort immediately:
  // the cutoff pass runs serial-inline, uncut, on a normal workload.
  SchedulerOptions budgets;
  budgets.max_edges = 4;
  Rig serial(GetParam(), /*cutoff=*/false);
  Rig waves(GetParam(), /*cutoff=*/true, budgets);

  constexpr int kRows = 40;
  for (Rig* rig : {&serial, &waves}) {
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
  auto wave_result = waves.engine.SetNumber(Cell{1, 1}, 100.0);
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(wave_result.ok());
  EXPECT_EQ(wave_result->waves, 0u);
  EXPECT_EQ(wave_result->cells_skipped_cutoff, 0u);
  EXPECT_EQ(wave_result->recalculated, serial_result->recalculated);
  ExpectSameValues(&serial, &waves, Range(1, 1, 3, kRows));
}

TEST_P(ParallelRecalcTest, PassesWithoutCutoffRunSerialInline) {
  // No cutoff, nothing to prune: even a wide fan-out plans no waves.
  Rig serial(GetParam(), /*cutoff=*/false);
  constexpr int kRows = 100;
  ASSERT_TRUE(serial.engine.SetNumber(Cell{1, 1}, 2.0).ok());
  EditBatch setup;
  for (int r = 1; r <= kRows; ++r) {
    setup.push_back(Edit::SetFormula(Cell{2, r}, "A1*" + std::to_string(r)));
  }
  ASSERT_TRUE(serial.engine.ApplyBatch(setup).ok());
  auto result = serial.engine.SetNumber(Cell{1, 1}, 4.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->waves, 0u);
  EXPECT_EQ(result->max_wave_cells, 0u);
  EXPECT_EQ(result->recalculated, static_cast<uint64_t>(kRows));
  EXPECT_EQ(serial.engine.GetValue(Cell{2, kRows}), Value::Number(4.0 * kRows));
}

INSTANTIATE_TEST_SUITE_P(Graphs, ParallelRecalcTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Taco" : "NoComp";
                         });

// ---------------------------------------------------------------------------
// Randomized edit batches. Formulas reference cells in any direction, so
// cycles, diamonds, and error propagation occur organically.
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

// ---------------------------------------------------------------------------
// Cutoff-vs-full differential: twin engines that differ only in the
// value-change cutoff flag take identical random batches. Cutoff's
// contract is BY-CONSTRUCTION equality — every cell it prunes is
// provably unreachable from a changed value — so the rigs must agree
// cell-for-cell (errors and #CYCLE! included) across every
// DependencyGraph implementation, since each graph shapes dirty sets
// (and thus wave plans and prune opportunities) differently.
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
  CutoffRig(const CutoffGraphSpec& spec, const SchedulerOptions& budgets,
            bool cutoff)
      : graph(spec.make()), engine(&sheet, graph.get(), budgets) {
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
                           const SchedulerOptions& budgets, uint32_t seed,
                           int rounds, bool prunes = true) {
  CutoffRig full(spec, budgets, /*cutoff=*/false);
  CutoffRig cut(spec, budgets, /*cutoff=*/true);
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
  for (uint32_t seed : {11u, 83u}) {
    RunCutoffDifferential(*GetParam(), SchedulerOptions{}, seed, 30);
  }
}

TEST_P(CutoffDifferentialTest, OverEdgeBudgetRunsUncutAndMatchesFullRecalc) {
  SchedulerOptions budgets;
  budgets.max_edges = 2;  // Over-budget passes run serial-inline, uncut.
  RunCutoffDifferential(*GetParam(), budgets, 47u, 25, /*prunes=*/false);
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

// EXPLAIN dry-run planner (RecalcEngine::Explain / RecalcScheduler::Plan)
// against what the real recalc then does.
//
// The planner's whole contract is "guaranteed to match a subsequent
// Execute on the same sheet + dirty set wave-for-wave" — so every suite
// here explains an edit first and then performs it, asserting the plan
// predicted the pass the engine actually ran.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eval/recalc.h"
#include "graph/nocomp_graph.h"
#include "sched/recalc_scheduler.h"
#include "sched/thread_pool.h"
#include "sheet/sheet.h"
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

/// No serial fast path, every wave dispatched — tiny workloads still
/// exercise the planner's wave machinery.
SchedulerOptions EagerOptions() {
  SchedulerOptions options;
  options.threads = 3;
  options.min_parallel_cells = 1;
  options.min_parallel_wave = 1;
  return options;
}

class ExplainTest : public ::testing::TestWithParam<bool> {};

TEST_P(ExplainTest, FanOutPlansOneWaveAndExecutionAgrees) {
  ThreadPool pool(3);
  RecalcScheduler scheduler(&pool, EagerOptions());
  Rig rig(GetParam(), &scheduler);

  constexpr int kRows = 200;
  ASSERT_TRUE(rig.engine.SetNumber(Cell{1, 1}, 10.0).ok());
  EditBatch setup;
  for (int r = 1; r <= kRows; ++r) {
    setup.push_back(Edit::SetFormula(Cell{2, r}, "$A$1*" + std::to_string(r)));
  }
  ASSERT_TRUE(rig.engine.ApplyBatch(setup).ok());

  RecalcEngine::ExplainInfo info = rig.engine.Explain(Range(1, 1, 1, 1));
  EXPECT_EQ(info.plan.width, 3);
  EXPECT_EQ(info.seeds.size(), 1u);
  EXPECT_EQ(info.dirty_cells, static_cast<uint64_t>(kRows));
  EXPECT_EQ(info.plan.granularity, RecalcPlan::Granularity::kCellGranular);
  EXPECT_FALSE(info.plan.decision.empty());
  EXPECT_EQ(info.plan.dirty_formulas, static_cast<uint64_t>(kRows));
  EXPECT_EQ(info.plan.cycle_cells, 0u);
  // Independent dependents: the whole dirty set is one wave.
  ASSERT_EQ(info.plan.waves(), 1u);
  EXPECT_EQ(info.plan.wave_cells[0], static_cast<uint64_t>(kRows));
  EXPECT_EQ(info.plan.max_wave_cells(), static_cast<uint64_t>(kRows));

  // Now DO the edit the plan described. Wave-for-wave agreement.
  auto result = rig.engine.SetNumber(Cell{1, 1}, 3.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->waves, info.plan.waves());
  EXPECT_EQ(result->max_wave_cells, info.plan.max_wave_cells());
  EXPECT_EQ(result->dirty_cells, info.dirty_cells);
  EXPECT_EQ(result->dirty.size(), info.dirty.size());
  EXPECT_EQ(result->recalculated, info.plan.dirty_formulas);
}

TEST_P(ExplainTest, ChainPlansOneWavePerLinkAndExecutionAgrees) {
  ThreadPool pool(3);
  RecalcScheduler scheduler(&pool, EagerOptions());
  Rig rig(GetParam(), &scheduler);

  constexpr int kRows = 150;
  ASSERT_TRUE(rig.engine.SetNumber(Cell{1, 1}, 1.0).ok());
  EditBatch setup;
  setup.push_back(Edit::SetFormula(Cell{2, 1}, "A1+1"));
  for (int r = 2; r <= kRows; ++r) {
    setup.push_back(
        Edit::SetFormula(Cell{2, r}, "B" + std::to_string(r - 1) + "+1"));
  }
  ASSERT_TRUE(rig.engine.ApplyBatch(setup).ok());

  RecalcEngine::ExplainInfo info = rig.engine.Explain(Range(1, 1, 1, 1));
  EXPECT_EQ(info.plan.granularity, RecalcPlan::Granularity::kCellGranular);
  // A pure chain: one single-cell wave per link.
  ASSERT_EQ(info.plan.waves(), static_cast<uint64_t>(kRows));
  for (uint64_t cells : info.plan.wave_cells) EXPECT_EQ(cells, 1u);
  EXPECT_EQ(info.plan.max_wave_cells(), 1u);
  EXPECT_EQ(info.plan.cycle_cells, 0u);

  auto result = rig.engine.SetNumber(Cell{1, 1}, 5.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->waves, info.plan.waves());
  EXPECT_EQ(result->max_wave_cells, info.plan.max_wave_cells());
  EXPECT_EQ(result->recalculated, info.plan.dirty_formulas);
  EXPECT_EQ(rig.engine.GetValue(Cell{2, kRows}), Value::Number(5.0 + kRows));
}

TEST_P(ExplainTest, CycleMembersNeverScheduleIntoWaves) {
  ThreadPool pool(3);
  RecalcScheduler scheduler(&pool, EagerOptions());
  Rig rig(GetParam(), &scheduler);

  // A1 <-> B1 cycle seeded off D1; no downstream, so the dirty set is
  // exactly the two cycle members — Kahn never readies either.
  ASSERT_TRUE(rig.engine.SetNumber(Cell{4, 1}, 1.0).ok());
  EditBatch setup;
  setup.push_back(Edit::SetFormula(Cell{1, 1}, "COUNT(B1)+D1*0"));
  setup.push_back(Edit::SetFormula(Cell{2, 1}, "COUNT(A1)+D1*0"));
  ASSERT_TRUE(rig.engine.ApplyBatch(setup).ok());

  RecalcEngine::ExplainInfo info = rig.engine.Explain(Range(4, 1, 4, 1));
  EXPECT_EQ(info.plan.granularity, RecalcPlan::Granularity::kCellGranular);
  EXPECT_EQ(info.plan.cycle_cells, 2u);
  EXPECT_EQ(info.plan.waves(), 0u);  // everything is a leftover
  EXPECT_EQ(info.plan.dirty_formulas, 2u);

  // Execution agrees: no waves dispatched, both cells evaluated in the
  // serial leftover pass with the serial #CYCLE!-swallowing outcome.
  auto result = rig.engine.SetNumber(Cell{4, 1}, 2.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->waves, 0u);
  EXPECT_EQ(result->recalculated, 2u);
}

TEST_P(ExplainTest, CycleDownstreamCountsTowardCycleCells) {
  ThreadPool pool(3);
  RecalcScheduler scheduler(&pool, EagerOptions());
  Rig rig(GetParam(), &scheduler);

  ASSERT_TRUE(rig.engine.SetNumber(Cell{4, 1}, 1.0).ok());
  EditBatch setup;
  setup.push_back(Edit::SetFormula(Cell{1, 1}, "COUNT(B1)+D1*0"));  // A1
  setup.push_back(Edit::SetFormula(Cell{2, 1}, "COUNT(A1)+D1*0"));  // B1
  setup.push_back(Edit::SetFormula(Cell{3, 1}, "A1+B1"));  // downstream
  setup.push_back(Edit::SetFormula(Cell{3, 2}, "D1*10"));  // acyclic bystander
  ASSERT_TRUE(rig.engine.ApplyBatch(setup).ok());

  RecalcEngine::ExplainInfo info = rig.engine.Explain(Range(4, 1, 4, 1));
  // The two members plus the dependent that can never become ready.
  EXPECT_EQ(info.plan.cycle_cells, 3u);
  // The bystander still schedules as a normal one-cell wave.
  ASSERT_EQ(info.plan.waves(), 1u);
  EXPECT_EQ(info.plan.wave_cells[0], 1u);

  auto result = rig.engine.SetNumber(Cell{4, 1}, 2.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->waves, info.plan.waves());
  EXPECT_EQ(result->recalculated, 4u);
  EXPECT_EQ(rig.engine.GetValue(Cell{3, 2}), Value::Number(20.0));
}

TEST_P(ExplainTest, TinyDirtySetsPlanSerialInlineWithNamedThreshold) {
  ThreadPool pool(3);
  SchedulerOptions options;
  options.threads = 3;
  options.min_parallel_cells = 1000;
  RecalcScheduler scheduler(&pool, options);
  Rig rig(GetParam(), &scheduler);

  ASSERT_TRUE(rig.engine.SetNumber(Cell{1, 1}, 2.0).ok());
  ASSERT_TRUE(rig.engine.SetFormula(Cell{2, 1}, "A1*3").ok());
  ASSERT_TRUE(rig.engine.SetFormula(Cell{2, 2}, "B1+1").ok());

  RecalcEngine::ExplainInfo info = rig.engine.Explain(Range(1, 1, 1, 1));
  EXPECT_EQ(info.plan.granularity, RecalcPlan::Granularity::kSerialInline);
  // The decision token names the threshold that short-circuited.
  EXPECT_NE(info.plan.decision.find("min_parallel_cells"), std::string::npos)
      << info.plan.decision;
  EXPECT_EQ(info.plan.waves(), 0u);

  auto result = rig.engine.SetNumber(Cell{1, 1}, 4.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->waves, 0u);
}

TEST_P(ExplainTest, EdgeBudgetOverflowPlansSerialInline) {
  ThreadPool pool(3);
  SchedulerOptions options = EagerOptions();
  options.max_edges = 4;  // per-cell expansion aborts immediately
  RecalcScheduler scheduler(&pool, options);
  Rig rig(GetParam(), &scheduler);

  constexpr int kRows = 40;
  EditBatch setup;
  for (int r = 1; r <= kRows; ++r) {
    setup.push_back(Edit::SetNumber(Cell{1, r}, r * 1.0));
    setup.push_back(
        Edit::SetFormula(Cell{2, r}, "SUM($A$1:A" + std::to_string(r) + ")"));
    setup.push_back(
        Edit::SetFormula(Cell{3, r}, "B" + std::to_string(r) + "*2"));
  }
  ASSERT_TRUE(rig.engine.ApplyBatch(setup).ok());

  RecalcEngine::ExplainInfo info = rig.engine.Explain(Range(1, 1, 1, 1));
  EXPECT_EQ(info.plan.granularity, RecalcPlan::Granularity::kSerialInline);
  EXPECT_NE(info.plan.decision.find(")>max_edges(4)"), std::string::npos)
      << info.plan.decision;
  EXPECT_EQ(info.plan.decision.rfind("edges(", 0), 0u) << info.plan.decision;
  EXPECT_EQ(info.plan.waves(), 0u);
  EXPECT_EQ(info.plan.dirty_formulas, 2u * kRows);

  auto result = rig.engine.SetNumber(Cell{1, 1}, 100.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->waves, 0u);
  EXPECT_EQ(result->dirty_formulas, info.plan.dirty_formulas);
  EXPECT_EQ(result->recalculated, info.plan.dirty_formulas);
}

// B1 absorbs A1, then B3, B5, ... chain off it: every dirty formula is
// its own disjoint range.
constexpr int kFragmentedLinks = 6;

void BuildFragmentedChain(RecalcEngine* engine) {
  EditBatch setup;
  setup.push_back(Edit::SetNumber(Cell{1, 1}, 10.0));
  setup.push_back(Edit::SetFormula(Cell{2, 1}, "IF(A1>100,1,0)"));
  for (int i = 1; i < kFragmentedLinks; ++i) {
    setup.push_back(Edit::SetFormula(
        Cell{2, 2 * i + 1}, "B" + std::to_string(2 * i - 1) + "+1"));
  }
  ASSERT_TRUE(engine->ApplyBatch(setup).ok());
  for (int i = 0; i < kFragmentedLinks; ++i) {
    engine->GetValue(Cell{2, 2 * i + 1});
  }
}

TEST_P(ExplainTest, FragmentedDirtySetsSkipPlanningButStillCut) {
  constexpr int kLinks = kFragmentedLinks;
  ThreadPool pool(3);
  SchedulerOptions options = EagerOptions();
  options.max_ranges = 2;  // Fewer than the chain's disjoint ranges.
  RecalcScheduler scheduler(&pool, options);
  Rig rig(GetParam(), &scheduler);
  BuildFragmentedChain(&rig.engine);

  // Without cutoff the pass skips planning.
  RecalcEngine::ExplainInfo info = rig.engine.Explain(Range(1, 1, 1, 1));
  ASSERT_GT(info.dirty.size(), options.max_ranges);
  EXPECT_EQ(info.plan.granularity, RecalcPlan::Granularity::kSerialInline);
  EXPECT_NE(info.plan.decision.find("max_ranges"), std::string::npos)
      << info.plan.decision;
  auto result = rig.engine.SetNumber(Cell{1, 1}, 20.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->waves, 0u);
  EXPECT_EQ(result->recalculated, static_cast<uint64_t>(kLinks));

  // With cutoff, cell-granular waves don't depend on the range count.
  rig.engine.set_cutoff(true);
  info = rig.engine.Explain(Range(1, 1, 1, 1));
  EXPECT_EQ(info.plan.granularity, RecalcPlan::Granularity::kCellGranular);
  EXPECT_EQ(info.plan.waves(), static_cast<uint64_t>(kLinks));
  result = rig.engine.SetNumber(Cell{1, 1}, 30.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->waves, info.plan.waves());
  EXPECT_EQ(result->recalculated, 1u);
  EXPECT_EQ(result->cells_skipped_cutoff, static_cast<uint64_t>(kLinks - 1));

  // Past the edge budget the pass runs serial-inline, uncut.
  options.max_edges = 1;
  RecalcScheduler tight(&pool, options);
  Rig tight_rig(GetParam(), &tight);
  BuildFragmentedChain(&tight_rig.engine);
  tight_rig.engine.set_cutoff(true);
  info = tight_rig.engine.Explain(Range(1, 1, 1, 1));
  EXPECT_EQ(info.plan.granularity, RecalcPlan::Granularity::kSerialInline);
  EXPECT_NE(info.plan.decision.find(">max_edges(1)"), std::string::npos)
      << info.plan.decision;
  result = tight_rig.engine.SetNumber(Cell{1, 1}, 20.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->waves, 0u);
  EXPECT_EQ(result->cells_skipped_cutoff, 0u);
  EXPECT_EQ(result->dirty_formulas, info.plan.dirty_formulas);
  EXPECT_EQ(tight_rig.engine.GetValue(Cell{2, 2 * kLinks - 1}),
            rig.engine.GetValue(Cell{2, 2 * kLinks - 1}));
}

TEST_P(ExplainTest, SerialInlinePlanCountsEveryDirtyFormula) {
  // A dirty area past max_cells: the plan's formula count must still
  // cover every range the serial pass evaluates.
  ThreadPool pool(3);
  SchedulerOptions options = EagerOptions();
  options.max_ranges = 2;
  options.max_cells = 4;
  RecalcScheduler scheduler(&pool, options);
  Rig rig(GetParam(), &scheduler);
  BuildFragmentedChain(&rig.engine);

  RecalcEngine::ExplainInfo info = rig.engine.Explain(Range(1, 1, 1, 1));
  EXPECT_EQ(info.plan.granularity, RecalcPlan::Granularity::kSerialInline);
  EXPECT_EQ(info.plan.decision, "dirty_ranges(6)>max_ranges(2)");
  EXPECT_EQ(info.plan.dirty_formulas,
            static_cast<uint64_t>(kFragmentedLinks));

  auto result = rig.engine.SetNumber(Cell{1, 1}, 20.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->waves, 0u);
  EXPECT_EQ(result->dirty_formulas, info.plan.dirty_formulas);
  EXPECT_EQ(result->recalculated, info.plan.dirty_formulas);
}

TEST_P(ExplainTest, CutoffPassOverMaxCellsPlansSerialInlineUncut) {
  ThreadPool pool(3);
  SchedulerOptions options = EagerOptions();
  options.max_cells = 4;  // The chain dirties 6 cells.
  RecalcScheduler scheduler(&pool, options);
  Rig rig(GetParam(), &scheduler);
  BuildFragmentedChain(&rig.engine);
  rig.engine.set_cutoff(true);

  // The absorber swallows the edit, so a cut pass would prune 5 links;
  // over max_cells the pass runs without cutoff instead.
  RecalcEngine::ExplainInfo info = rig.engine.Explain(Range(1, 1, 1, 1));
  EXPECT_TRUE(info.cutoff);
  EXPECT_FALSE(info.plan.cutoff);
  EXPECT_EQ(info.plan.granularity, RecalcPlan::Granularity::kSerialInline);
  EXPECT_EQ(info.plan.decision, "dirty_area(6)>max_cells(4)");
  EXPECT_EQ(info.plan.waves(), 0u);
  EXPECT_EQ(info.plan.dirty_formulas,
            static_cast<uint64_t>(kFragmentedLinks));

  auto result = rig.engine.SetNumber(Cell{1, 1}, 20.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->waves, 0u);
  EXPECT_EQ(result->cells_skipped_cutoff, 0u);
  EXPECT_EQ(result->recalculated, static_cast<uint64_t>(kFragmentedLinks));
  EXPECT_EQ(result->dirty_formulas, info.plan.dirty_formulas);
}

TEST_P(ExplainTest, CutoffPlansPerWaveEligibilityAndExecutionPrunes) {
  ThreadPool pool(3);
  RecalcScheduler scheduler(&pool, EagerOptions());
  Rig rig(GetParam(), &scheduler);
  rig.engine.set_cutoff(true);

  // Absorbing chain: B1 collapses A1 to 0/1, B2..B6 each add one. An
  // edit that doesn't flip the absorber changes nothing past wave 1.
  constexpr int kLinks = 6;
  ASSERT_TRUE(rig.engine.SetNumber(Cell{1, 1}, 10.0).ok());
  EditBatch setup;
  setup.push_back(Edit::SetFormula(Cell{2, 1}, "IF(A1>100,1,0)"));
  for (int r = 2; r <= kLinks; ++r) {
    setup.push_back(
        Edit::SetFormula(Cell{2, r}, "B" + std::to_string(r - 1) + "+1"));
  }
  ASSERT_TRUE(rig.engine.ApplyBatch(setup).ok());
  // Warm the chain root: a freshly set formula's own cell is evaluated
  // lazily (only its dependents recalc), and a cell with no cached
  // prior can never be ruled unchanged.
  ASSERT_EQ(rig.engine.GetValue(Cell{2, 1}), Value::Number(0.0));
  ASSERT_EQ(rig.engine.GetValue(Cell{2, kLinks}), Value::Number(kLinks - 1.0));

  RecalcEngine::ExplainInfo info = rig.engine.Explain(Range(1, 1, 1, 1));
  EXPECT_TRUE(info.cutoff);
  EXPECT_TRUE(info.plan.cutoff);
  EXPECT_EQ(info.plan.granularity, RecalcPlan::Granularity::kCellGranular);
  ASSERT_EQ(info.plan.waves(), static_cast<uint64_t>(kLinks));
  // One eligibility figure per wave. B1 takes the seed directly, so
  // wave 1 can never prune; every later link is a pure chain cell.
  ASSERT_EQ(info.plan.wave_cutoff_eligible.size(), info.plan.wave_cells.size());
  EXPECT_EQ(info.plan.wave_cutoff_eligible[0], 0u);
  uint64_t eligible = 0;
  for (size_t i = 1; i < info.plan.wave_cutoff_eligible.size(); ++i) {
    EXPECT_EQ(info.plan.wave_cutoff_eligible[i], info.plan.wave_cells[i]);
    eligible += info.plan.wave_cutoff_eligible[i];
  }

  // Absorbed edit: B1 re-evaluates to the same 0, the rest prune. The
  // planner's eligibility is exactly the realized skip count here.
  auto result = rig.engine.SetNumber(Cell{1, 1}, 20.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->waves, info.plan.waves());
  EXPECT_EQ(result->recalculated, 1u);
  EXPECT_EQ(result->cells_skipped_cutoff, eligible);
  EXPECT_EQ(result->recalculated + result->cells_skipped_cutoff,
            result->dirty_formulas);
  EXPECT_EQ(rig.engine.GetValue(Cell{2, kLinks}),
            Value::Number(kLinks - 1.0));

  // Flipping the absorber re-evaluates the whole chain: eligibility was
  // only ever an upper bound.
  result = rig.engine.SetNumber(Cell{1, 1}, 500.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->recalculated, static_cast<uint64_t>(kLinks));
  EXPECT_EQ(result->cells_skipped_cutoff, 0u);
  EXPECT_EQ(rig.engine.GetValue(Cell{2, kLinks}), Value::Number(kLinks * 1.0));

  // Cutoff off again: the plan drops the flag and the eligibility rows.
  rig.engine.set_cutoff(false);
  info = rig.engine.Explain(Range(1, 1, 1, 1));
  EXPECT_FALSE(info.cutoff);
  EXPECT_FALSE(info.plan.cutoff);
  EXPECT_TRUE(info.plan.wave_cutoff_eligible.empty());
}

TEST_P(ExplainTest, ExplainIsSideEffectFreeAndRepeatable) {
  ThreadPool pool(3);
  RecalcScheduler scheduler(&pool, EagerOptions());
  Rig rig(GetParam(), &scheduler);

  ASSERT_TRUE(rig.engine.SetNumber(Cell{1, 1}, 10.0).ok());
  for (int r = 1; r <= 20; ++r) {
    ASSERT_TRUE(
        rig.engine.SetFormula(Cell{2, r}, "$A$1+" + std::to_string(r)).ok());
  }
  Value before = rig.engine.GetValue(Cell{2, 5});
  uint64_t version_before = rig.engine.latest_version() != nullptr
                                ? rig.engine.latest_version()->id()
                                : 0;

  RecalcEngine::ExplainInfo first = rig.engine.Explain(Range(1, 1, 1, 1));
  RecalcEngine::ExplainInfo second = rig.engine.Explain(Range(1, 1, 1, 1));

  // Dry run: same answer twice, no value change, no version published.
  EXPECT_EQ(first.dirty_cells, second.dirty_cells);
  EXPECT_EQ(first.plan.wave_cells, second.plan.wave_cells);
  EXPECT_EQ(first.plan.decision, second.plan.decision);
  EXPECT_EQ(rig.engine.GetValue(Cell{2, 5}), before);
  uint64_t version_after = rig.engine.latest_version() != nullptr
                               ? rig.engine.latest_version()->id()
                               : 0;
  EXPECT_EQ(version_after, version_before);
}

TEST_P(ExplainTest, NoPoolPlansSerialInlineAtWidthOne) {
  // No scheduler plugged: the engine's own pool-less one plans the pass.
  Rig bare(GetParam(), nullptr);
  ASSERT_TRUE(bare.engine.SetNumber(Cell{1, 1}, 1.0).ok());
  ASSERT_TRUE(bare.engine.SetFormula(Cell{2, 1}, "A1*2").ok());
  RecalcEngine::ExplainInfo info = bare.engine.Explain(Range(1, 1, 1, 1));
  EXPECT_EQ(info.plan.width, 1);
  EXPECT_EQ(info.plan.granularity, RecalcPlan::Granularity::kSerialInline);
  EXPECT_EQ(info.plan.decision, "width(1)<=1 no_pool(1)");
  EXPECT_EQ(info.plan.dirty_formulas, 1u);

  auto result = bare.engine.SetNumber(Cell{1, 1}, 2.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->waves, 0u);
  EXPECT_EQ(result->recalculated, 1u);
}

// The dirty-subgraph shapes of the width matrix below. Each has more
// than SchedulerOptions' default min_parallel_cells formulas, so the
// 2-thread rows build waves without cutoff too.
enum class Shape { kChain, kFanOut, kMixed };

/// Sets up `shape` off A1 = 10 and warms every formula (a cell without a
/// cached prior can never be ruled unchanged by cutoff).
void BuildShape(Shape shape, RecalcEngine* engine) {
  constexpr int kRows = 80;
  EditBatch setup;
  setup.push_back(Edit::SetNumber(Cell{1, 1}, 10.0));
  for (int r = 1; r <= kRows; ++r) {
    const std::string row = std::to_string(r);
    const std::string prev = std::to_string(r - 1);
    switch (shape) {
      case Shape::kChain:
        setup.push_back(
            Edit::SetFormula(Cell{2, r}, r == 1 ? "A1+1" : "B" + prev + "+1"));
        break;
      case Shape::kFanOut:
        setup.push_back(Edit::SetFormula(Cell{2, r}, "$A$1*" + row));
        break;
      case Shape::kMixed:
        // An absorber heading a short chain, a fan-out column, and a
        // column joining both: waves of mixed width, some prunable.
        if (r == 1) {
          setup.push_back(Edit::SetFormula(Cell{2, 1}, "IF(A1>1000,1,0)"));
        } else if (r <= 10) {
          setup.push_back(Edit::SetFormula(Cell{2, r}, "B" + prev + "+1"));
        }
        setup.push_back(Edit::SetFormula(Cell{3, r}, "$A$1+" + row));
        setup.push_back(
            Edit::SetFormula(Cell{4, r}, "C" + row + "+$B$" +
                                             std::to_string(r % 10 + 1)));
        break;
    }
  }
  ASSERT_TRUE(engine->ApplyBatch(setup).ok());
  for (const Cell& cell : EnumerateCells(Range(2, 1, 4, kRows))) {
    engine->GetValue(cell);
  }
}

TEST_P(ExplainTest, NoPoolAndOneThreadPoolAreOnePath) {
  struct Row {
    uint64_t recalculated, skipped, dirty_formulas, waves;
  };
  const std::pair<Shape, const char*> shapes[] = {
      {Shape::kChain, "chain"}, {Shape::kFanOut, "fan-out"},
      {Shape::kMixed, "mixed"}};
  for (const auto& [shape, shape_name] : shapes) {
    for (bool cutoff : {false, true}) {
      std::vector<Row> rows;
      for (int threads : {0, 1, 2}) {
        SCOPED_TRACE(std::string(shape_name) + " cutoff=" +
                     (cutoff ? "on" : "off") +
                     " threads=" + std::to_string(threads));
        std::unique_ptr<ThreadPool> pool;
        std::unique_ptr<RecalcScheduler> scheduler;
        if (threads > 0) {
          pool = std::make_unique<ThreadPool>(threads);
          SchedulerOptions options;
          options.threads = threads;
          scheduler = std::make_unique<RecalcScheduler>(pool.get(), options);
        }
        Rig rig(GetParam(), scheduler.get());
        BuildShape(shape, &rig.engine);
        rig.engine.set_cutoff(cutoff);

        RecalcEngine::ExplainInfo info = rig.engine.Explain(Range(1, 1, 1, 1));
        EXPECT_EQ(info.plan.width, std::max(threads, 1));
        // Only a cutoff-free pass at width 1 skips planning.
        EXPECT_EQ(info.plan.granularity,
                  !cutoff && threads < 2
                      ? RecalcPlan::Granularity::kSerialInline
                      : RecalcPlan::Granularity::kCellGranular)
            << info.plan.decision;

        // An edit the absorber swallows, so cutoff has something to prune.
        auto result = rig.engine.SetNumber(Cell{1, 1}, 20.0);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result->waves, info.plan.waves());
        EXPECT_EQ(result->max_wave_cells, info.plan.max_wave_cells());
        EXPECT_EQ(result->dirty_formulas, info.plan.dirty_formulas);
        EXPECT_EQ(result->recalculated + result->cells_skipped_cutoff,
                  result->dirty_formulas);
        if (!cutoff || shape != Shape::kMixed) {
          EXPECT_EQ(result->cells_skipped_cutoff, 0u);
        } else {
          EXPECT_GT(result->cells_skipped_cutoff, 0u);
        }
        rows.push_back({result->recalculated, result->cells_skipped_cutoff,
                        result->dirty_formulas, result->waves});
      }
      // No pool and a 1-thread pool run the same width-1 pass.
      SCOPED_TRACE(std::string(shape_name) +
                   " cutoff=" + (cutoff ? "on" : "off"));
      ASSERT_EQ(rows.size(), 3u);
      EXPECT_EQ(rows[0].recalculated, rows[1].recalculated);
      EXPECT_EQ(rows[0].skipped, rows[1].skipped);
      EXPECT_EQ(rows[0].dirty_formulas, rows[1].dirty_formulas);
      EXPECT_EQ(rows[0].waves, rows[1].waves);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, ExplainTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Taco" : "NoComp";
                         });

}  // namespace
}  // namespace taco

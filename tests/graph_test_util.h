// Shared test helpers: brute-force cell-level oracles for dependent /
// precedent queries, random dependency workload generators, and the
// differential equivalence harness that runs any DependencyGraph
// implementation against the oracle on identical randomized
// insert/query/remove workloads. Used to differentially test NoComp,
// TACO, and the baseline graphs.

#ifndef TACO_TESTS_GRAPH_TEST_UTIL_H_
#define TACO_TESTS_GRAPH_TEST_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cell.h"
#include "common/range.h"
#include "eval/recalc.h"
#include "graph/dependency.h"
#include "graph/dependency_graph.h"
#include "taco/taco_graph.h"

namespace taco::test {

/// Four formula shapes that each nest exactly `depth` levels (the
/// parser's measure, formula/parser.h) in their own way: a binary chain,
/// unary signs, the right-recursive '^', and nested calls.
struct DeepFormulaShape {
  const char* name;
  std::string (*build)(int depth);
};
inline const DeepFormulaShape kDeepFormulaShapes[] = {
    {"1+1+...",
     [](int depth) {
       std::string text = "1";
       for (int i = 0; i < depth; ++i) text += "+1";
       return text;
     }},
    {"---1", [](int depth) { return std::string(depth, '-') + "1"; }},
    {"1^1^...",
     [](int depth) {
       std::string text = "1";
       for (int i = 0; i < depth; ++i) text += "^1";
       return text;
     }},
    {"ABS(ABS(...))",
     [](int depth) {
       std::string text;
       for (int i = 0; i < depth; ++i) text += "ABS(";
       return text + "1" + std::string(depth, ')');
     }},
};

/// TACO_FUZZ_TRIALS scaling shared by the randomized suites: tier-1
/// runs use the bounded deterministic default; the knob is a multiplier
/// denominator of 100 (TACO_FUZZ_TRIALS=1000 runs 10x the default
/// iterations) for longer local fuzzing/soak sessions.
inline int FuzzTrials(int tier1_default) {
  if (const char* env = std::getenv("TACO_FUZZ_TRIALS")) {
    long scale = std::strtol(env, nullptr, 10);
    if (scale > 0) {
      // Clamp before multiplying so absurd knob values saturate instead
      // of overflowing (which would wrap negative and run zero trials).
      int64_t capped = std::min<int64_t>(
          scale,
          int64_t{std::numeric_limits<int>::max()} * 100 / tier1_default);
      int64_t n = static_cast<int64_t>(tier1_default) * capped / 100;
      return static_cast<int>(std::max<int64_t>(
          std::min<int64_t>(n, std::numeric_limits<int>::max()), 1));
    }
  }
  return tier1_default;
}

/// Raw-dependency accessors for DifferentialConfig::raw_deps (below).
/// These encode each representation's contract for "dependencies
/// represented", shared by every differential suite.
inline std::optional<uint64_t> TacoRawDeps(const DependencyGraph& g) {
  return static_cast<const TacoGraph&>(g).NumRawDependencies();
}

/// Uncompressed graphs store one edge per dependency, so NumEdges *is*
/// the raw-dependency count.
inline std::optional<uint64_t> EdgesAreRawDeps(const DependencyGraph& g) {
  return g.NumEdges();
}

using CellSet = std::set<std::pair<int32_t, int32_t>>;

inline CellSet ToCellSet(std::span<const Range> ranges) {
  CellSet out;
  for (const Range& r : ranges) {
    for (const Cell& c : EnumerateCells(r)) out.insert({c.col, c.row});
  }
  return out;
}

/// Brute-force transitive dependents of `input`: formula cells whose
/// reference chain touches `input`. Cell-level BFS; intended for small
/// workloads only.
inline CellSet BruteForceDependents(std::span<const Dependency> deps,
                                    const Range& input) {
  CellSet result;
  std::deque<Range> frontier{input};
  while (!frontier.empty()) {
    Range current = frontier.front();
    frontier.pop_front();
    for (const Dependency& dep : deps) {
      if (!dep.prec.Overlaps(current)) continue;
      auto key = std::make_pair(dep.dep.col, dep.dep.row);
      if (result.insert(key).second) {
        frontier.push_back(Range(dep.dep));
      }
    }
  }
  return result;
}

/// Brute-force transitive precedents of `input`: every cell of every range
/// reachable backwards through formula references from `input`.
inline CellSet BruteForcePrecedents(std::span<const Dependency> deps,
                                    const Range& input) {
  CellSet result;
  std::deque<Range> frontier{input};
  // Track visited precedent ranges to terminate on diamond shapes.
  std::set<std::pair<std::pair<int32_t, int32_t>, std::pair<int32_t, int32_t>>>
      visited_ranges;
  while (!frontier.empty()) {
    Range current = frontier.front();
    frontier.pop_front();
    for (const Dependency& dep : deps) {
      if (!current.Contains(dep.dep)) continue;
      auto key = std::make_pair(
          std::make_pair(dep.prec.head.col, dep.prec.head.row),
          std::make_pair(dep.prec.tail.col, dep.prec.tail.row));
      if (!visited_ranges.insert(key).second) continue;
      for (const Cell& c : EnumerateCells(dep.prec)) {
        result.insert({c.col, c.row});
      }
      frontier.push_back(dep.prec);
    }
  }
  return result;
}

/// Random acyclic dependency workload: formula cells reference ranges
/// strictly above them (smaller rows), guaranteeing a DAG. Mimics the
/// shape of real sheets (columns of formulas over data regions).
/// Implemented on WorkloadGenerator (below) so there is exactly one
/// generator to evolve.
std::vector<Dependency> RandomAcyclicDependencies(uint32_t seed, int n_deps,
                                                  int max_col = 8,
                                                  int max_row = 30);

/// True iff every cell of `subset` also appears in `superset`.
inline bool IsCellSubset(const CellSet& subset, const CellSet& superset) {
  return std::includes(superset.begin(), superset.end(), subset.begin(),
                       subset.end());
}

/// Incremental random workload source for the differential harness: emits
/// fresh acyclic dependencies (never a duplicate (prec, dep) pair, so the
/// deduplicated-stream contract of AddDependency holds across rounds),
/// plus query ranges and removal bands over the same sheet region.
class WorkloadGenerator {
 public:
  WorkloadGenerator(uint32_t seed, int max_col = 8, int max_row = 30)
      : rng_(seed), max_col_(max_col), max_row_(max_row) {}

  /// Next fresh dependency: a formula cell referencing a small range
  /// strictly above it (rows < dep row), guaranteeing the stream stays a
  /// DAG no matter how inserts interleave with removals.
  Dependency Next() {
    std::uniform_int_distribution<int32_t> col(1, max_col_);
    std::uniform_int_distribution<int32_t> dep_row(2, max_row_);
    std::uniform_int_distribution<int32_t> width(0, 2);
    // Bounded retries: a workload that asks for more unique (prec, dep)
    // pairs than the region admits must fail loudly, not hang.
    for (int attempt = 0; attempt < 1000000; ++attempt) {
      Cell dep_cell{col(rng_), dep_row(rng_)};
      std::uniform_int_distribution<int32_t> prec_row(1, dep_cell.row - 1);
      int32_t r1 = prec_row(rng_);
      int32_t r2 = std::min<int32_t>(r1 + width(rng_), dep_cell.row - 1);
      int32_t c1 = col(rng_);
      int32_t c2 = std::min<int32_t>(c1 + width(rng_), max_col_);
      auto key =
          std::make_pair(std::make_pair(c1 * 100000 + r1, c2 * 100000 + r2),
                         std::make_pair(dep_cell.col, dep_cell.row));
      if (!used_.insert(key).second) continue;
      Dependency dep;
      dep.prec = Range(c1, r1, c2, r2);
      dep.dep = dep_cell;
      return dep;
    }
    ADD_FAILURE() << "WorkloadGenerator exhausted the unique-dependency "
                     "space of the " << max_col_ << "x" << max_row_
                  << " region; shrink the workload or grow the region";
    return Dependency{};
  }

  /// Query probe: mostly single cells, sometimes a short vertical span
  /// (both shapes appear in the paper's workloads).
  Range NextQuery() {
    std::uniform_int_distribution<int32_t> col(1, max_col_);
    std::uniform_int_distribution<int32_t> row(1, max_row_);
    Cell c{col(rng_), row(rng_)};
    if (std::uniform_int_distribution<int>(0, 2)(rng_) == 0) {
      return Range(c.col, c.row, c.col, std::min<int32_t>(c.row + 3, max_row_));
    }
    return Range(c);
  }

  /// Removal band: a horizontal slab of formula cells to clear.
  Range NextRemovalBand() {
    std::uniform_int_distribution<int32_t> row(1, max_row_);
    std::uniform_int_distribution<int32_t> height(0, 3);
    int32_t r1 = row(rng_);
    int32_t r2 = std::min<int32_t>(r1 + height(rng_), max_row_);
    return Range(1, r1, max_col_, r2);
  }

  // --- Protocol-script mode -----------------------------------------
  //
  // The same randomized workload rendered as text-protocol traffic: each
  // step carries its wire command AND the equivalent Edits, so a soak
  // test can replay one script through a serial-oracle WorkbookSession
  // (applying the Edits directly) and through a transport (sending the
  // commands) and assert cell-for-cell equality. Formulas reference only
  // rows strictly above their own, so scripts stay acyclic and
  // evaluation results are order-independent across transports.

  /// One random edit: the Edit for the oracle plus its sessionless wire
  /// form ("SET B3 42" — the shape BATCH body lines use). The
  /// session-addressed form inserts the session after the first word.
  struct WireEdit {
    Edit edit;
    std::string op;    ///< "SET" / "FORMULA" / "CLEAR".
    std::string args;  ///< Everything after the op (and session) words.

    std::string BatchLine() const { return op + " " + args; }
    std::string Command(const std::string& session) const {
      return op + " " + session + " " + args;
    }
  };

  WireEdit NextProtocolEdit() {
    std::uniform_int_distribution<int> pick(0, 9);
    int kind = pick(rng_);
    if (kind < 5) {  // Literal SET; integer values survive the text
                     // round trip bit-exactly.
      std::uniform_int_distribution<int32_t> col(1, max_col_);
      std::uniform_int_distribution<int32_t> row(1, max_row_);
      std::uniform_int_distribution<int> value(-999, 999);
      Cell cell{col(rng_), row(rng_)};
      int v = value(rng_);
      return {Edit::SetNumber(cell, v), "SET",
              cell.ToString() + " " + std::to_string(v)};
    }
    if (kind < 8) {  // Formula over a fresh strictly-above dependency.
      Dependency dep = Next();
      std::string src =
          "SUM(" + dep.prec.ToString() + ")+" + std::to_string(dep.dep.row);
      return {Edit::SetFormula(dep.dep, src), "FORMULA",
              dep.dep.ToString() + " " + src};
    }
    Range band = NextRemovalBand();
    return {Edit::ClearRange(band), "CLEAR", band.ToString()};
  }

  /// One step of a protocol script for `session`: a GET probe (no
  /// edits), a single session-addressed edit, or a BATCH of several.
  struct ProtocolStep {
    std::string command;      ///< Complete wire command (multi-line BATCH).
    std::vector<Edit> edits;  ///< Oracle equivalent; empty for GET.
  };

  ProtocolStep NextProtocolStep(const std::string& session) {
    std::uniform_int_distribution<int> pick(0, 9);
    int kind = pick(rng_);
    if (kind < 2) {
      std::uniform_int_distribution<int32_t> col(1, max_col_);
      std::uniform_int_distribution<int32_t> row(1, max_row_);
      Cell cell{col(rng_), row(rng_)};
      return {"GET " + session + " " + cell.ToString(), {}};
    }
    if (kind < 8) {
      WireEdit edit = NextProtocolEdit();
      return {edit.Command(session), {edit.edit}};
    }
    std::uniform_int_distribution<int> size(2, 5);
    int n = size(rng_);
    ProtocolStep step;
    step.command = "BATCH " + session + " " + std::to_string(n);
    for (int i = 0; i < n; ++i) {
      WireEdit edit = NextProtocolEdit();
      step.command += "\n" + edit.BatchLine();
      step.edits.push_back(std::move(edit.edit));
    }
    return step;
  }

 private:
  std::mt19937 rng_;
  int max_col_;
  int max_row_;
  std::set<std::pair<std::pair<int32_t, int32_t>, std::pair<int32_t, int32_t>>>
      used_;
};

inline std::vector<Dependency> RandomAcyclicDependencies(uint32_t seed,
                                                         int n_deps,
                                                         int max_col,
                                                         int max_row) {
  WorkloadGenerator gen(seed, max_col, max_row);
  std::vector<Dependency> deps;
  deps.reserve(n_deps);
  for (int i = 0; i < n_deps; ++i) deps.push_back(gen.Next());
  return deps;
}

/// Differential equivalence harness (the losslessness contract of
/// Sec. II-B as an executable check). Drives one DependencyGraph and the
/// brute-force oracle through an identical randomized workload of
/// interleaved inserts, formula-cell removals, and dependent/precedent
/// queries, asserting agreement after every phase.
struct DifferentialConfig {
  int initial_inserts = 50;     ///< Dependencies inserted before round 1.
  int rounds = 4;               ///< Mutate+query rounds.
  int inserts_per_round = 12;   ///< Fresh dependencies added each round.
  int queries_per_round = 12;   ///< Probe queries checked each round.
  bool removals = true;         ///< Clear a random formula band per round.
  int max_col = 8;              ///< Sheet width of the workload region.
  int max_row = 30;             ///< Sheet height of the workload region.

  /// Exact equality for FindDependents. Antifreeze compresses dependent
  /// sets into bounding ranges and may over-approximate, so it is checked
  /// for superset-containment instead (false positives allowed, false
  /// negatives never).
  bool exact_dependents = true;

  /// Returns the number of raw dependencies `graph` currently represents,
  /// or nullopt when the representation does not expose one (CellGraph's
  /// decomposed edges). When set, the harness cross-checks it — and
  /// NumEdges, which can never exceed it for a lossless compressed
  /// representation — against the oracle's live-dependency count.
  std::function<std::optional<uint64_t>(const DependencyGraph&)> raw_deps;

  /// Expected NumEdges as a deterministic function of the live dependency
  /// list, for representations whose edge count is NOT the raw-dependency
  /// count — CellGraph stores one cell-to-cell edge per precedent cell
  /// (sum of prec areas). When set, the harness checks NumEdges against
  /// it after every phase.
  std::function<uint64_t(std::span<const Dependency>)> expected_edges;
};

/// Aggregate query-accuracy report of one differential run. Exact graphs
/// must come out with zero false positives; Antifreeze's documented
/// dependent over-approximation is quantified by `Precision()` — the
/// fraction of reported dependent cells the oracle confirms.
struct DifferentialReport {
  uint64_t dependent_queries = 0;
  uint64_t oracle_cells = 0;          ///< True dependent cells (oracle).
  uint64_t reported_cells = 0;        ///< Cells the graph reported.
  uint64_t false_positive_cells = 0;  ///< Reported but not true.

  double Precision() const {
    return reported_cells == 0
               ? 1.0
               : 1.0 - double(false_positive_cells) / double(reported_cells);
  }
};

inline void CheckQueriesAgainstOracle(DependencyGraph* graph,
                                      std::span<const Dependency> live,
                                      WorkloadGenerator* gen,
                                      const DifferentialConfig& config,
                                      int n_queries, const char* phase,
                                      DifferentialReport* report = nullptr) {
  for (int q = 0; q < n_queries; ++q) {
    Range input = gen->NextQuery();
    CellSet expected_deps = BruteForceDependents(live, input);
    CellSet actual_deps = ToCellSet(graph->FindDependents(input));
    if (report != nullptr) {
      ++report->dependent_queries;
      report->oracle_cells += expected_deps.size();
      report->reported_cells += actual_deps.size();
      for (const auto& cell : actual_deps) {
        if (!expected_deps.contains(cell)) ++report->false_positive_cells;
      }
    }
    if (config.exact_dependents) {
      EXPECT_EQ(actual_deps, expected_deps)
          << graph->Name() << " [" << phase << "] dependents of "
          << input.ToString();
    } else {
      EXPECT_TRUE(IsCellSubset(expected_deps, actual_deps))
          << graph->Name() << " [" << phase << "] lost dependents of "
          << input.ToString();
    }
    EXPECT_EQ(ToCellSet(graph->FindPrecedents(input)),
              BruteForcePrecedents(live, input))
        << graph->Name() << " [" << phase << "] precedents of "
        << input.ToString();
  }
}

inline void CheckEdgeAccounting(DependencyGraph* graph,
                                std::span<const Dependency> live,
                                const DifferentialConfig& config,
                                const char* phase) {
  if (!config.raw_deps) return;
  std::optional<uint64_t> raw = config.raw_deps(*graph);
  if (!raw.has_value()) return;
  EXPECT_EQ(*raw, live.size())
      << graph->Name() << " [" << phase << "] raw-dependency accounting";
  EXPECT_LE(graph->NumEdges(), *raw)
      << graph->Name() << " [" << phase
      << "] stores more edges than dependencies";
  if (live.empty()) {
    EXPECT_EQ(graph->NumEdges(), 0u)
        << graph->Name() << " [" << phase << "] edges left after full clear";
  }
}

/// Edge-count oracle for graphs whose NumEdges is a pure function of the
/// live dependencies (decomposed representations).
inline void CheckExpectedEdges(DependencyGraph* graph,
                               std::span<const Dependency> live,
                               const DifferentialConfig& config,
                               const char* phase) {
  if (!config.expected_edges) return;
  EXPECT_EQ(graph->NumEdges(), config.expected_edges(live))
      << graph->Name() << " [" << phase << "] decomposed-edge accounting";
}

/// CellGraph's representation contract: every dependency decomposes into
/// one cell-to-cell edge per precedent cell (Sec. VI-D), duplicates and
/// all, so the live edge count is the sum of precedent areas.
inline uint64_t DecomposedEdgeCount(std::span<const Dependency> live) {
  uint64_t total = 0;
  for (const Dependency& dep : live) total += dep.prec.Area();
  return total;
}

/// Drives the workload; when `report` is given, accumulates the
/// dependent-query accuracy aggregates into it (precision metric).
inline void RunDifferentialWorkload(DependencyGraph* graph, uint32_t seed,
                                    const DifferentialConfig& config = {},
                                    DifferentialReport* report = nullptr) {
  WorkloadGenerator gen(seed, config.max_col, config.max_row);
  std::vector<Dependency> live;

  auto insert = [&](int count) {
    for (int i = 0; i < count; ++i) {
      Dependency dep = gen.Next();
      ASSERT_TRUE(graph->AddDependency(dep).ok())
          << graph->Name() << " rejected " << dep.prec.ToString();
      live.push_back(dep);
    }
  };

  insert(config.initial_inserts);
  CheckEdgeAccounting(graph, live, config, "build");
  CheckExpectedEdges(graph, live, config, "build");
  CheckQueriesAgainstOracle(graph, live, &gen, config,
                            config.queries_per_round, "build", report);

  for (int round = 0; round < config.rounds; ++round) {
    insert(config.inserts_per_round);
    if (config.removals) {
      Range band = gen.NextRemovalBand();
      ASSERT_TRUE(graph->RemoveFormulaCells(band).ok())
          << graph->Name() << " failed to clear " << band.ToString();
      std::erase_if(live, [&](const Dependency& dep) {
        return band.Contains(dep.dep);
      });
    }
    CheckEdgeAccounting(graph, live, config, "round");
    CheckExpectedEdges(graph, live, config, "round");
    CheckQueriesAgainstOracle(graph, live, &gen, config,
                              config.queries_per_round, "round", report);
  }

  // Tear down to empty: clearing every formula cell must leave no edges
  // and queries must return nothing.
  ASSERT_TRUE(
      graph
          ->RemoveFormulaCells(Range(1, 1, config.max_col, config.max_row))
          .ok());
  live.clear();
  CheckEdgeAccounting(graph, live, config, "teardown");
  CheckExpectedEdges(graph, live, config, "teardown");
  CheckQueriesAgainstOracle(graph, live, &gen, config, 4, "teardown",
                            report);
}

}  // namespace taco::test

#endif  // TACO_TESTS_GRAPH_TEST_UTIL_H_

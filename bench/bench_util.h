// Shared infrastructure for the paper-reproduction bench binaries:
// timing, percentile statistics, fixed-width table / CDF printers, and
// bench-scale corpus profiles.
//
// Environment knobs (all optional):
//   TACO_BENCH_PROFILE    scale preset: "paper" (full corpus sizes and
//                         the paper's 300 s DNF budget), "smoke" (tiny
//                         CI-scale corpora, 2 s budget), or unset for
//                         the laptop-bench default scale
//   TACO_BENCH_SHEETS     override the per-corpus sheet count
//   TACO_BENCH_MAX_FORMULAS  override the per-sheet formula cap
//   TACO_BENCH_BUDGET_MS  DNF cutoff for baseline builds/queries
//                         (default 10000; the paper used 300000/60000)
// The fine-grained knobs win over the profile, so a profile can be
// tweaked without abandoning it.

#ifndef TACO_BENCH_BENCH_UTIL_H_
#define TACO_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/generator.h"
#include "graph/dependency_graph.h"

namespace taco::bench {

/// Wall-clock stopwatch in milliseconds.
class TimerMs {
 public:
  TimerMs() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

double Mean(const std::vector<double>& xs);
/// Interpolated percentile, p in [0, 100]. Empty input returns 0.
double Percentile(std::vector<double> xs, double p);
uint64_t PercentileU64(std::vector<uint64_t> xs, double p);

/// "12.345 ms" / "1.234 s" / "DNF".
std::string FormatMs(double ms, bool dnf = false);

/// Fixed-width console table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> row);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints one named series of a CDF: p50/p75/p90/p95/p99/max over `ms`.
void PrintCdfRow(TablePrinter* table, const std::string& name,
                 std::vector<double> ms);

int EnvInt(const char* name, int fallback);
double EnvDouble(const char* name, double fallback);

/// The TACO_BENCH_PROFILE scale presets.
enum class BenchProfile {
  kDefault,  ///< Laptop-bench scale (the historical defaults).
  kSmoke,    ///< CI scale: tiny corpora, 2 s DNF budget.
  kPaper,    ///< Full corpus sizes (Sec. VI), 300 s DNF budget.
};

/// Reads TACO_BENCH_PROFILE ("paper"/"smoke"; anything else, or unset,
/// is the default profile — unknown values warn once on stderr).
BenchProfile ActiveBenchProfile();
std::string_view BenchProfileName(BenchProfile profile);

/// Bench corpus profiles at the scale ActiveBenchProfile() selects
/// (default: smaller than the src/corpus defaults so a full bench suite
/// completes in minutes; ratios preserved). TACO_BENCH_SHEETS /
/// TACO_BENCH_MAX_FORMULAS still override individual knobs.
CorpusProfile BenchEnron();
CorpusProfile BenchGithub();

/// DNF cutoff for baseline builds/queries (TACO_BENCH_BUDGET_MS).
double DnfBudgetMs();

/// Generates the corpus, printing a one-line progress note.
std::vector<CorpusSheet> LoadCorpus(const CorpusProfile& profile);

/// Feeds `deps` into `graph`, honoring the DNF budget. Returns build time
/// in ms, or a negative value when the budget expired (DNF).
double TimedBuild(DependencyGraph* graph, const std::vector<Dependency>& deps,
                  double budget_ms);

/// Prints the standard header for a bench binary.
void PrintHeader(const std::string& title, const std::string& paper_ref);

}  // namespace taco::bench

#endif  // TACO_BENCH_BENCH_UTIL_H_
